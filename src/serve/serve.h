// The city-scale serving engine: a long-running, epoch-driven alignment
// service over a sim::Topology of sites, holding millions of resident
// UserSessions at a fixed per-session byte budget (DESIGN.md §13).
//
// Each tick (step_epoch) runs two phases:
//
//  1. CHURN, sharded by site: sessions past their departure epoch release
//     their slab slot; Poisson(arrival_rate) new users are admitted per
//     site. Admission realizes the user once from its identity stream
//     (drop → channel → sojourn), reduces the grading oracle to one float
//     (the best mean pair gain), and keeps nothing else resident.
//
//  2. STEP, sharded by (site × slab): every live session advances one
//     epoch. An ALIGNING session rebuilds its link from the identity
//     stream, spends one measurement slot (probes_per_slot matched-filter
//     probes through mac::probe_energy — the same chain as mac::Session),
//     and folds the observed energies into its beam-space covariance; after
//     align_epochs slots it claims its best pair and drops to TRACKING. A
//     tracking session costs O(track_fades) with NO link rebuild: a
//     matched-filter probe of the claimed pair is distribution-equivalent
//     to drawing z ~ CN(0, G + σ²) per fade, so the fast path samples that
//     law directly and applies the mac::Session collapse test; an outage
//     re-enters alignment warm (the beam-space covariance survives).
//
// Determinism contract (the fig5–8 contract, extended to churn): every
// random quantity is drawn from a shared-state-free stream keyed by
// (seed, site, user_key, epoch) — identity key_c = 0, epoch streams
// key_c = epoch + 1, arrival counts on a separate per-site key_a lane — so
// a session's trajectory depends only on its own identity and the epoch
// clock. Metrics are per-shard MetricFrames merged in shard order.
// Consequences, enforced by tests/serve/serve_test.cpp: rendered CSVs are
// byte-identical across thread counts and obs on/off, and arrivals or
// departures of OTHER sessions never perturb a survivor (churn
// invariance).
//
// Memory contract: resident state is the slab pools (sizeof(UserSession) +
// one liveness byte per slot, plus free-list/slab bookkeeping) — O(peak
// sessions), no N×N lifts, no per-trial result vectors; metrics are O(1)
// per shard. resident_bytes()/high_water_bytes() report the exact
// accounting, recorded in every E9 manifest next to peak RSS.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "obs/digest.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "serve/slab.h"
#include "sim/scenario.h"
#include "sim/topology.h"
#include "track/policy.h"

namespace mmw::serve {

/// How an aligning session turns a slot's probe energies into its resident
/// beam-space covariance: track::align_slot's fold. kBeamSpace (the
/// moment excess merged with forgetting, allocation-light) is the serving
/// default; kWarmMl (a per-slot regularized ML solve warm-started from the
/// resident prior, estimation::fold_warm_ml) is the paper-faithful one at
/// ~10× the alignment-slot cost.
using EstimatorKind = track::SlotFold;

/// Live-telemetry knobs (DESIGN.md §14). All of it only OBSERVES: enabling
/// any field cannot change engine results (the CSV-equality contract).
struct TelemetryConfig {
  /// Per-epoch NDJSON export path (schema mmw.telemetry/1); "" disables.
  std::string ndjson_path;
  /// The stall-detection monitor thread and its health.json; nullopt runs
  /// none. A trip dumps the flight recorder.
  std::optional<obs::WatchdogConfig> watchdog;
};

struct ServeConfig {
  /// Channel/codebook/gamma/fades knobs plus seed and threads. `trials` is
  /// ignored — the serving engine has sessions, not trials.
  sim::Scenario scenario;
  /// Site layout; topology.cells is the site count, users_per_cell is
  /// ignored (population comes from initial_sessions + churn).
  sim::TopologyConfig topology;

  /// Sessions admitted (round-robin over sites) by the first tick's churn
  /// phase, before any arrivals.
  index_t initial_sessions = 0;
  /// Ticks run() executes.
  index_t epochs = 8;
  /// Poisson mean arrivals per site per epoch (0 = closed population).
  real arrival_rate = 0.0;
  /// Mean sojourn (epochs) drawn exponentially at admission; 0 = immortal.
  real mean_sojourn_epochs = 0.0;

  /// Alignment slots before a session claims its pair and starts tracking
  /// (1 to 255: UserSession counts them in a byte).
  index_t align_epochs = 2;
  /// Matched-filter probes per alignment slot (the paper's J).
  index_t probes_per_slot = 4;
  /// Fades averaged per tracking-epoch verification probe.
  index_t track_fades = 2;
  /// Outage declaration: tracked energy fell this many dB below the
  /// trained energy (mac::Session::RealignmentPolicy semantics). Shared
  /// with the trackers, like the forgetting factor below.
  static constexpr real collapse_db = track::TrackerOptions::collapse_db;
  /// Beam-space forgetting factor ρ: prior weights scale by ρ each
  /// alignment slot.
  static constexpr real forgetting = track::TrackerOptions::forgetting;
  /// Per-slot Bernoulli blockage probability (alignment and tracking).
  real blockage_probability = 0.0;

  EstimatorKind estimator = EstimatorKind::kBeamSpace;

  /// Sessions per slab — the allocator grain AND the step-shard grain.
  index_t session_block = 4096;

  TelemetryConfig telemetry;
};

/// Streaming per-epoch aggregate (merged MetricFrames; O(1) memory) and
/// the one per-epoch record: the E9 CSV row and the counters and loss_db
/// objects of the telemetry line are rendered from it. Loss quantiles come
/// from the shard-merged QuantileDigest, so the tail (p99/p999) is
/// resolved to ~1/(2·256) rank error rather than histogram bucket bounds;
/// all fields are deterministic across thread counts.
struct EpochReport {
  index_t epoch = 0;
  std::uint64_t live_sessions = 0;  ///< after churn, i.e. sessions stepped
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t aligning_steps = 0;
  std::uint64_t tracking_steps = 0;
  std::uint64_t outages = 0;        ///< collapse-test failures this epoch
  std::uint64_t realignments = 0;   ///< claims by previously-outaged sessions
  std::uint64_t claims = 0;         ///< beam pairs claimed this epoch
  std::uint64_t measurement_slots = 0;  ///< training slots spent this epoch
  std::uint64_t estimator_nonconverged = 0;  ///< kWarmMl ladder rung
  std::uint64_t loss_samples = 0;   ///< tracking sessions contributing loss
  real mean_loss_db = 0.0;          ///< mean claimed-vs-optimal SNR loss
  real p50_loss_db = 0.0;
  real p90_loss_db = 0.0;
  real p99_loss_db = 0.0;
  real p999_loss_db = 0.0;
  real max_loss_db = 0.0;
};

/// Wall-clock and process readings of one epoch: the "timing" object of
/// its telemetry line, outside every determinism comparison.
struct EpochTiming {
  double epoch_seconds = 0.0;
  double epoch_seconds_p50 = 0.0;  ///< rolling, over epochs so far
  double epoch_seconds_p99 = 0.0;
  std::uint64_t pool_busy_us = 0;  ///< this epoch's delta
  std::uint64_t pool_idle_us = 0;
  std::uint64_t rss_bytes = 0;
  std::uint64_t arena_high_water_bytes = 0;
  std::uint64_t flight_events = 0;
};

struct ServeResult {
  std::vector<EpochReport> epochs;
  std::uint64_t sessions_stepped = 0;  ///< Σ live_sessions over epochs
  std::uint64_t peak_live_sessions = 0;
  double step_seconds = 0.0;  ///< wall time of the step phases only
  std::size_t resident_bytes = 0;      ///< Σ pool resident_bytes at end
  std::size_t high_water_bytes = 0;    ///< Σ pool high-water bytes
  /// Run-level loss quantiles (every epoch's samples, one digest).
  std::uint64_t loss_samples = 0;
  real loss_p50_db = 0.0;
  real loss_p90_db = 0.0;
  real loss_p99_db = 0.0;
  real loss_p999_db = 0.0;
  /// Epoch wall-time quantiles over the run (timing — not deterministic).
  double epoch_seconds_p50 = 0.0;
  double epoch_seconds_p99 = 0.0;
  bool watchdog_tripped = false;
  std::uint64_t telemetry_records = 0;  ///< NDJSON lines written
};

class ServingEngine {
 public:
  /// Builds topology, codebooks, and one empty slab pool per site. The
  /// thread pool (scenario.threads, 0 = auto) is created once here and
  /// reused by every tick.
  explicit ServingEngine(ServeConfig config);

  /// One tick: churn then step, as described above. Epochs are numbered
  /// from 0; the first call admits initial_sessions.
  EpochReport step_epoch();

  /// Runs config.epochs ticks and returns the streamed reports + totals.
  ServeResult run();

  /// The watchdog, when config.telemetry.watchdog holds one (else null).
  /// Started in the constructor, stopped at destruction.
  const obs::Watchdog* watchdog() const { return watchdog_.get(); }

  /// NDJSON records written so far (0 when telemetry.ndjson_path is "").
  std::uint64_t telemetry_records() const { return sink_.records_written(); }

  const ServeConfig& config() const { return config_; }
  index_t current_epoch() const { return epoch_; }
  index_t n_sites() const { return pools_.size(); }
  index_t live_sessions() const;
  std::uint64_t peak_live_sessions() const { return peak_live_; }
  std::uint64_t sessions_stepped() const { return sessions_stepped_; }
  double step_seconds() const { return step_seconds_; }

  /// Resident-memory accounting summed over every site pool.
  std::size_t resident_bytes() const;
  std::size_t high_water_bytes() const;

  /// The live session with this identity, or nullptr. O(site capacity) —
  /// a test/debug accessor, not a serving-path API.
  const UserSession* find_session(index_t site, std::uint64_t user_key) const;

  /// Ascending (site, slot) iteration over every live session.
  template <class F>
  void for_each_session(F&& f) const {
    for (index_t site = 0; site < pools_.size(); ++site)
      pools_[site].for_each_live(
          [&](index_t, const UserSession& s) { f(site, s); });
  }

 private:
  struct MetricFrame;
  struct Workspace;

  void churn_site(index_t site, MetricFrame& frame);
  void admit_one(index_t site, MetricFrame& frame);
  void step_shard(index_t site, index_t slab, MetricFrame& frame);
  void step_align(index_t site, UserSession& s, MetricFrame& frame,
                  Workspace& ws);
  void step_track(index_t site, UserSession& s, MetricFrame& frame);
  void publish_obs(const MetricFrame& total) const;
  void emit_telemetry(const EpochReport& report, double epoch_seconds);

  ServeConfig config_;
  sim::Topology topology_;
  sim::CodebookPair codebooks_;
  real collapse_scale_ = 0.1;  ///< 10^(−collapse_db/10)
  std::vector<SessionPool> pools_;            ///< one per site
  std::vector<std::uint64_t> next_user_key_;  ///< per-site arrival ordinal
  index_t epoch_ = 0;
  core::ThreadPool pool_;  ///< scenario.threads; inline at one thread

  std::uint64_t peak_live_ = 0;
  std::uint64_t sessions_stepped_ = 0;
  double step_seconds_ = 0.0;

  /// Per-epoch scratch, reused across ticks (no per-epoch heap growth
  /// once the shard count stabilizes).
  std::vector<std::pair<index_t, index_t>> shards_;  ///< (site, slab)

  // -- telemetry plane (observe-only; DESIGN.md §14) ----------------------
  obs::TelemetrySink sink_;
  obs::QuantileDigest run_loss_digest_;      ///< deterministic, all epochs
  obs::QuantileDigest epoch_seconds_digest_; ///< timing only
  /// Watchdog progress heartbeat: one tick per completed shard + epoch.
  std::atomic<std::uint64_t> progress_{0};
  /// Epoch-boundary copies the watchdog's StatusFn may read (live_sessions()
  /// walks the pools and is not safe concurrently with churn, and epoch_
  /// itself is written by the stepping thread).
  std::atomic<std::uint64_t> health_live_{0};
  std::atomic<std::uint64_t> health_epoch_{0};
  /// Pool busy/idle counter values at the previous epoch boundary, for the
  /// per-epoch deltas in the timing sub-object.
  std::uint64_t prev_pool_busy_us_ = 0;
  std::uint64_t prev_pool_idle_us_ = 0;
  /// Last member: its monitor thread reads the atomics above (and the
  /// pool's heartbeat), so it must stop before anything else destructs.
  std::unique_ptr<obs::Watchdog> watchdog_;
};

/// Renders epoch reports as the E9 CSV (fixed 6-digit reals — the byte
/// format the determinism tests compare).
std::string render_serving_csv(const std::vector<EpochReport>& epochs);

/// Renders one epoch as a mmw.telemetry/1 line (DESIGN.md §14; no trailing
/// newline): "schema", "epoch", then the "counters", "memory" (the pools'
/// resident and high-water bytes) and "loss_db" objects, all deterministic,
/// and — when `timing` is given — the "timing" object as the LAST key, so a
/// comparison strips wall time by truncating the line at `,"timing":` and
/// closing the brace. That truncation equals the line rendered without
/// timing.
std::string render_telemetry_line(const EpochReport& report,
                                  std::uint64_t pool_resident_bytes,
                                  std::uint64_t pool_high_water_bytes,
                                  const EpochTiming* timing);

}  // namespace mmw::serve
