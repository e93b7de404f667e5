#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/oracle.h"
#include "estimation/beamspace.h"
#include "linalg/kernels.h"
#include "mac/probe.h"
#include "obs/clock.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "randgen/keylanes.h"

namespace mmw::serve {

namespace {

/// Key spaces of the serving streams (master seed = scenario.seed), from
/// the registry lane randgen/keylanes.h (kServeLaneBase):
///   key_a = 2·site      per-user randomness; key_b = user_key,
///                       key_c = 0 the identity stream (drop → channel →
///                       sojourn, replayable any epoch), key_c = e + 1 the
///                       measurement stream of epoch e.
///   key_a = 2·site + 1  per-site churn; key_b = 0, key_c = e the arrival
///                       count of epoch e.
/// Every lane is reconstructible by any shard without shared state, and no
/// session's lane depends on any other session — the churn-invariance
/// contract reduces to this key map.
randgen::Rng identity_stream(std::uint64_t seed, index_t site,
                             std::uint64_t user_key) {
  return randgen::Rng::stream(
      seed, randgen::lanes::serve_user_lane(site), user_key, 0);
}
randgen::Rng epoch_stream(std::uint64_t seed, index_t site,
                          std::uint64_t user_key, index_t epoch) {
  return randgen::Rng::stream(seed, randgen::lanes::serve_user_lane(site),
                              user_key,
                              static_cast<std::uint64_t>(epoch) + 1);
}
randgen::Rng churn_stream(std::uint64_t seed, index_t site, index_t epoch) {
  return randgen::Rng::stream(seed, randgen::lanes::serve_churn_lane(site),
                              0, static_cast<std::uint64_t>(epoch));
}

/// serve.* telemetry, published once per tick from the MERGED frame on the
/// calling thread — recording never happens inside shards, so obs on/off
/// cannot perturb per-thread anything (the CSV-equality contract).
struct ServeMetrics {
  obs::Counter stepped;
  obs::Counter arrivals;
  obs::Counter departures;
  obs::Counter slots;
  obs::Counter outages;
  obs::Gauge live;
  obs::Gauge mean_loss_db;
  obs::Gauge resident_bytes;
  obs::Gauge high_water_bytes;
  static const ServeMetrics& get() {
    static const ServeMetrics m{
        obs::Registry::global().counter("serve.sessions.stepped"),
        obs::Registry::global().counter("serve.sessions.arrivals"),
        obs::Registry::global().counter("serve.sessions.departures"),
        obs::Registry::global().counter("serve.align.slots"),
        obs::Registry::global().counter("serve.track.outages"),
        obs::Registry::global().gauge("serve.sessions.live"),
        obs::Registry::global().gauge("serve.loss.mean_db"),
        obs::Registry::global().gauge("serve.pool.resident_bytes"),
        obs::Registry::global().gauge("serve.pool.high_water_bytes"),
    };
    return m;
  }
};

}  // namespace

/// Mergeable per-shard accumulator: fixed-size counters + an O(1)-memory
/// loss QuantileDigest, so epoch metrics cost O(shards), never O(sessions).
/// Merged in flat shard order; within a shard samples accumulate in
/// ascending slot order — both orders are thread-count independent, which
/// makes the merged digest (and its quantiles) byte-identical at any
/// thread count (obs/digest.h determinism contract).
struct ServingEngine::MetricFrame {
  std::uint64_t stepped = 0;
  std::uint64_t aligning = 0;
  std::uint64_t tracking = 0;
  std::uint64_t outages = 0;
  std::uint64_t realignments = 0;  ///< claims by previously-outaged sessions
  std::uint64_t claims = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t measurement_slots = 0;
  std::uint64_t nonconverged = 0;  ///< kWarmMl solves past max_iterations
  obs::QuantileDigest loss;        ///< claimed-vs-optimal SNR loss, dB

  void record_loss(real db) { loss.add(db); }

  void merge(const MetricFrame& o) {
    stepped += o.stepped;
    aligning += o.aligning;
    tracking += o.tracking;
    outages += o.outages;
    realignments += o.realignments;
    claims += o.claims;
    arrivals += o.arrivals;
    departures += o.departures;
    measurement_slots += o.measurement_slots;
    nonconverged += o.nonconverged;
    loss.merge(o.loss);
  }
};

/// Per-thread reusable scratch of the alignment step, resized on first
/// touch and reused for every session the thread steps, so the alignment
/// path allocates only the transient link and estimator work.
struct ServingEngine::Workspace {
  track::SlotScratch slot;
  std::vector<estimation::BeamComponent> components;
};

ServingEngine::ServingEngine(ServeConfig config)
    : config_(std::move(config)),
      topology_(sim::Topology::build(config_.topology)),
      codebooks_(sim::make_scenario_codebooks(config_.scenario)),
      pool_(config_.scenario.threads) {
  MMW_REQUIRE_MSG(config_.scenario.gamma > 0.0, "gamma must be positive");
  MMW_REQUIRE_MSG(config_.align_epochs >= 1,
                  "need at least one alignment slot");
  MMW_REQUIRE_MSG(config_.align_epochs <= 0xff,
                  "align_epochs must fit the u8 session slot counter");
  MMW_REQUIRE_MSG(config_.probes_per_slot >= 1,
                  "need at least one probe per slot");
  MMW_REQUIRE_MSG(config_.track_fades >= 1,
                  "need at least one tracking fade");
  MMW_REQUIRE_MSG(
      config_.blockage_probability >= 0.0 &&
          config_.blockage_probability <= 1.0,
      "blockage probability must be in [0, 1]");
  MMW_REQUIRE_MSG(config_.arrival_rate >= 0.0,
                  "arrival rate must be non-negative");
  MMW_REQUIRE_MSG(config_.mean_sojourn_epochs >= 0.0,
                  "mean sojourn must be non-negative");
  MMW_REQUIRE_MSG(config_.session_block > 0,
                  "session block must be positive");
  MMW_REQUIRE_MSG(codebooks_.rx.size() - 1 <= 0xffff &&
                      codebooks_.tx.size() - 1 <= 0xffff,
                  "codeword indices must fit the u16 session fields");
  collapse_scale_ = mac::collapse_scale(ServeConfig::collapse_db);
  const index_t sites = topology_.n_cells();
  pools_.reserve(sites);
  for (index_t s = 0; s < sites; ++s)
    pools_.emplace_back(config_.session_block);
  next_user_key_.assign(sites, 0);

  if (!config_.telemetry.ndjson_path.empty())
    sink_.open(config_.telemetry.ndjson_path);
  if (config_.telemetry.watchdog) {
    // Progress = engine ticks (shards + epochs) plus the pool heartbeat, so
    // forward motion anywhere — even mid-shard task churn — resets the
    // stall clock. Reads only atomics; safe from the monitor thread.
    watchdog_ = std::make_unique<obs::Watchdog>(
        *config_.telemetry.watchdog,
        [this] {
          return progress_.load(std::memory_order_relaxed) +
                 pool_.heartbeat();
        },
        [this] {
          return std::vector<std::pair<std::string, double>>{
              {"epoch",
               static_cast<double>(
                   health_epoch_.load(std::memory_order_relaxed))},
              {"live_sessions",
               static_cast<double>(
                   health_live_.load(std::memory_order_relaxed))},
          };
        });
  }
}

index_t ServingEngine::live_sessions() const {
  index_t n = 0;
  for (const SessionPool& p : pools_) n += p.live_count();
  return n;
}

std::size_t ServingEngine::resident_bytes() const {
  std::size_t n = 0;
  for (const SessionPool& p : pools_) n += p.resident_bytes();
  return n;
}

std::size_t ServingEngine::high_water_bytes() const {
  std::size_t n = 0;
  for (const SessionPool& p : pools_) n += p.high_water_bytes();
  return n;
}

const UserSession* ServingEngine::find_session(index_t site,
                                               std::uint64_t user_key) const {
  MMW_REQUIRE(site < pools_.size());
  const UserSession* found = nullptr;
  pools_[site].for_each_live([&](index_t, const UserSession& s) {
    if (s.user_key == user_key) found = &s;
  });
  return found;
}

void ServingEngine::admit_one(index_t site, MetricFrame& frame) {
  const std::uint64_t key = next_user_key_[site]++;
  // Identity stream, fixed draw order: drop (2 draws) → channel → sojourn.
  // step_align replays the same prefix every alignment epoch.
  randgen::Rng id = identity_stream(config_.scenario.seed, site, key);
  const sim::UserPlacement drop = topology_.place_user(site, id);
  const channel::Link link = sim::make_scenario_link(config_.scenario, id);

  const index_t slot = pools_[site].allocate();
  UserSession& s = pools_[site][slot];
  s.user_key = key;
  s.birth_epoch = static_cast<std::uint32_t>(epoch_);
  if (config_.mean_sojourn_epochs > 0.0) {
    const real sojourn =
        std::min(id.exponential(config_.mean_sojourn_epochs), real{1e9});
    s.departure_epoch = static_cast<std::uint32_t>(
        epoch_ + 1 + static_cast<std::uint64_t>(sojourn));
  }
  // γ_eff folds the serving pathloss; the noise floor each probe sees.
  const real gamma_eff =
      config_.scenario.gamma * topology_.pathloss_gain(site, drop);
  s.noise_var = static_cast<float>(1.0 / gamma_eff);
  // The grading oracle reduced to one resident float: the best mean pair
  // gain over the codebook product (the full PairGainOracle table would be
  // O(T) per session — exactly the resident state this engine forbids).
  s.optimal_gain = static_cast<float>(
      core::best_mean_pair_gain(link, codebooks_.tx, codebooks_.rx));
  ++frame.arrivals;
}

void ServingEngine::churn_site(index_t site, MetricFrame& frame) {
  SessionPool& pool = pools_[site];
  // Departures first: their slots are reusable by this epoch's arrivals.
  for (index_t slot = 0; slot < pool.capacity(); ++slot) {
    if (pool.live(slot) && pool[slot].departure_epoch <= epoch_) {
      pool.release(slot);
      ++frame.departures;
    }
  }
  std::uint64_t admissions = 0;
  if (epoch_ == 0) {
    const index_t sites = pools_.size();
    admissions += config_.initial_sessions / sites +
                  (site < config_.initial_sessions % sites ? 1 : 0);
  }
  if (config_.arrival_rate > 0.0)
    admissions += churn_stream(config_.scenario.seed, site, epoch_)
                      .poisson(config_.arrival_rate);
  for (std::uint64_t i = 0; i < admissions; ++i) admit_one(site, frame);
}

void ServingEngine::step_track(index_t site, UserSession& s,
                               MetricFrame& frame) {
  randgen::Rng rng =
      epoch_stream(config_.scenario.seed, site, s.user_key, epoch_);
  // Matched-filter verification of the claimed pair WITHOUT the link: for
  // Gaussian fades, z = vᴴHu + n is exactly CN(0, G + σ²) with
  // G = mean_pair_gain(u, v) — the paper's eq. (9) energy law — so the
  // fast path samples the law directly. Blockage shadows the slot to
  // noise-only, as in mac::probe_energy.
  const bool blocked =
      config_.blockage_probability > 0.0 &&
      rng.uniform() < config_.blockage_probability;
  const real lambda =
      (blocked ? 0.0 : static_cast<real>(s.claimed_gain)) +
      static_cast<real>(s.noise_var);
  real energy = 0.0;
  for (index_t k = 0; k < config_.track_fades; ++k)
    energy += std::norm(rng.complex_normal(lambda));
  energy /= static_cast<real>(config_.track_fades);

  ++frame.tracking;
  const real claimed = std::max(static_cast<real>(s.claimed_gain), 1e-12);
  frame.record_loss(10.0 *
                    std::log10(static_cast<real>(s.optimal_gain) / claimed));
  if (energy < static_cast<real>(s.trained_energy) * collapse_scale_) {
    ++frame.outages;
    // Warm re-entry: the beam-space covariance survives, so re-alignment
    // starts from last epoch's angular knowledge, not from scratch.
    s.aligning = 1;
    s.slots_aligned = 0;
    s.trained_energy = -1.0f;
    if (s.realigns != 0xff) ++s.realigns;
  }
}

void ServingEngine::step_align(index_t site, UserSession& s,
                               MetricFrame& frame, Workspace& ws) {
  const sim::Scenario& sc = config_.scenario;
  // Rebuild the session's channel from the identity stream (same prefix as
  // admit_one: 2 placement draws, then the link).
  randgen::Rng id = identity_stream(sc.seed, site, s.user_key);
  topology_.place_user(site, id);
  const channel::Link link = sim::make_scenario_link(sc, id);
  randgen::Rng rng = epoch_stream(sc.seed, site, s.user_key, epoch_);
  const real noise_var = static_cast<real>(s.noise_var);

  // One track::align_slot. Slot k dwells on TX beam (user_key + k) mod M,
  // so align_epochs ≥ M covers the TX codebook and the per-session offset
  // spreads concurrent aligners over it. The cursor sweep is keyed by
  // user_key and s.cursor counts probes spent, so a fresh session (rank 0)
  // covers all N RX beams in ⌈N/J⌉ slots.
  track::SlotSpec spec;
  spec.tx_beam = static_cast<index_t>(
      (s.user_key + s.slots_aligned) %
      static_cast<std::uint64_t>(codebooks_.tx.size()));
  spec.probes = config_.probes_per_slot;
  spec.cursor_key = s.user_key;
  spec.cursor = s.cursor;
  spec.fades = sc.fades_per_measurement;
  spec.fold = config_.estimator;
  spec.noise_var = noise_var;
  mac::ProbeView view;
  view.link = &link;
  view.tx_codebook = &codebooks_.tx;
  view.rx_codebook = &codebooks_.rx;
  view.gamma = 1.0 / noise_var;
  view.blockage_probability = config_.blockage_probability;
  ws.components.clear();
  for (index_t i = 0; i < s.rank; ++i)
    ws.components.push_back({static_cast<index_t>(s.comp_beam[i]),
                             static_cast<real>(s.comp_weight[i])});
  if (!track::align_slot(view, spec, ws.components, rng, ws.slot))
    ++frame.nonconverged;  // kWarmMl ladder rung (observe only)

  // Best pair so far, raised per probe against the resident float energy.
  const index_t j = ws.slot.probe_rx.size();
  for (index_t i = 0; i < j; ++i) {
    const real e = ws.slot.probe_energy[i];
    if (e > static_cast<real>(s.trained_energy)) {
      s.trained_energy = static_cast<float>(e);
      s.tx_beam = static_cast<std::uint16_t>(spec.tx_beam);
      s.rx_beam = static_cast<std::uint16_t>(ws.slot.probe_rx[i]);
    }
  }
  frame.measurement_slots += j;
  s.cursor += static_cast<std::uint32_t>(j);
  const std::vector<estimation::BeamComponent>& merged = ws.components;
  s.rank = static_cast<std::uint8_t>(merged.size());
  for (index_t i = 0; i < kMaxComponents; ++i) {
    s.comp_beam[i] =
        i < merged.size() ? static_cast<std::uint16_t>(merged[i].beam) : 0;
    s.comp_weight[i] =
        i < merged.size() ? static_cast<float>(merged[i].weight) : 0.0f;
  }

  ++frame.aligning;
  ++s.slots_aligned;
  if (s.slots_aligned >= config_.align_epochs &&
      s.trained_energy >= 0.0f) {
    // Claim the best measured pair and drop to the tracking fast path.
    s.aligning = 0;
    s.claimed_gain = static_cast<float>(link.mean_pair_gain(
        codebooks_.tx.codeword(s.tx_beam), codebooks_.rx.codeword(s.rx_beam)));
    ++frame.claims;
    if (s.realigns > 0) ++frame.realignments;
  }
}

void ServingEngine::step_shard(index_t site, index_t slab,
                               MetricFrame& frame) {
  static thread_local Workspace tls_workspace;
  Workspace& ws = tls_workspace;
  pools_[site].for_each_live_in_slab(slab, [&](index_t, UserSession& s) {
    if (s.aligning != 0)
      step_align(site, s, frame, ws);
    else
      step_track(site, s, frame);
    ++frame.stepped;
  });
}

void ServingEngine::publish_obs(const MetricFrame& total) const {
  if (!obs::enabled()) return;
  const ServeMetrics& m = ServeMetrics::get();
  m.stepped.add(total.stepped);
  m.arrivals.add(total.arrivals);
  m.departures.add(total.departures);
  m.slots.add(total.measurement_slots);
  m.outages.add(total.outages);
  m.live.set(static_cast<real>(live_sessions()));
  if (total.loss.count() > 0)
    m.mean_loss_db.set(total.loss.sum() /
                       static_cast<real>(total.loss.count()));
  m.resident_bytes.set(static_cast<real>(resident_bytes()));
  m.high_water_bytes.set(static_cast<real>(high_water_bytes()));
}

EpochReport ServingEngine::step_epoch() {
  obs::TraceScope span("serve.epoch", "serve");
  span.arg("epoch", static_cast<double>(epoch_));
  const obs::WallTimer epoch_timer;
  const index_t sites = pools_.size();

  // Phase 1 — churn, sharded by site (each site's pool and key counter are
  // touched by exactly one iteration).
  std::vector<MetricFrame> churn_frames(sites);
  auto churn_one = [&](index_t site) {
    churn_site(site, churn_frames[site]);
    progress_.fetch_add(1, std::memory_order_relaxed);
  };
  pool_.run(sites, churn_one);

  // Phase 2 — step every live session, sharded (site × slab).
  shards_.clear();
  for (index_t site = 0; site < sites; ++site)
    for (index_t slab = 0; slab < pools_[site].n_slabs(); ++slab)
      if (pools_[site].live_in_slab(slab) > 0) shards_.emplace_back(site, slab);
  std::vector<MetricFrame> step_frames(shards_.size());
  const obs::WallTimer step_timer;
  auto step_one = [&](index_t i) {
    step_shard(shards_[i].first, shards_[i].second, step_frames[i]);
    progress_.fetch_add(1, std::memory_order_relaxed);
  };
  pool_.run(shards_.size(), step_one);
  step_seconds_ += step_timer.seconds();

  // Reduce in flat shard order — parallel output == serial output.
  MetricFrame total;
  for (const MetricFrame& f : churn_frames) total.merge(f);
  for (const MetricFrame& f : step_frames) total.merge(f);

  EpochReport r;
  r.epoch = epoch_;
  r.live_sessions = total.stepped;
  r.arrivals = total.arrivals;
  r.departures = total.departures;
  r.aligning_steps = total.aligning;
  r.tracking_steps = total.tracking;
  r.outages = total.outages;
  r.realignments = total.realignments;
  r.claims = total.claims;
  r.measurement_slots = total.measurement_slots;
  r.estimator_nonconverged = total.nonconverged;
  r.loss_samples = total.loss.count();
  r.mean_loss_db =
      r.loss_samples > 0
          ? total.loss.sum() / static_cast<real>(r.loss_samples)
          : 0.0;
  r.p50_loss_db = total.loss.quantile(0.50);
  r.p90_loss_db = total.loss.quantile(0.90);
  r.p99_loss_db = total.loss.quantile(0.99);
  r.p999_loss_db = total.loss.quantile(0.999);
  r.max_loss_db = total.loss.max_value();

  sessions_stepped_ += total.stepped;
  peak_live_ = std::max<std::uint64_t>(peak_live_, live_sessions());
  publish_obs(total);

  // Telemetry plane: run-level digests, watchdog feed, NDJSON line. All
  // observe-only.
  run_loss_digest_.merge(total.loss);
  const double epoch_seconds = epoch_timer.seconds();
  epoch_seconds_digest_.add(epoch_seconds);
  health_live_.store(live_sessions(), std::memory_order_relaxed);
  health_epoch_.store(epoch_, std::memory_order_relaxed);
  if (watchdog_) watchdog_->note_epoch_seconds(epoch_seconds);
  emit_telemetry(r, epoch_seconds);

  progress_.fetch_add(1, std::memory_order_relaxed);
  ++epoch_;
  return r;
}

void ServingEngine::emit_telemetry(const EpochReport& report,
                                   double epoch_seconds) {
  if (!sink_.is_open()) return;

  EpochTiming timing;
  timing.epoch_seconds = epoch_seconds;
  timing.epoch_seconds_p50 = epoch_seconds_digest_.quantile(0.50);
  timing.epoch_seconds_p99 = epoch_seconds_digest_.quantile(0.99);
  // Pool utilization as per-epoch deltas of the core.pool.* counters (zero
  // while obs is disabled — the counters don't advance).
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto counter_value = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it != snap.counters.end() ? it->second.value : 0;
  };
  const std::uint64_t busy = counter_value("core.pool.busy_us");
  const std::uint64_t idle = counter_value("core.pool.idle_us");
  timing.pool_busy_us = busy - std::min(busy, prev_pool_busy_us_);
  timing.pool_idle_us = idle - std::min(idle, prev_pool_idle_us_);
  prev_pool_busy_us_ = busy;
  prev_pool_idle_us_ = idle;
  timing.rss_bytes = obs::current_rss_bytes();
  timing.arena_high_water_bytes =
      static_cast<std::uint64_t>(linalg::kernels::arena_high_water_bytes());
  timing.flight_events = obs::FlightRecorder::global().event_count();

  sink_.write(render_telemetry_line(report, resident_bytes(),
                                    high_water_bytes(), &timing));
}

ServeResult ServingEngine::run() {
  ServeResult result;
  result.epochs.reserve(config_.epochs);
  for (index_t e = 0; e < config_.epochs; ++e)
    result.epochs.push_back(step_epoch());
  result.sessions_stepped = sessions_stepped_;
  result.peak_live_sessions = peak_live_;
  result.step_seconds = step_seconds_;
  result.resident_bytes = resident_bytes();
  result.high_water_bytes = high_water_bytes();
  result.loss_samples = run_loss_digest_.count();
  result.loss_p50_db = run_loss_digest_.quantile(0.50);
  result.loss_p90_db = run_loss_digest_.quantile(0.90);
  result.loss_p99_db = run_loss_digest_.quantile(0.99);
  result.loss_p999_db = run_loss_digest_.quantile(0.999);
  result.epoch_seconds_p50 = epoch_seconds_digest_.quantile(0.50);
  result.epoch_seconds_p99 = epoch_seconds_digest_.quantile(0.99);
  result.watchdog_tripped = watchdog_ && watchdog_->tripped();
  result.telemetry_records = sink_.records_written();
  return result;
}

std::string render_serving_csv(const std::vector<EpochReport>& epochs) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << "epoch,live_sessions,arrivals,departures,aligning_steps,"
        "tracking_steps,outages,realignments,claims,measurement_slots,"
        "loss_samples,mean_loss_db,p50_loss_db,p90_loss_db,p99_loss_db,"
        "p999_loss_db\n";
  for (const EpochReport& r : epochs) {
    os << r.epoch << ',' << r.live_sessions << ',' << r.arrivals << ','
       << r.departures << ',' << r.aligning_steps << ',' << r.tracking_steps
       << ',' << r.outages << ',' << r.realignments << ',' << r.claims << ','
       << r.measurement_slots << ',' << r.loss_samples << ','
       << r.mean_loss_db << ',' << r.p50_loss_db << ',' << r.p90_loss_db
       << ',' << r.p99_loss_db << ',' << r.p999_loss_db << '\n';
  }
  return os.str();
}

std::string render_telemetry_line(const EpochReport& report,
                                  std::uint64_t pool_resident_bytes,
                                  std::uint64_t pool_high_water_bytes,
                                  const EpochTiming* timing) {
  obs::JsonWriter w;
  const auto field = [&w](const char* key, auto value) {
    w.key(key);
    w.number(value);
  };
  w.begin_object();
  w.key("schema");
  w.string("mmw.telemetry/1");
  field("epoch", report.epoch);

  w.key("counters");
  w.begin_object();
  field("live_sessions", report.live_sessions);
  field("arrivals", report.arrivals);
  field("departures", report.departures);
  field("aligning_steps", report.aligning_steps);
  field("tracking_steps", report.tracking_steps);
  field("outages", report.outages);
  field("realignments", report.realignments);
  field("claims", report.claims);
  field("measurement_slots", report.measurement_slots);
  field("estimator_nonconverged", report.estimator_nonconverged);
  w.end_object();

  w.key("memory");
  w.begin_object();
  field("pool_resident_bytes", pool_resident_bytes);
  field("pool_high_water_bytes", pool_high_water_bytes);
  w.end_object();

  w.key("loss_db");
  w.begin_object();
  field("count", report.loss_samples);
  field("mean", report.mean_loss_db);
  field("p50", report.p50_loss_db);
  field("p90", report.p90_loss_db);
  field("p99", report.p99_loss_db);
  field("p999", report.p999_loss_db);
  field("max", report.max_loss_db);
  w.end_object();

  // "timing" must stay the last key: the determinism gate strips it by
  // truncating the serialized line at `,"timing":`.
  if (timing != nullptr) {
    w.key("timing");
    w.begin_object();
    field("epoch_seconds", timing->epoch_seconds);
    field("epoch_seconds_p50", timing->epoch_seconds_p50);
    field("epoch_seconds_p99", timing->epoch_seconds_p99);
    field("pool_busy_us", timing->pool_busy_us);
    field("pool_idle_us", timing->pool_idle_us);
    field("rss_bytes", timing->rss_bytes);
    field("arena_high_water_bytes", timing->arena_high_water_bytes);
    field("flight_events", timing->flight_events);
    w.end_object();
  }

  w.end_object();
  return std::move(w).str();
}

}  // namespace mmw::serve
