// Experiment scenarios: the paper's simulation setup in one value type, and
// the Monte-Carlo trial scaffold every sim experiment is built from.
//
// Ownership / thread-safety: Scenario is a plain value type (cheap to copy,
// no hidden references); the experiment drivers take it by const& and never
// mutate it, so one Scenario may be shared by any number of concurrent
// experiment runs. TrialContext owns everything a trial touches (link,
// codebooks, oracle) by value — trials built from independent Rng streams
// share no state and are safe to run on different threads.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "antenna/codebook.h"
#include "channel/models.h"
#include "core/oracle.h"
#include "core/strategy.h"
#include "fault/fault.h"
#include "mac/session.h"

namespace mmw::sim {

/// Which channel a trial draws its link from.
enum class ChannelKind {
  kSinglePath,    ///< one specular path (paper Figs. 5 & 7)
  kNycMultipath,  ///< Akdeniz NYC cluster channel (paper Figs. 6 & 8)
};

/// Which beam codebook the terminals train over.
enum class CodebookKind {
  /// Steering vectors on a uniform angular grid covering the sector.
  /// Neighbouring codewords overlap, which is what lets a covariance
  /// estimate score directions it has not probed — the property the
  /// paper's eigen-directed measurement relies on. Default.
  kAngularGrid,
  /// Orthonormal DFT beams. With orthogonal codewords the regularized ML
  /// estimate provably cannot extrapolate outside the probed span (see
  /// estimate_covariance_ml), so the adaptive scheme degrades to its
  /// cross-slot reuse effect only. Kept for ablation.
  kDft,
};

/// A reproducible experiment configuration. Defaults mirror the paper's
/// setup (Sec. V-A): TX 4×4 λ/2 UPA, RX 8×8 λ/2 UPA, one codebook beam per
/// antenna element, so T = 16·64 = 1024 beam pairs.
struct Scenario {
  ChannelKind channel = ChannelKind::kSinglePath;
  channel::NycClusterParams nyc;  ///< used when channel == kNycMultipath

  /// Angular sector shared by the channel path generator and the angular
  /// codebooks.
  channel::AngularSector sector;

  CodebookKind codebook = CodebookKind::kAngularGrid;

  index_t tx_grid_x = 4, tx_grid_y = 4;
  index_t rx_grid_x = 8, rx_grid_y = 8;

  /// Pre-beamforming SNR γ = Es/N0, **linear** (not dB: a CLI "--gamma-db G"
  /// maps to gamma = 10^(G/10)). 1.0 (0 dB) puts the aligned pair ≈30 dB
  /// above noise while off paths stay near the floor.
  real gamma = 1.0;

  /// Independent fades averaged per measurement slot (see mac::Session).
  index_t fades_per_measurement = 8;

  /// Master seed. Trial t of an experiment driver uses the independent
  /// stream randgen::Rng::stream(seed, t); results are bit-identical for a
  /// given seed regardless of `threads`.
  std::uint64_t seed = 1;
  index_t trials = 20;

  /// Threads the Monte-Carlo drivers spread trials over.
  /// 0 = auto (std::thread::hardware_concurrency()); 1 = inline on the
  /// caller (the pool starts no worker). Any value yields identical
  /// results — this knob only trades wall-clock for cores.
  index_t threads = 0;

  /// Deterministic fault injection (DESIGN.md §11). Default-constructed =
  /// all faults off, in which case the drivers take the exact code path
  /// they took before the fault runtime existed (bit-identical outputs).
  /// Trial t draws its plan from the reserved fault key range
  /// (fault::fault_stream), never from the trial's measurement stream, so
  /// enabling one fault type does not shift any other randomness.
  fault::FaultConfig faults;

  index_t total_pairs() const {
    return tx_grid_x * tx_grid_y * rx_grid_x * rx_grid_y;
  }
};

/// Everything one Monte-Carlo trial needs: a realized link, the codebooks,
/// and the grading oracle.
struct TrialContext {
  channel::Link link;
  antenna::Codebook tx_codebook;
  antenna::Codebook rx_codebook;
  core::PairGainOracle oracle;
};

/// The scenario's TX/RX codebook pair (deterministic — no randomness).
/// Split out of make_trial so engines that run many links against the same
/// codebooks (sim/multicell.h) can build them once and share them
/// read-only across shards.
struct CodebookPair {
  antenna::Codebook tx;
  antenna::Codebook rx;
};
CodebookPair make_scenario_codebooks(const Scenario& scenario);

/// Draws one realized link of the scenario's channel kind between the
/// scenario's arrays. Reads only `scenario` (const) and draws only from
/// `rng`; safe to call concurrently with distinct Rng objects.
channel::Link make_scenario_link(const Scenario& scenario, randgen::Rng& rng);

/// Draws the trial-specific link and builds codebooks/oracle. Composes the
/// two helpers above; same thread-safety contract.
TrialContext make_trial(const Scenario& scenario, randgen::Rng& rng);

// -- The trial scaffold -----------------------------------------------------
// One copy of what every Monte-Carlo experiment does around a trial
// (DESIGN.md §7, §11): turn a rate into a slot budget, draw the trial's
// fault realization, run each strategy on its own Session, and spread the
// trials (or shards) over the pool with quarantine. Its callers are
// run_search_effectiveness, run_cost_efficiency, run_multicell and
// run_fault_robustness.

/// Slots in the fraction `rate` ∈ (0, 1] of `total` pairs (at least one).
index_t rate_to_budget(real rate, index_t total);

/// One trial's fault realization, shared by every strategy run on its link
/// (fairness: the same blockage onset, dropped slots and stressed solves).
struct TrialFaults {
  fault::FaultPlan plan;
  std::optional<channel::Link> degraded;  ///< post-onset link iff blockage
};

/// Draws the fault realization of (seed, entity, trial) for `link` over
/// `budget` slots from fault::fault_stream — the reserved key range, so no
/// measurement stream moves. The entity is what fails independently (see
/// fault::fault_stream). nullopt when `config` injects nothing, which
/// keeps clean runs on their pre-fault code path.
std::optional<TrialFaults> draw_trial_faults(const fault::FaultConfig& config,
                                             std::uint64_t seed,
                                             std::uint64_t entity,
                                             index_t trial,
                                             const channel::Link& link,
                                             index_t budget);

/// What the strategy runs of one trial share, all borrowed: the link, its
/// codebooks, the trial's faults (null = clean) and the per-RX-beam
/// interference floor (empty = none, see mac::Session::set_interference).
struct TrialLink {
  const channel::Link& link;
  const antenna::Codebook& tx;
  const antenna::Codebook& rx;
  const TrialFaults* faults = nullptr;
  std::span<const real> interference = {};
};

/// Runs `strategy` on a fresh mac::Session over `trial` with `budget` slots
/// and the scenario's γ and fades, drawing from rng.fork() — one fork per
/// call, so a trial's runs fork in strategy order. Under faults the plan is
/// armed on the session, which then keeps the run's fault tallies (rung
/// histogram, stressed solves; Session::fault_state). Then calls
/// grade(session) with the live session.
template <typename Grade>
void run_strategy(const core::AlignmentStrategy& strategy,
                  const Scenario& scenario, const TrialLink& trial,
                  index_t budget, randgen::Rng& rng, Grade&& grade) {
  randgen::Rng run_rng = rng.fork();
  mac::Session session(trial.link, trial.tx, trial.rx, scenario.gamma,
                       budget, run_rng, scenario.fades_per_measurement);
  if (!trial.interference.empty())
    session.set_interference(
        {trial.interference.begin(), trial.interference.end()});
  if (trial.faults != nullptr) {
    const auto& degraded = trial.faults->degraded;
    session.arm_faults(&trial.faults->plan, degraded ? &*degraded : nullptr);
  }
  strategy.run(session);
  grade(session);
}

/// Which shards of a run_shards call were quarantined.
struct ShardRun {
  std::vector<index_t> quarantined;  ///< ascending
  std::vector<bool> skip;            ///< skip[s] ⇔ shard s quarantined
};

/// Runs shard(s) for every s in [0, n) over a pool of `threads`
/// (Scenario::threads semantics, capped at n). A shard writes only its own
/// slot and the caller reduces in shard order, passing over `skip`, so
/// every thread count gives the same bytes. With `quarantine` a shard that
/// throws is recorded instead of aborting the run (its slot may be
/// partial), counted on the obs counter `counter` and reported on stderr
/// as "quarantined k/n <what>"; without it the lowest-index failure
/// propagates (core::ThreadPool::run). Throws precondition_error when
/// every shard was quarantined.
ShardRun run_shards(index_t n, index_t threads, bool quarantine,
                    const char* counter, std::string_view what,
                    const std::function<void(index_t)>& shard);

}  // namespace mmw::sim
