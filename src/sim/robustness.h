// The fault-robustness experiment (EXPERIMENTS.md E8): every strategy runs
// under every fault case of a sweep, with the session's post-alignment
// verification/re-alignment loop engaged, and the engine reports the
// robustness matrix — loss, alignment-failure rate, outage/recovery rates,
// recovery-slot overhead, and the degradation-ladder rung histogram.
//
// Determinism contract: trial t of case c draws its measurement stream from
// Rng::stream(seed, t) (same as the single-link drivers) and its fault plan
// from fault_stream(seed, c, t) — the case index is the fault entity, so
// every case faces independent fault realizations while strategies within a
// (case, trial) cell share one plan (fairness). Per-trial slots are reduced
// in trial-index order; results are byte-identical for any thread count.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "sim/scenario.h"
#include "sim/stats.h"

namespace mmw::sim {

/// One column of the robustness matrix: a named fault configuration.
struct FaultCase {
  std::string name;  ///< CSV row label, e.g. "blockage", "clean"
  fault::FaultConfig faults;
};

/// Training budget of every robustness run as a fraction of T = |U|·|V|.
inline constexpr real kRobustnessBudgetRate = 0.10;

/// A (trial, strategy) run counts as an alignment failure when the true
/// loss of its final pair exceeds this threshold (dB).
inline constexpr real kFailureLossDb = 10.0;

/// Pooled per-strategy outcomes of one fault case.
struct StrategyRobustness {
  Summary loss_db;             ///< true loss of the final (post-recovery) pair
  real failure_rate = 0.0;     ///< fraction of trials with loss > threshold
  real outage_rate = 0.0;      ///< fraction of trials declaring an outage
  real recovery_rate = 0.0;    ///< recovered / outages (0 when no outages)
  Summary recovery_slots;      ///< verification + recovery probes per trial
  /// Final-rung histogram over every covariance solve of every trial,
  /// indexed by estimation::SolveRung (primary, em, sample, uniform).
  std::array<std::uint64_t, 4> fallback_rungs{};
  std::uint64_t stressed_solves = 0;  ///< forced-stress injections hit
  index_t trials = 0;                 ///< trials summarized (non-quarantined)
};

struct FaultCaseResult {
  std::string name;
  index_t quarantined = 0;  ///< trials excluded after in-trial failures
  std::map<std::string, StrategyRobustness> by_strategy;
};

/// Runs the full strategy × fault-case matrix. scenario.faults is ignored —
/// each FaultCase supplies its own; everything else (channel, arrays, gamma,
/// seed, trials, threads) comes from the scenario. Every run is verified
/// and re-aligned with mac::Session's RealignmentPolicy. Strategies must be
/// const-callable from multiple threads (core::AlignmentStrategy contract).
std::vector<FaultCaseResult> run_fault_robustness(
    const Scenario& sc,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<FaultCase>& cases);

/// Renders the matrix as CSV: one row per fault case, per-strategy columns
/// <name>_loss_db, <name>_fail_rate, <name>_outage_rate,
/// <name>_recovery_rate, <name>_recovery_slots, <name>_fallback_em,
/// <name>_fallback_sample, <name>_fallback_uniform (map order), then a
/// trailing quarantined count.
std::string render_robustness_csv(const std::vector<FaultCaseResult>& results);

}  // namespace mmw::sim
