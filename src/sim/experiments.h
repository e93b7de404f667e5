// The paper's two experiment families, as reusable Monte-Carlo drivers:
//  - search effectiveness: mean SNR loss vs search rate (Figs. 5 & 6);
//  - cost efficiency: required search rate vs target loss (Figs. 7 & 8).
//
// Both drivers spread trials over a core::ThreadPool sized by
// Scenario::threads (0 = all cores, 1 = inline on the caller).
// Determinism contract: trial t draws from randgen::Rng::stream(seed, t)
// and per-trial results are reduced in trial-index order, so for a fixed
// Scenario the results — down to render_csv bytes — are identical for any
// thread count. tests/sim/parallel_determinism_test.cpp asserts this.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "sim/scenario.h"
#include "sim/stats.h"

namespace mmw::sim {

/// Result of a search-effectiveness sweep: per strategy, one loss summary
/// per requested search rate.
struct EffectivenessResult {
  std::vector<real> search_rates;  ///< fractions of T, ascending
  std::map<std::string, std::vector<Summary>> loss_db;
  /// Trials excluded from every summary because a strategy threw while the
  /// scenario ran with faults.quarantine_trials set (ascending, empty
  /// otherwise). The same set is excluded at every thread count.
  std::vector<index_t> quarantined_trials;
};

/// Runs every strategy once per trial with the largest budget and grades
/// each requested search rate on the trajectory prefix — all strategies
/// here are budget-oblivious (greedy sequences), so prefix grading is exact.
/// Trials run in parallel per Scenario::threads; strategies must be
/// const-callable from multiple threads (see core::AlignmentStrategy).
EffectivenessResult run_search_effectiveness(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<real>& search_rates);

/// Result of a cost-efficiency sweep: per strategy, the search rate needed
/// to reach each target loss (runs that never reach a target are charged
/// the full 100% rate, matching "keep searching until the loss is met").
struct CostEfficiencyResult {
  std::vector<real> target_loss_db;  ///< descending in difficulty
  std::map<std::string, std::vector<Summary>> required_rate;
  /// See EffectivenessResult::quarantined_trials.
  std::vector<index_t> quarantined_trials;
};

CostEfficiencyResult run_cost_efficiency(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<real>& target_loss_db);

/// Renders an aligned ASCII table: one row per x value, one column per
/// strategy (mean ± 95% CI). `x_label` captions the first column.
std::string render_table(
    const std::string& x_label, const std::vector<real>& xs,
    const std::map<std::string, std::vector<Summary>>& series);

/// Renders the same data as CSV (mean values only).
std::string render_csv(
    const std::string& x_label, const std::vector<real>& xs,
    const std::map<std::string, std::vector<Summary>>& series);

}  // namespace mmw::sim
