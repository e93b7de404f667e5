// Sharded multi-cell Monte-Carlo engine: a topology of base stations each
// runs an independent beam-alignment session against its attached users,
// with inter-cell interference folded into the matched-filter noise floor
// of every measurement (mac::Session::set_interference).
//
// Determinism contract (DESIGN.md §9): work is sharded at (cell × trial)
// granularity over core::ThreadPool. Every random quantity inside a shard
// comes from a shared-state-free three-key stream
// Rng::stream(seed, key, user, trial) — serving links, user drops, cross
// links, and the interferers' active TX beams all have fixed key spaces —
// and shard results are reduced in shard-index order, so results down to
// rendered CSV bytes are identical for any thread count
// (tests/sim/multicell_test.cpp asserts this).
//
// Interference model: while cell c's user trains, every other BS o is
// serving traffic on one active TX beam (held for the victim's alignment
// epoch, redrawn per trial). The mean interference power landing on victim
// RX codeword v is
//   I_v = scale · (d_serving/d_o)^α · vᴴ Q^cross_{o,u_o} v,
// computed for the whole RX codebook in one pass through the existing
// factored codebook scoring (the cross covariance for one TX beam has rank
// ≤ #paths, so it is built as a B Q_r Bᴴ factor via thin QR of the scaled
// RX steering vectors). The session then draws each fade's additive term
// from CN(0, 1/γ + I_v).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "sim/scenario.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace mmw::sim {

/// Configuration of one multi-cell run. The embedded Scenario supplies the
/// per-link knobs (channel kind, arrays, codebooks, gamma, fades) plus the
/// engine-wide seed/trials/threads; the topology supplies the deployment.
struct MultiCellConfig {
  TopologyConfig topology;
  Scenario scenario;

  /// Grading point: the search rate (fraction of T = |U|·|V|) whose prefix
  /// loss is reported per session. In (0, budget_rate].
  static constexpr real search_rate = 0.10;

  /// Training budget as a fraction of T (the trajectory is graded at
  /// search_rate and scanned for target_loss_db up to this rate). Sessions
  /// that never reach the target within the budget are charged the full
  /// 100% rate, as in run_cost_efficiency.
  static constexpr real budget_rate = 0.35;

  /// Loss target (dB) of the required-search-rate metric.
  static constexpr real target_loss_db = 3.0;

  /// Interference-to-signal factor multiplying every coupling.
  static constexpr real interference_scale = 1.0;
};

/// Pooled result over every (cell, user, trial) session, per strategy.
struct MultiCellResult {
  index_t cells = 0;             ///< sites actually simulated
  index_t sessions_per_strategy = 0;  ///< cells · users_per_cell · trials
  /// SNR loss (dB) of the claimed pair after the search_rate prefix.
  std::map<std::string, Summary> loss_db;
  /// Search rate needed to reach target_loss_db (1.0 when unreached).
  std::map<std::string, Summary> required_rate;
  /// Per-session mean interference-to-noise ratio 10·log10(1 + γ·Ī) where
  /// Ī averages I_v over the RX codebook — one sample per (cell, user,
  /// trial), identical for every strategy.
  Summary interference_over_noise_db;
  /// (cell × trial) shards excluded from every summary because a session
  /// threw while scenario.faults.quarantine_trials was set (ascending,
  /// empty otherwise; shard = trial·n_cells + cell). The same set is
  /// excluded at every thread count.
  std::vector<index_t> quarantined_shards;
};

/// Runs every strategy through every (cell, user, trial) session under the
/// configured topology and interference. Strategies must be const-callable
/// from multiple threads (core::AlignmentStrategy contract). Shards run in
/// parallel per scenario.threads with bit-exact thread-count independence.
MultiCellResult run_multicell(
    const MultiCellConfig& config,
    const std::vector<const core::AlignmentStrategy*>& strategies);

/// Renders one sweep of multi-cell results as CSV: one row per x value,
/// columns <strategy>_loss_db, <strategy>_required_rate (strategy order of
/// the results' maps), then interference_over_noise_db. Used by
/// bench/ext_multicell_interference and its determinism test.
std::string render_multicell_csv(const std::string& x_label,
                                 const std::vector<real>& xs,
                                 const std::vector<MultiCellResult>& results);

}  // namespace mmw::sim
