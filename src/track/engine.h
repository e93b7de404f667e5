// The temporal tracking engine: runs Tracker strategies against mobile
// users whose channels evolve epoch by epoch, with hysteresis handover
// between sites — the E10 experiment (steady-state loss and re-alignment
// rate vs user speed).
//
// Per (tracker, user) shard, per epoch e:
//   1. The user's trajectory position at e picks the serving site through
//      select_serving_site (hysteresis); a change is a HANDOVER — the
//      tracker's beam-space state is exported, carried, and re-imported
//      (the codec round-trip the serving engine's sessions use).
//   2. The (user, site) base link — drawn once per pair from the reserved
//      track-link lane — is evolved to epoch e (channel::LinkEvolution on
//      the reserved temporal lane; random-access seek, so handing over to
//      a site mid-run lands on the same state as having tracked it from
//      epoch 0).
//   3. The tracker spends its probes over the evolved link at the
//      pathloss-scaled γ, drawing measurement noise from the reserved
//      track-measure lane keyed by (tracker, user, epoch).
//   4. The claimed pair is graded against the epoch's exhaustive oracle
//      (max mean pair gain); epochs ≥ warmup_epochs feed the steady-state
//      statistics.
//
// Determinism contract (DESIGN.md §7/§15): shards are (tracker × user),
// every random quantity comes from the reserved lanes above — keyed by
// entity and epoch, never by thread — and shard results (counters + one
// QuantileDigest per shard) merge in flat shard order. Rendered CSVs are
// byte-identical for any thread count; tests/track/engine_test.cpp and the
// E10 CI job enforce it. obs publication happens once, from merged totals,
// on the calling thread (obs on/off cannot move a byte of results).
#pragma once

#include <string>
#include <vector>

#include "channel/temporal.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "sim/topology.h"
#include "track/tracker.h"

namespace mmw::track {

struct TrackingConfig {
  /// Channel/codebook/gamma/fades/seed/threads knobs (trials ignored —
  /// tracking has users × epochs, not trials).
  sim::Scenario scenario;
  sim::TopologyConfig topology;
  /// Channel evolution knobs; speed_mps and epoch_seconds are overwritten
  /// from `mobility` so one knob drives geometry and channel alike.
  channel::EvolutionConfig evolution;
  sim::MobilityConfig mobility;

  index_t users = 16;
  index_t epochs = 64;
  /// Epochs excluded from steady-state statistics (acquisition transient).
  index_t warmup_epochs = 16;
};

/// Steady-state outcome of one tracker over one run (all users pooled).
struct TrackerCaseResult {
  std::string name;
  std::uint64_t steady_epochs = 0;  ///< user-epochs graded
  real mean_loss_db = 0.0;          ///< claimed-vs-oracle SNR loss
  real p50_loss_db = 0.0;
  real p90_loss_db = 0.0;
  real p99_loss_db = 0.0;
  real max_loss_db = 0.0;
  real realign_rate = 0.0;      ///< re-aligning epochs / steady epochs
  real outage_rate = 0.0;       ///< collapse-test failures / steady epochs
  real probes_per_epoch = 0.0;  ///< mean probes per steady epoch
  std::uint64_t probes_total = 0;  ///< whole run, warmup included
};

struct TrackingResult {
  index_t users = 0;
  index_t epochs = 0;
  index_t warmup_epochs = 0;
  /// One entry per requested kind, in request order.
  std::vector<TrackerCaseResult> trackers;
  /// Handovers per user over the run (identical for every tracker — the
  /// trajectory and hysteresis rule don't depend on tracking decisions).
  real handovers_per_user = 0.0;
};

/// Runs every requested tracker kind over the same mobile population.
/// Preconditions: users ≥ 1, epochs ≥ 1, warmup_epochs < epochs, kinds
/// non-empty.
TrackingResult run_tracking(const TrackingConfig& config,
                            const std::vector<TrackerKind>& kinds);

/// Renders one sweep as CSV: a row per x value; per-tracker columns
/// <name>_loss_db, <name>_p99_loss_db, <name>_realign_rate,
/// <name>_probes_per_epoch (request order), then handovers_per_user.
/// Fixed 6-digit reals — the byte format the determinism tests compare.
std::string render_tracking_csv(const std::string& x_label,
                                const std::vector<real>& xs,
                                const std::vector<TrackingResult>& results);

}  // namespace mmw::track
