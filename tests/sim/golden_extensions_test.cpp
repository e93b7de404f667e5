// Pinned-seed goldens for the extension engines — E7 (multi-cell
// interference), E8 (fault robustness), E9 (serving, beam-space and warm-ML
// estimators), E10 (tracking under mobility) — the same freeze the
// paper figures get in golden_figures_test.cpp: tiny configurations, fixed
// seeds, values pinned to 17 significant digits at generation time. Any
// change to an engine's arithmetic, stream layout, or reduction order
// shows up here as a precise diff, not a statistical drift.
//
// Regenerating after an INTENTIONAL change: print the asserted quantities
// with %.17g under the exact configs below (threads = 1) and paste.
#include <gtest/gtest.h>

#include <vector>

#include "core/strategy.h"
#include "serve/serve.h"
#include "sim/multicell.h"
#include "sim/robustness.h"
#include "track/engine.h"

namespace mmw::sim {
namespace {

constexpr real kTol = 1e-9;

Scenario tiny_scenario() {
  Scenario sc;
  sc.channel = ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 2;
  sc.gamma = 100.0;
  sc.seed = 20160401;
  sc.trials = 3;
  sc.threads = 1;
  return sc;
}

TEST(GoldenExtensions, E7MulticellTinyTrialsPinned) {
  core::ExhaustiveSearch exhaustive;
  core::ProposedAlignment proposed;
  MultiCellConfig cfg;
  cfg.scenario = tiny_scenario();
  cfg.topology.cells = 3;
  const MultiCellResult r = run_multicell(cfg, {&exhaustive, &proposed});

  EXPECT_EQ(r.cells, 3u);
  EXPECT_EQ(r.sessions_per_strategy, 9u);
  EXPECT_NEAR(r.loss_db.at("Exhaustive").mean, 19.417093704743756, kTol);
  EXPECT_NEAR(r.loss_db.at("Proposed").mean, 23.471701035077917, kTol);
  EXPECT_NEAR(r.required_rate.at("Exhaustive").mean, 0.58854166666666663,
              kTol);
  EXPECT_NEAR(r.required_rate.at("Proposed").mean, 0.35069444444444442,
              kTol);
  EXPECT_NEAR(r.interference_over_noise_db.mean, 7.2838172682883391, kTol);
  EXPECT_TRUE(r.quarantined_shards.empty());
}

TEST(GoldenExtensions, E8RobustnessTinyTrialsPinned) {
  core::ExhaustiveSearch exhaustive;
  core::ProposedAlignment proposed;
  FaultCase clean{"clean", {}};
  clean.faults.quarantine_trials = true;
  FaultCase blockage{"blockage", {}};
  blockage.faults.blockage_probability = 1.0;
  blockage.faults.quarantine_trials = true;
  const std::vector<FaultCaseResult> rs = run_fault_robustness(
      tiny_scenario(), {&exhaustive, &proposed}, {clean, blockage});

  ASSERT_EQ(rs.size(), 2u);
  const FaultCaseResult& c = rs[0];
  EXPECT_EQ(c.name, "clean");
  EXPECT_EQ(c.quarantined, 0u);
  EXPECT_NEAR(c.by_strategy.at("Exhaustive").loss_db.mean,
              22.598091839205889, kTol);
  EXPECT_NEAR(c.by_strategy.at("Proposed").loss_db.mean,
              31.45860261840927, kTol);
  EXPECT_NEAR(c.by_strategy.at("Exhaustive").outage_rate, 0.0, kTol);
  EXPECT_NEAR(c.by_strategy.at("Exhaustive").recovery_slots.mean, 1.0,
              kTol);

  const FaultCaseResult& b = rs[1];
  EXPECT_EQ(b.name, "blockage");
  EXPECT_NEAR(b.by_strategy.at("Exhaustive").loss_db.mean,
              32.133841465311875, kTol);
  EXPECT_NEAR(b.by_strategy.at("Proposed").loss_db.mean,
              31.45860261840927, kTol);
  EXPECT_NEAR(b.by_strategy.at("Exhaustive").outage_rate,
              0.66666666666666663, kTol);
  EXPECT_NEAR(b.by_strategy.at("Proposed").outage_rate,
              0.33333333333333331, kTol);
  EXPECT_NEAR(b.by_strategy.at("Exhaustive").recovery_slots.mean,
              3.6666666666666665, kTol);
  EXPECT_NEAR(b.by_strategy.at("Proposed").recovery_slots.mean,
              2.3333333333333335, kTol);
}

TEST(GoldenExtensions, E9ServingTinyRunPinned) {
  serve::ServeConfig cfg;
  cfg.scenario = tiny_scenario();
  cfg.scenario.gamma = 1000.0;
  cfg.scenario.tx_grid_x = 2;
  cfg.scenario.tx_grid_y = 1;
  cfg.scenario.rx_grid_x = 2;
  cfg.scenario.rx_grid_y = 2;
  cfg.topology.cells = 4;
  cfg.initial_sessions = 120;
  cfg.epochs = 6;
  cfg.align_epochs = 2;
  cfg.probes_per_slot = 3;
  cfg.session_block = 16;
  serve::ServingEngine engine(cfg);
  const serve::ServeResult r = engine.run();

  EXPECT_EQ(r.sessions_stepped, 720u);
  ASSERT_EQ(r.epochs.size(), 6u);
  EXPECT_NEAR(r.epochs.back().mean_loss_db, 3.1622759666407232, kTol);
  EXPECT_NEAR(r.epochs.back().p99_loss_db, 28.403470097243488, kTol);
  EXPECT_NEAR(r.loss_p50_db, 0.0, kTol);
  EXPECT_NEAR(r.loss_p99_db, 32.797410344916045, kTol);
  std::uint64_t claims = 0;
  for (const serve::EpochReport& e : r.epochs) claims += e.claims;
  EXPECT_EQ(claims, 133u);
}

TEST(GoldenExtensions, E9ServingWarmMlBlockageTinyRunPinned) {
  // The paper-faithful serving path: every aligning slot runs the shared
  // warm-ML fold, and blockage drives outages so sessions re-enter
  // alignment warm from their resident prior.
  serve::ServeConfig cfg;
  cfg.scenario = tiny_scenario();
  cfg.scenario.gamma = 1000.0;
  cfg.topology.cells = 3;
  cfg.initial_sessions = 48;
  cfg.epochs = 10;
  cfg.align_epochs = 2;
  cfg.probes_per_slot = 4;
  cfg.session_block = 16;
  cfg.estimator = serve::EstimatorKind::kWarmMl;
  cfg.blockage_probability = 0.3;
  serve::ServingEngine engine(cfg);
  const serve::ServeResult r = engine.run();

  EXPECT_EQ(r.sessions_stepped, 480u);
  std::uint64_t aligning = 0, claims = 0, outages = 0, realignments = 0,
                nonconverged = 0;
  for (const serve::EpochReport& e : r.epochs) {
    aligning += e.aligning_steps;
    claims += e.claims;
    outages += e.outages;
    realignments += e.realignments;
    nonconverged += e.estimator_nonconverged;
  }
  EXPECT_EQ(aligning, 169u);
  EXPECT_EQ(claims, 82u);
  EXPECT_EQ(outages, 41u);
  EXPECT_EQ(realignments, 34u);
  EXPECT_EQ(nonconverged, 62u);
  EXPECT_NEAR(r.epochs.back().mean_loss_db, 15.961797273717911, kTol);
  EXPECT_NEAR(r.epochs.back().p99_loss_db, 47.817276642499209, kTol);
  EXPECT_NEAR(r.loss_p50_db, 11.377781742088318, kTol);
  EXPECT_NEAR(r.loss_p99_db, 52.039105858117772, kTol);
}

TEST(GoldenExtensions, E10TrackingMobilityTinyRunPinned) {
  // All four trackers over one mobile population: handovers carry the
  // beam-space state between sites, and shadowing plus blockage force
  // warm-ML outages, so its covariance-directed re-alignment slot runs.
  track::TrackingConfig cfg;
  cfg.scenario = tiny_scenario();
  cfg.scenario.channel = ChannelKind::kNycMultipath;
  cfg.scenario.fades_per_measurement = 4;
  cfg.scenario.gamma = 1000.0;
  cfg.scenario.seed = 20160610;
  cfg.topology.cells = 7;
  cfg.topology.cell_radius_m = 100.0;
  cfg.users = 3;
  cfg.epochs = 16;
  cfg.warmup_epochs = 4;
  cfg.mobility.speed_mps = 15.0;
  cfg.evolution.shadow_sigma_db = 6.0;
  cfg.evolution.blockage_onset_per_meter = 0.05;
  const track::TrackingResult r = track::run_tracking(
      cfg, {track::TrackerKind::kColdStart, track::TrackerKind::kWarmMl,
            track::TrackerKind::kNeighborhood,
            track::TrackerKind::kBanditUcb});

  EXPECT_NEAR(r.handovers_per_user, 0.66666666666666663, kTol);
  ASSERT_EQ(r.trackers.size(), 4u);
  struct Pinned {
    const char* name;
    real mean_loss_db, p99_loss_db, realign_rate, outage_rate;
    std::uint64_t probes_total;
  };
  const Pinned pinned[] = {
      {"cold_start", 1.4520858731392439, 5.7704921157127966, 1.0, 0.0, 3072},
      {"warm_ml", 3.7640895377563743, 19.245209107468856, 0.19444444444444445,
       0.055555555555555552, 286},
      {"neighborhood", 1.1333669321884769, 4.9437811379986769,
       0.055555555555555552, 0.0, 259},
      {"bandit_ucb", 2.2534427677418178, 6.3131921343938515,
       0.30555555555555558, 0.0, 282},
  };
  for (index_t k = 0; k < 4; ++k) {
    const track::TrackerCaseResult& t = r.trackers[k];
    EXPECT_EQ(t.name, pinned[k].name);
    EXPECT_EQ(t.steady_epochs, 36u) << t.name;
    EXPECT_NEAR(t.mean_loss_db, pinned[k].mean_loss_db, kTol) << t.name;
    EXPECT_NEAR(t.p99_loss_db, pinned[k].p99_loss_db, kTol) << t.name;
    EXPECT_NEAR(t.realign_rate, pinned[k].realign_rate, kTol) << t.name;
    EXPECT_NEAR(t.outage_rate, pinned[k].outage_rate, kTol) << t.name;
    EXPECT_EQ(t.probes_total, pinned[k].probes_total) << t.name;
  }
}

}  // namespace
}  // namespace mmw::sim
