// Quarantine + fault-robustness determinism: a trial that throws under
// faults.quarantine_trials must be excluded IDENTICALLY at every thread
// count by every experiment built on the trial scaffold (sim/scenario.h), and
// the E8 robustness matrix must render byte-identical CSVs serial and
// parallel. See DESIGN.md §11.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/obs.h"
#include "sim/experiments.h"
#include "sim/multicell.h"
#include "sim/robustness.h"

namespace mmw::sim {
namespace {

Scenario tiny_scenario(index_t threads) {
  Scenario sc;
  sc.channel = ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.trials = 10;
  sc.seed = 20160401;
  sc.threads = threads;
  return sc;
}

/// Measures the full pair grid in raster order, but throws convergence_error
/// when the first training slot was dropped by the fault plan. The throw is
/// a pure function of (seed, trial) — the same trials fail at every thread
/// count — which is exactly the property the quarantine tests pin down.
class DropSensitiveSearch final : public core::AlignmentStrategy {
 public:
  std::string_view name() const override { return "DropSensitive"; }
  void run(mac::Session& session) const override {
    for (index_t t = 0;
         t < session.tx_codebook().size() && !session.exhausted(); ++t)
      for (index_t r = 0;
           r < session.rx_codebook().size() && !session.exhausted(); ++r) {
        session.measure(t, r);
        if (session.records().size() == 1 &&
            session.records().front().energy == 0.0)
          throw convergence_error("first training slot dropped");
      }
  }
};

/// Always throws before measuring anything.
class AlwaysThrowSearch final : public core::AlignmentStrategy {
 public:
  std::string_view name() const override { return "AlwaysThrow"; }
  void run(mac::Session&) const override {
    throw convergence_error("always fails");
  }
};

TEST(QuarantineTest, FailedTrialsExcludedIdenticallyAcrossThreadCounts) {
  const std::vector<real> rates{0.25, 0.75};
  DropSensitiveSearch fragile;
  core::ScanSearch scan;
  const std::vector<const core::AlignmentStrategy*> strategies{&fragile,
                                                               &scan};
  auto run = [&](index_t threads) {
    Scenario sc = tiny_scenario(threads);
    sc.faults.drop_probability = 0.4;
    sc.faults.quarantine_trials = true;
    return run_search_effectiveness(sc, strategies, rates);
  };
  const EffectivenessResult serial = run(1);
  // The drop coin lands heads for SOME first slots but not all: the
  // quarantine set is non-empty and non-total (a seed-dependent fact this
  // test pins; if the seed changes, pick one with a mixed outcome).
  ASSERT_FALSE(serial.quarantined_trials.empty());
  ASSERT_LT(serial.quarantined_trials.size(), tiny_scenario(1).trials);
  for (const auto& [name, summaries] : serial.loss_db)
    for (const Summary& s : summaries)
      EXPECT_EQ(s.count,
                tiny_scenario(1).trials - serial.quarantined_trials.size())
          << name;

  for (const index_t threads : {index_t{2}, index_t{8}}) {
    const EffectivenessResult parallel = run(threads);
    EXPECT_EQ(serial.quarantined_trials, parallel.quarantined_trials);
    EXPECT_EQ(
        render_csv("search_rate", serial.search_rates, serial.loss_db),
        render_csv("search_rate", parallel.search_rates, parallel.loss_db));
  }

  // run_cost_efficiency shares the scaffold: the same containment.
  const std::vector<real> targets{6.0, 3.0};
  auto run_cost = [&](index_t threads) {
    Scenario sc = tiny_scenario(threads);
    sc.faults.drop_probability = 0.4;
    sc.faults.quarantine_trials = true;
    return run_cost_efficiency(sc, strategies, targets);
  };
  const CostEfficiencyResult cost_serial = run_cost(1);
  ASSERT_FALSE(cost_serial.quarantined_trials.empty());
  ASSERT_LT(cost_serial.quarantined_trials.size(), tiny_scenario(1).trials);
  for (const auto& [name, summaries] : cost_serial.required_rate)
    for (const Summary& s : summaries)
      EXPECT_EQ(s.count, tiny_scenario(1).trials -
                             cost_serial.quarantined_trials.size())
          << name;
  for (const index_t threads : {index_t{2}, index_t{8}}) {
    const CostEfficiencyResult parallel = run_cost(threads);
    EXPECT_EQ(cost_serial.quarantined_trials, parallel.quarantined_trials);
    EXPECT_EQ(render_csv("target_loss_db", targets, cost_serial.required_rate),
              render_csv("target_loss_db", targets, parallel.required_rate));
  }
}

TEST(QuarantineTest, FailureAtOneThreadDumpsFlightRecorderOnce) {
  // The flight-recorder snapshot of a quarantined failure must not depend
  // on the thread count: a one-thread run dispatches inline and still
  // leaves exactly one trace of its poisoned trials.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mmw_sim_flight_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::FlightRecorder::global().set_dump_directory(dir.string());
  const std::uint64_t dumps_before =
      obs::FlightRecorder::global().dump_count();

  DropSensitiveSearch fragile;
  Scenario sc = tiny_scenario(1);
  sc.faults.drop_probability = 0.4;
  sc.faults.quarantine_trials = true;
  const EffectivenessResult r = run_search_effectiveness(sc, {&fragile}, {0.5});
  const std::uint64_t dumps = obs::FlightRecorder::global().dump_count();

  obs::FlightRecorder::global().set_dump_directory("bench_results");
  obs::set_enabled(was_enabled);
  fs::remove_all(dir);
  ASSERT_FALSE(r.quarantined_trials.empty());
  EXPECT_EQ(dumps, dumps_before + 1);
}

TEST(QuarantineTest, WithoutQuarantineTheSameFailurePropagates) {
  const std::vector<real> rates{0.5};
  DropSensitiveSearch fragile;
  Scenario sc = tiny_scenario(3);
  sc.faults.drop_probability = 0.4;  // same drops, but no quarantine
  EXPECT_THROW(run_search_effectiveness(sc, {&fragile}, rates),
               convergence_error);
}

TEST(QuarantineTest, AllTrialsFailingIsAnError) {
  AlwaysThrowSearch bad;
  Scenario sc = tiny_scenario(2);
  sc.trials = 3;
  sc.faults.quarantine_trials = true;
  EXPECT_THROW(run_search_effectiveness(sc, {&bad}, {0.5}),
               precondition_error);
}

/// 3 cells × 2 users × 3 trials = 9 (cell × trial) shards under drops and
/// quarantine.
MultiCellConfig tiny_multicell(index_t threads) {
  MultiCellConfig config;
  config.topology.cells = 3;
  config.topology.users_per_cell = 2;
  config.scenario = tiny_scenario(threads);
  config.scenario.trials = 3;
  config.scenario.faults.drop_probability = 0.4;
  config.scenario.faults.quarantine_trials = true;
  return config;
}

TEST(QuarantineTest, MulticellShardsExcludedIdenticallyAcrossThreadCounts) {
  DropSensitiveSearch fragile;
  core::ScanSearch scan;
  const std::vector<const core::AlignmentStrategy*> strategies{&fragile,
                                                               &scan};
  const MultiCellResult serial = run_multicell(tiny_multicell(1), strategies);
  // Some shards hold a user whose first slot dropped, some do not (a
  // seed-dependent fact, as in the single-link test above).
  ASSERT_FALSE(serial.quarantined_shards.empty());
  ASSERT_LT(serial.quarantined_shards.size(), 9u);
  EXPECT_EQ(serial.sessions_per_strategy,
            (9 - serial.quarantined_shards.size()) * 2);
  for (const auto& [name, s] : serial.loss_db)
    EXPECT_EQ(s.count, serial.sessions_per_strategy) << name;
  const std::string csv = render_multicell_csv("cells", {3}, {serial});
  for (const index_t threads : {index_t{3}, index_t{8}}) {
    const MultiCellResult parallel =
        run_multicell(tiny_multicell(threads), strategies);
    EXPECT_EQ(serial.quarantined_shards, parallel.quarantined_shards);
    EXPECT_EQ(csv, render_multicell_csv("cells", {3}, {parallel}));
  }
}

TEST(QuarantineTest, MulticellAllShardsFailingIsAnError) {
  AlwaysThrowSearch bad;
  EXPECT_THROW(run_multicell(tiny_multicell(2), {&bad}), precondition_error);
}

TEST(RobustnessMatrixTest, CsvByteIdenticalAcrossThreadCounts) {
  core::RandomSearch rnd;
  core::ScanSearch scan;
  const std::vector<const core::AlignmentStrategy*> strategies{&rnd, &scan};

  std::vector<FaultCase> cases(3);
  cases[0].name = "clean";
  cases[1].name = "drops";
  cases[1].faults.drop_probability = 0.2;
  cases[2].name = "blockage";
  cases[2].faults.blockage_probability = 1.0;

  auto run = [&](index_t threads,
                 const std::vector<const core::AlignmentStrategy*>& runs,
                 const std::vector<FaultCase>& matrix) {
    Scenario sc = tiny_scenario(threads);
    sc.trials = 6;
    return run_fault_robustness(sc, runs, matrix);
  };
  const auto serial = run(1, strategies, cases);
  ASSERT_EQ(serial.size(), 3u);
  const std::string csv = render_robustness_csv(serial);
  EXPECT_EQ(csv, render_robustness_csv(run(3, strategies, cases)));

  // A drops + quarantine case run by DropSensitiveSearch: the trials whose
  // first slot dropped are excluded, the same ones at every thread count.
  DropSensitiveSearch fragile;
  const std::vector<const core::AlignmentStrategy*> fragile_runs{&fragile,
                                                                 &scan};
  std::vector<FaultCase> quarantine_case(1);
  quarantine_case[0].name = "drops_quarantined";
  quarantine_case[0].faults.drop_probability = 0.4;
  quarantine_case[0].faults.quarantine_trials = true;
  const auto contained = run(1, fragile_runs, quarantine_case);
  ASSERT_GT(contained[0].quarantined, 0u);
  ASSERT_LT(contained[0].quarantined, 6u);
  for (const auto& [name, r] : contained[0].by_strategy)
    EXPECT_EQ(r.trials, 6u - contained[0].quarantined) << name;
  for (const index_t threads : {index_t{3}, index_t{8}}) {
    const auto parallel = run(threads, fragile_runs, quarantine_case);
    EXPECT_EQ(parallel[0].quarantined, contained[0].quarantined);
    EXPECT_EQ(render_robustness_csv(parallel),
              render_robustness_csv(contained));
  }

  // A static link with no faults cannot collapse post-training: the clean
  // column must report zero outages and spend exactly one verify slot.
  for (const auto& [name, r] : serial[0].by_strategy) {
    EXPECT_EQ(r.outage_rate, 0.0) << name;
    EXPECT_EQ(r.recovery_slots.mean, 1.0) << name;
    EXPECT_EQ(r.trials, 6u) << name;
  }
  EXPECT_EQ(serial[0].quarantined, 0u);
  // A guaranteed 25 dB blockage makes the verified energy collapse against
  // a clean-slot trained best whenever the onset lands late in training, so
  // across strategies the re-alignment machinery must engage: outages
  // declared, extra recovery slots spent beyond the single verify probe.
  // (Whether a SPECIFIC strategy hits a late onset is seed luck, so the
  // assertion aggregates.)
  real blockage_outages = 0.0, blockage_slots = 0.0, clean_slots = 0.0;
  for (const auto& [name, r] : serial[2].by_strategy) {
    blockage_outages += r.outage_rate;
    blockage_slots += r.recovery_slots.mean;
  }
  for (const auto& [name, r] : serial[0].by_strategy)
    clean_slots += r.recovery_slots.mean;
  EXPECT_GT(blockage_outages, 0.0);
  EXPECT_GT(blockage_slots, clean_slots);
}

}  // namespace
}  // namespace mmw::sim
