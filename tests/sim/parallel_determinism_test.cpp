// The determinism contract of the parallel Monte-Carlo drivers: for a fixed
// master seed, serial (threads = 1) and parallel (threads = 2, N) runs must
// produce byte-identical rendered CSV output. See DESIGN.md §7.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/experiments.h"

namespace mmw::sim {
namespace {

Scenario tiny_scenario(index_t threads) {
  Scenario sc;
  sc.channel = ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.trials = 6;
  sc.seed = 20160707;
  sc.threads = threads;
  return sc;
}

std::string effectiveness_csv(const Scenario& sc,
                              const std::vector<real>& rates) {
  core::RandomSearch rnd;
  core::ScanSearch scan;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &rnd, &scan, &proposed};
  const auto res = run_search_effectiveness(sc, strategies, rates);
  return render_csv("search_rate", res.search_rates, res.loss_db);
}

std::string cost_csv(const Scenario& sc, const std::vector<real>& targets) {
  core::RandomSearch rnd;
  core::ScanSearch scan;
  const std::vector<const core::AlignmentStrategy*> strategies{&rnd, &scan};
  const auto res = run_cost_efficiency(sc, strategies, targets);
  return render_csv("target_loss_db", res.target_loss_db, res.required_rate);
}

TEST(ParallelDeterminismTest, EffectivenessCsvIdenticalAcrossThreadCounts) {
  const std::vector<real> rates{0.1, 0.3, 0.6, 1.0};
  const std::string serial = effectiveness_csv(tiny_scenario(1), rates);
  EXPECT_EQ(serial, effectiveness_csv(tiny_scenario(2), rates));
  EXPECT_EQ(serial, effectiveness_csv(tiny_scenario(5), rates));
  // threads = 0 resolves to hardware concurrency — still identical.
  EXPECT_EQ(serial, effectiveness_csv(tiny_scenario(0), rates));
}

TEST(ParallelDeterminismTest, CostCsvIdenticalAcrossThreadCounts) {
  const std::vector<real> targets{6.0, 3.0, 1.0};
  const std::string serial = cost_csv(tiny_scenario(1), targets);
  EXPECT_EQ(serial, cost_csv(tiny_scenario(2), targets));
  EXPECT_EQ(serial, cost_csv(tiny_scenario(5), targets));
  EXPECT_EQ(serial, cost_csv(tiny_scenario(0), targets));
}

TEST(ParallelDeterminismTest, FullSummariesIdenticalNotJustMeans) {
  // render_csv only prints means; compare every Summary field so a race
  // that only perturbs higher moments cannot hide.
  core::RandomSearch rnd;
  const std::vector<const core::AlignmentStrategy*> strategies{&rnd};
  const std::vector<real> rates{0.2, 0.8};
  const auto a = run_search_effectiveness(tiny_scenario(1), strategies, rates);
  const auto b = run_search_effectiveness(tiny_scenario(4), strategies, rates);
  const auto& ra = a.loss_db.at("Random");
  const auto& rb = b.loss_db.at("Random");
  ASSERT_EQ(ra.size(), rb.size());
  for (index_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].count, rb[i].count);
    EXPECT_EQ(ra[i].mean, rb[i].mean);          // bit-exact, not near
    EXPECT_EQ(ra[i].stddev, rb[i].stddev);
    EXPECT_EQ(ra[i].minimum, rb[i].minimum);
    EXPECT_EQ(ra[i].maximum, rb[i].maximum);
    EXPECT_EQ(ra[i].median, rb[i].median);
  }
}

TEST(ParallelDeterminismTest, MoreThreadsThanTrialsIsFine) {
  Scenario sc = tiny_scenario(16);
  sc.trials = 3;
  Scenario sc1 = tiny_scenario(1);
  sc1.trials = 3;
  const std::vector<real> rates{0.5};
  EXPECT_EQ(effectiveness_csv(sc1, rates), effectiveness_csv(sc, rates));
}

TEST(ParallelDeterminismTest, TrialStreamsAreSeedAndIndexKeyed) {
  // Rng::stream must not depend on call order or shared state.
  randgen::Rng a = randgen::Rng::stream(42, 7);
  randgen::Rng b = randgen::Rng::stream(42, 7);
  EXPECT_EQ(a.engine()(), b.engine()());
  randgen::Rng c = randgen::Rng::stream(42, 8);
  randgen::Rng d = randgen::Rng::stream(43, 7);
  const std::uint64_t ref = randgen::Rng::stream(42, 7).engine()();
  EXPECT_NE(c.engine()(), ref);
  EXPECT_NE(d.engine()(), ref);
}

TEST(ParallelDeterminismTest, InstrumentationDoesNotPerturbResults) {
  // The observability layer only observes: CSVs must be byte-identical with
  // metrics+tracing fully on and fully off, serial and parallel alike.
  const std::vector<real> rates{0.1, 0.4, 1.0};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  const std::string bare_serial = effectiveness_csv(tiny_scenario(1), rates);
  const std::string bare_parallel =
      effectiveness_csv(tiny_scenario(4), rates);

  obs::set_enabled(true);
  obs::TraceCollector::global().set_capturing(true);
  const std::string obs_serial = effectiveness_csv(tiny_scenario(1), rates);
  const std::string obs_parallel =
      effectiveness_csv(tiny_scenario(4), rates);
  EXPECT_GT(obs::TraceCollector::global().event_count(), 0u);
  obs::TraceCollector::global().set_capturing(false);
  obs::TraceCollector::global().clear();
  obs::set_enabled(was_enabled);

  EXPECT_EQ(bare_serial, bare_parallel);
  EXPECT_EQ(bare_serial, obs_serial);
  EXPECT_EQ(bare_serial, obs_parallel);
}

TEST(ParallelDeterminismTest, SolverMetricsIdenticalAcrossThreadCounts) {
  // Counter/histogram merges are integer sums in a deterministic shard
  // order, so a fixed seed yields the same solver metrics at any thread
  // count — the property run manifests rely on.
  const std::vector<real> rates{0.3, 0.8};
  const bool was_enabled = obs::enabled();
  const auto solve_metrics = [&](index_t threads) {
    obs::Registry::global().reset();
    obs::set_enabled(true);
    (void)effectiveness_csv(tiny_scenario(threads), rates);
    obs::set_enabled(false);
    const auto snap = obs::Registry::global().snapshot();
    std::string out;
    for (const char* name :
         {"estimation.ml.solves", "estimation.ml.nonconverged",
          "estimation.nll_evals", "linalg.eig.ql_calls",
          "mac.session.measurements", "sim.trials"}) {
      out += name;
      out += '=';
      out += std::to_string(snap.counters.at(name).value);
      out += '\n';
    }
    return out;
  };
  const std::string serial = solve_metrics(1);
  EXPECT_EQ(serial, solve_metrics(3));
  EXPECT_NE(serial.find("estimation.ml.solves="), std::string::npos);
  obs::Registry::global().reset();
  obs::set_enabled(was_enabled);
}

// The kernel tiers' bit-exactness contract (DESIGN.md §12) on a real
// strategy run: a small fig5 sweep (the paper scenario, Random, Scan and
// Proposed, one thread) renders the same CSV bytes under both tiers.
class KernelTierDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!linalg::kernels::cpu_supports_avx2())
      GTEST_SKIP() << "CPU/build has no AVX2 tier to compare against";
  }
  void TearDown() override { linalg::kernels::reset_tier_for_testing(); }
};

TEST_F(KernelTierDeterminismTest, Fig5SweepCsvIdenticalAcrossTiers) {
  Scenario sc;  // the paper's setup: M = 16, N = 64, T = 1024
  sc.trials = 3;
  sc.seed = 2016;
  sc.threads = 1;
  const std::vector<real> rates{0.02, 0.05, 0.08, 0.12, 0.16,
                                0.20, 0.25, 0.30, 0.35};
  linalg::kernels::force_tier_for_testing(linalg::kernels::Tier::kScalar);
  const std::string scalar = effectiveness_csv(sc, rates);
  linalg::kernels::force_tier_for_testing(linalg::kernels::Tier::kAvx2);
  EXPECT_EQ(scalar, effectiveness_csv(sc, rates));
}

TEST(ParallelDeterminismTest, ExceptionInsideTrialPropagates) {
  // A bad per-rate value is only validated inside the trial body; the
  // pool must surface the precondition_error, not swallow or crash.
  Scenario sc = tiny_scenario(3);
  core::RandomSearch rnd;
  EXPECT_THROW(
      run_search_effectiveness(sc, {&rnd}, {0.0, 0.5}),
      precondition_error);
}

}  // namespace
}  // namespace mmw::sim
