#include "sim/experiments.h"

#include <gtest/gtest.h>

namespace mmw::sim {
namespace {

Scenario tiny_scenario() {
  Scenario sc;
  sc.channel = ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.trials = 4;
  sc.seed = 9;
  return sc;
}

TEST(ScenarioTest, TotalPairs) {
  EXPECT_EQ(tiny_scenario().total_pairs(), 64u);
  Scenario paper;  // defaults
  EXPECT_EQ(paper.total_pairs(), 1024u);
}

TEST(ScenarioTest, MakeTrialShapes) {
  const Scenario sc = tiny_scenario();
  randgen::Rng rng(1);
  const TrialContext ctx = make_trial(sc, rng);
  EXPECT_EQ(ctx.link.tx_size(), 4u);
  EXPECT_EQ(ctx.link.rx_size(), 16u);
  EXPECT_EQ(ctx.tx_codebook.size(), 4u);
  EXPECT_EQ(ctx.rx_codebook.size(), 16u);
  EXPECT_GT(ctx.oracle.optimal_gain(), 0.0);
}

TEST(ScenarioTest, DftCodebookOption) {
  Scenario sc = tiny_scenario();
  sc.codebook = CodebookKind::kDft;
  randgen::Rng rng(1);
  const TrialContext ctx = make_trial(sc, rng);
  EXPECT_TRUE(ctx.rx_codebook.wraps());  // DFT wraps; angular grid doesn't
}

TEST(ScenarioTest, MultipathChannelOption) {
  Scenario sc = tiny_scenario();
  sc.channel = ChannelKind::kNycMultipath;
  randgen::Rng rng(2);
  const TrialContext ctx = make_trial(sc, rng);
  EXPECT_GE(ctx.link.paths().size(), channel::NycClusterParams::subpaths_per_cluster);
}

TEST(EffectivenessTest, ProducesSummariesForEveryRateAndStrategy) {
  const Scenario sc = tiny_scenario();
  core::RandomSearch rnd;
  core::ScanSearch scan;
  const std::vector<const core::AlignmentStrategy*> strats{&rnd, &scan};
  const std::vector<real> rates{0.1, 0.3, 0.6};
  const auto res = run_search_effectiveness(sc, strats, rates);
  EXPECT_EQ(res.search_rates, rates);
  ASSERT_EQ(res.loss_db.size(), 2u);
  for (const auto& [name, row] : res.loss_db) {
    ASSERT_EQ(row.size(), rates.size());
    for (const auto& s : row) {
      EXPECT_EQ(s.count, sc.trials);
      EXPECT_GE(s.mean, 0.0);
    }
  }
}

TEST(EffectivenessTest, LossDecreasesWithMoreBudgetForRandom) {
  Scenario sc = tiny_scenario();
  sc.trials = 12;
  core::RandomSearch rnd;
  const std::vector<real> rates{0.05, 1.0};
  const auto res =
      run_search_effectiveness(sc, {&rnd}, rates);
  const auto& row = res.loss_db.at("Random");
  EXPECT_LE(row[1].mean, row[0].mean);
}

TEST(EffectivenessTest, FullRateLossIsSmall) {
  // At 100% search rate with fade averaging the claimed pair is (near)
  // optimal — the paper's "no loss at 100%" premise.
  Scenario sc = tiny_scenario();
  sc.trials = 8;
  sc.fades_per_measurement = 64;
  core::RandomSearch rnd;
  const auto res = run_search_effectiveness(sc, {&rnd}, {1.0});
  EXPECT_LT(res.loss_db.at("Random")[0].mean, 0.5);
}

TEST(EffectivenessTest, InputValidation) {
  const Scenario sc = tiny_scenario();
  core::RandomSearch rnd;
  EXPECT_THROW(run_search_effectiveness(sc, {}, {0.5}), precondition_error);
  EXPECT_THROW(run_search_effectiveness(sc, {&rnd}, {}), precondition_error);
  EXPECT_THROW(run_search_effectiveness(sc, {&rnd}, {0.5, 0.1}),
               precondition_error);
  EXPECT_THROW(run_search_effectiveness(sc, {&rnd}, {0.0}),
               precondition_error);
  EXPECT_THROW(run_search_effectiveness(sc, {&rnd}, {1.5}),
               precondition_error);
}

TEST(EffectivenessTest, Reproducible) {
  const Scenario sc = tiny_scenario();
  core::RandomSearch rnd;
  const auto a = run_search_effectiveness(sc, {&rnd}, {0.2});
  const auto b = run_search_effectiveness(sc, {&rnd}, {0.2});
  EXPECT_DOUBLE_EQ(a.loss_db.at("Random")[0].mean,
                   b.loss_db.at("Random")[0].mean);
}

TEST(CostEfficiencyTest, RequiredRateDecreasesWithLooserTarget) {
  Scenario sc = tiny_scenario();
  sc.trials = 10;
  core::RandomSearch rnd;
  const std::vector<real> targets{3.0, 1.0};  // 3 dB is easier than 1 dB
  const auto res = run_cost_efficiency(sc, {&rnd}, targets);
  const auto& row = res.required_rate.at("Random");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_LE(row[0].mean, row[1].mean);
  for (const auto& s : row) {
    EXPECT_GT(s.mean, 0.0);
    EXPECT_LE(s.mean, 1.0);
  }
}

TEST(CostEfficiencyTest, InputValidation) {
  const Scenario sc = tiny_scenario();
  core::RandomSearch rnd;
  EXPECT_THROW(run_cost_efficiency(sc, {}, {1.0}), precondition_error);
  EXPECT_THROW(run_cost_efficiency(sc, {&rnd}, {}), precondition_error);
}

TEST(RenderTest, TableContainsAllSeries) {
  std::map<std::string, std::vector<Summary>> series;
  const real xs_arr[] = {1.0, 2.0};
  std::vector<real> xs(xs_arr, xs_arr + 2);
  const real a_vals[] = {0.5, 0.25};
  series["A"] = {summarize({a_vals, 1}), summarize({a_vals + 1, 1})};
  const std::string table = render_table("x", xs, series);
  EXPECT_NE(table.find("A"), std::string::npos);
  EXPECT_NE(table.find("0.500"), std::string::npos);
  const std::string csv = render_csv("x", xs, series);
  EXPECT_NE(csv.find("x,A"), std::string::npos);
}

TEST(RenderTest, LengthMismatchThrows) {
  std::map<std::string, std::vector<Summary>> series;
  const real v[] = {1.0};
  series["A"] = {summarize(v)};
  const std::vector<real> xs{1.0, 2.0};
  EXPECT_THROW(render_table("x", xs, series), precondition_error);
  EXPECT_THROW(render_csv("x", xs, series), precondition_error);
}

}  // namespace
}  // namespace mmw::sim
