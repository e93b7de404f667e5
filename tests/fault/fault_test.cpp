#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mmw::fault {
namespace {

FaultConfig all_faults() {
  FaultConfig c;
  c.blockage_probability = 1.0;
  c.outlier_probability = 0.2;
  c.drop_probability = 0.2;
  c.solver_stress_probability = 0.5;
  return c;
}

TEST(FaultConfigTest, DefaultIsNoOp) {
  const FaultConfig c;
  EXPECT_FALSE(c.any());
  FaultConfig q;
  q.quarantine_trials = true;  // error-handling knob, not an injection
  EXPECT_FALSE(q.any());
}

TEST(FaultConfigTest, AnyDetectsEachKnob) {
  for (int knob = 0; knob < 4; ++knob) {
    FaultConfig c;
    if (knob == 0) c.blockage_probability = 0.5;
    if (knob == 1) c.outlier_probability = 0.5;
    if (knob == 2) c.drop_probability = 0.5;
    if (knob == 3) c.solver_stress_probability = 0.5;
    EXPECT_TRUE(c.any()) << knob;
  }
}

TEST(FaultPlanTest, DefaultPlanIsClean) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.has_blockage());
  EXPECT_FALSE(plan.blockage_active(0));
  EXPECT_FALSE(plan.solve_stressed(0));
  EXPECT_FALSE(plan.slot(0).dropped);
  EXPECT_EQ(plan.slot(0).energy_scale, 1.0);
  EXPECT_TRUE(plan.path_power_scale().empty());
}

TEST(FaultPlanTest, DrawIsAPureFunctionOfSeedEntityTrial) {
  const FaultConfig config = all_faults();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    randgen::Rng a = fault_stream(123, 7, trial);
    randgen::Rng b = fault_stream(123, 7, trial);
    const FaultPlan pa = FaultPlan::draw(config, 50, 3, a);
    const FaultPlan pb = FaultPlan::draw(config, 50, 3, b);
    EXPECT_EQ(pa.blockage_onset(), pb.blockage_onset());
    for (index_t i = 0; i < 50; ++i) {
      EXPECT_EQ(pa.slot(i).dropped, pb.slot(i).dropped);
      EXPECT_EQ(pa.slot(i).energy_scale, pb.slot(i).energy_scale);
    }
    for (index_t k = 0; k < 100; ++k)
      EXPECT_EQ(pa.solve_stressed(k), pb.solve_stressed(k));
    ASSERT_EQ(pa.path_power_scale().size(), pb.path_power_scale().size());
    for (index_t l = 0; l < pa.path_power_scale().size(); ++l)
      EXPECT_EQ(pa.path_power_scale()[l], pb.path_power_scale()[l]);
  }
}

TEST(FaultPlanTest, EntitiesAndTrialsAreIndependentStreams) {
  const FaultConfig config = all_faults();
  randgen::Rng a = fault_stream(9, 0, 0);
  randgen::Rng b = fault_stream(9, 1, 0);
  randgen::Rng c = fault_stream(9, 0, 1);
  const FaultPlan pa = FaultPlan::draw(config, 64, 4, a);
  const FaultPlan pb = FaultPlan::draw(config, 64, 4, b);
  const FaultPlan pc = FaultPlan::draw(config, 64, 4, c);
  // Not a hard guarantee per-field, but three independent streams agreeing
  // on the whole schedule would be astronomically unlikely.
  auto fingerprint = [](const FaultPlan& p) {
    real acc = static_cast<real>(p.blockage_onset());
    for (index_t i = 0; i < 64; ++i)
      acc += p.slot(i).energy_scale + (p.slot(i).dropped ? 1000.0 : 0.0);
    for (index_t k = 0; k < 128; ++k) acc += p.solve_stressed(k) ? 7.0 : 0.0;
    return acc;
  };
  EXPECT_NE(fingerprint(pa), fingerprint(pb));
  EXPECT_NE(fingerprint(pa), fingerprint(pc));
}

TEST(FaultPlanTest, ScheduleIndependentOfOtherFaultToggles) {
  // The fixed draw order means toggling the outlier knob must not move the
  // drop schedule or the blockage onset (and vice versa).
  FaultConfig with = all_faults();
  FaultConfig without = with;
  without.outlier_probability = 0.0;
  randgen::Rng a = fault_stream(42, 0, 0);
  randgen::Rng b = fault_stream(42, 0, 0);
  const FaultPlan pa = FaultPlan::draw(with, 80, 3, a);
  const FaultPlan pb = FaultPlan::draw(without, 80, 3, b);
  EXPECT_EQ(pa.blockage_onset(), pb.blockage_onset());
  for (index_t i = 0; i < 80; ++i)
    EXPECT_EQ(pa.slot(i).dropped, pb.slot(i).dropped) << i;
  for (index_t k = 0; k < 160; ++k)
    EXPECT_EQ(pa.solve_stressed(k), pb.solve_stressed(k)) << k;
}

TEST(FaultPlanTest, BlockageOnsetWithinBudgetAndScalesValid) {
  FaultConfig config;
  config.blockage_probability = 1.0;
  for (std::uint64_t t = 0; t < 20; ++t) {
    randgen::Rng rng = fault_stream(5, 0, t);
    const FaultPlan plan = FaultPlan::draw(config, 40, 5, rng);
    ASSERT_TRUE(plan.has_blockage());
    EXPECT_LE(plan.blockage_onset(), 40u);
    EXPECT_TRUE(plan.blockage_active(40));
    ASSERT_EQ(plan.path_power_scale().size(), 5u);
    bool any_shadowed = false;
    for (const real s : plan.path_power_scale()) {
      EXPECT_GT(s, 0.0);
      EXPECT_LE(s, 1.0);
      if (s < 1.0) any_shadowed = true;
    }
    EXPECT_TRUE(any_shadowed);  // at least one path always shadowed
  }
}

TEST(FaultPlanTest, ZeroProbabilitiesDrawCleanSchedule) {
  FaultConfig config;
  config.quarantine_trials = true;  // quarantine alone injects nothing
  randgen::Rng rng = fault_stream(1, 0, 0);
  const FaultPlan plan = FaultPlan::draw(config, 30, 2, rng);
  EXPECT_FALSE(plan.has_blockage());
  for (index_t i = 0; i < 30; ++i) {
    EXPECT_FALSE(plan.slot(i).dropped);
    EXPECT_EQ(plan.slot(i).energy_scale, 1.0);
  }
  for (index_t k = 0; k < 60; ++k) EXPECT_FALSE(plan.solve_stressed(k));
}

TEST(FaultPlanTest, OutlierScaleRespectsPareto) {
  FaultConfig config;
  config.outlier_probability = 1.0;
  randgen::Rng rng = fault_stream(11, 0, 0);
  const FaultPlan plan = FaultPlan::draw(config, 200, 1, rng);
  for (index_t i = 0; i < 200; ++i)
    EXPECT_GE(plan.slot(i).energy_scale, config.outlier_scale) << i;
}

TEST(FaultPlanTest, DrawValidatesProbabilities) {
  FaultConfig bad;
  bad.drop_probability = 1.5;
  randgen::Rng rng = fault_stream(1, 0, 0);
  EXPECT_THROW(FaultPlan::draw(bad, 10, 1, rng), precondition_error);
}

TEST(FaultPlanTest, ScriptedPlanRoundTrips) {
  std::vector<SlotFault> slots(4);
  slots[1].dropped = true;
  slots[2].energy_scale = 25.0;
  const FaultPlan plan = FaultPlan::scripted(
      slots, /*blockage_onset=*/2, {0.01, 1.0}, {false, true, false});
  EXPECT_TRUE(plan.slot(1).dropped);
  EXPECT_EQ(plan.slot(2).energy_scale, 25.0);
  EXPECT_FALSE(plan.slot(99).dropped);  // beyond schedule: clean
  EXPECT_TRUE(plan.has_blockage());
  EXPECT_FALSE(plan.blockage_active(1));
  EXPECT_TRUE(plan.blockage_active(2));
  EXPECT_TRUE(plan.solve_stressed(1));
  EXPECT_FALSE(plan.solve_stressed(2));
  EXPECT_FALSE(plan.solve_stressed(99));
}

}  // namespace
}  // namespace mmw::fault
