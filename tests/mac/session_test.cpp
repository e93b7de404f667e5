#include "mac/session.h"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/models.h"
#include "channel/temporal.h"

namespace mmw::mac {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using channel::Link;
using randgen::Rng;

struct Fixture {
  ArrayGeometry tx = ArrayGeometry::upa(2, 2);
  ArrayGeometry rx = ArrayGeometry::upa(4, 4);
  Link link;
  Codebook tx_cb = Codebook::dft(tx);
  Codebook rx_cb = Codebook::dft(rx);
  Rng rng{7};

  Fixture()
      : link(tx, rx, {channel::Path{1.0, {0.2, 0.1}, {-0.3, 0.0}}}) {}

  Session session(real gamma = 10.0, index_t budget = 64,
                  index_t fades = 1) {
    return Session(link, tx_cb, rx_cb, gamma, budget, rng, fades);
  }
};

TEST(SessionTest, ConstructionValidation) {
  Fixture f;
  EXPECT_THROW(Session(f.link, f.tx_cb, f.rx_cb, 0.0, 10, f.rng),
               precondition_error);
  EXPECT_THROW(Session(f.link, f.tx_cb, f.rx_cb, 10.0, 0, f.rng),
               precondition_error);
  EXPECT_THROW(Session(f.link, f.tx_cb, f.rx_cb, 10.0, 10, f.rng, 0),
               precondition_error);
  // RX codebook on the TX array: dimension mismatch.
  EXPECT_THROW(Session(f.link, f.rx_cb, f.rx_cb, 10.0, 10, f.rng),
               precondition_error);
}

TEST(SessionTest, BudgetClampedToPairCount) {
  Fixture f;
  Session s = f.session(10.0, /*budget=*/100000);
  EXPECT_EQ(s.budget(), 4u * 16u);
}

TEST(SessionTest, MeasureConsumesBudget) {
  Fixture f;
  Session s = f.session(10.0, 3);
  EXPECT_EQ(s.remaining_budget(), 3u);
  s.measure(0, 0);
  s.measure(0, 1);
  EXPECT_EQ(s.measurements_taken(), 2u);
  EXPECT_EQ(s.remaining_budget(), 1u);
  EXPECT_FALSE(s.exhausted());
  s.measure(1, 0);
  EXPECT_TRUE(s.exhausted());
  EXPECT_THROW(s.measure(1, 1), precondition_error);
}

TEST(SessionTest, RepeatMeasurementThrows) {
  Fixture f;
  Session s = f.session();
  s.measure(2, 5);
  EXPECT_TRUE(s.has_measured(2, 5));
  EXPECT_FALSE(s.has_measured(3, 2));
  EXPECT_THROW(s.measure(2, 5), precondition_error);
}

TEST(SessionTest, IndexValidation) {
  Fixture f;
  Session s = f.session();
  EXPECT_THROW(s.has_measured(4, 0), precondition_error);
  EXPECT_THROW(s.has_measured(0, 16), precondition_error);
}

TEST(SessionTest, RecordsPreserveOrder) {
  Fixture f;
  Session s = f.session();
  s.measure(1, 2);
  s.measure(3, 4);
  ASSERT_EQ(s.records().size(), 2u);
  EXPECT_EQ(s.records()[0].tx_beam, 1u);
  EXPECT_EQ(s.records()[0].rx_beam, 2u);
  EXPECT_EQ(s.records()[1].tx_beam, 3u);
}

TEST(SessionTest, BestMeasuredTracksMaxEnergy) {
  Fixture f;
  Session s = f.session();
  EXPECT_FALSE(s.best_measured().has_value());
  s.measure(0, 0);
  s.measure(1, 7);
  s.measure(2, 3);
  const auto best = s.best_measured();
  ASSERT_TRUE(best.has_value());
  real max_e = 0.0;
  for (const auto& r : s.records()) max_e = std::max(max_e, r.energy);
  EXPECT_EQ(best->energy, max_e);
}

TEST(SessionTest, MeasuredEnergyIsNonNegative) {
  Fixture f;
  Session s = f.session();
  for (index_t t = 0; t < 4; ++t)
    for (index_t r = 0; r < 4; ++r) EXPECT_GE(s.measure(t, r), 0.0);
}

TEST(SessionTest, EnergiesMatchExpectedMean) {
  // Average measured energy over many pairs-with-same-beams sessions must
  // match λ = vᴴ Q_u v + 1/γ.
  Fixture f;
  const real gamma = 5.0;
  const auto& u = f.tx_cb.codeword(1);
  const auto& v = f.rx_cb.codeword(3);
  const real lambda =
      linalg::hermitian_form(v, f.link.rx_covariance_for_beam(u)) +
      1.0 / gamma;
  real acc = 0.0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    Session s(f.link, f.tx_cb, f.rx_cb, gamma, 1, f.rng);
    acc += s.measure(1, 3);
  }
  EXPECT_NEAR(acc / trials / lambda, 1.0, 0.1);
}

TEST(SessionTest, FadeAveragingReducesVariance) {
  Fixture f;
  const real gamma = 5.0;
  auto sample_var = [&](index_t fades) {
    real sum = 0.0, sq = 0.0;
    const int trials = 1500;
    for (int i = 0; i < trials; ++i) {
      Session s(f.link, f.tx_cb, f.rx_cb, gamma, 1, f.rng, fades);
      const real e = s.measure(0, 0);
      sum += e;
      sq += e * e;
    }
    const real mean = sum / trials;
    return sq / trials - mean * mean;
  };
  EXPECT_LT(sample_var(16), 0.5 * sample_var(1));
}

TEST(SessionTest, BlockageValidation) {
  Fixture f;
  Session s = f.session();
  EXPECT_THROW(s.set_blockage_probability(-0.1), precondition_error);
  EXPECT_THROW(s.set_blockage_probability(1.1), precondition_error);
  s.set_blockage_probability(0.5);
  EXPECT_DOUBLE_EQ(s.blockage_probability(), 0.5);
  s.measure(0, 0);
  EXPECT_THROW(s.set_blockage_probability(0.2), precondition_error);
}

TEST(SessionTest, FullBlockageLeavesOnlyNoise) {
  // With p = 1 every measurement is noise-only: mean energy = 1/γ.
  Fixture f;
  const real gamma = 4.0;
  real acc = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    Session s(f.link, f.tx_cb, f.rx_cb, gamma, 1, f.rng, 4);
    s.set_blockage_probability(1.0);
    acc += s.measure(0, 0);
  }
  EXPECT_NEAR(acc / trials, 1.0 / gamma, 0.05);
}

TEST(SessionTest, PartialBlockageReducesMeanEnergy) {
  Fixture f;
  const real gamma = 4.0;
  // Pick the strongest codebook pair so the signal part dominates noise.
  index_t best_t = 0, best_r = 0;
  real best_gain = -1.0;
  for (index_t t = 0; t < f.tx_cb.size(); ++t)
    for (index_t r = 0; r < f.rx_cb.size(); ++r) {
      const real g =
          f.link.mean_pair_gain(f.tx_cb.codeword(t), f.rx_cb.codeword(r));
      if (g > best_gain) {
        best_gain = g;
        best_t = t;
        best_r = r;
      }
    }
  auto mean_energy = [&](real p) {
    real acc = 0.0;
    const int trials = 2500;
    for (int i = 0; i < trials; ++i) {
      Session s(f.link, f.tx_cb, f.rx_cb, gamma, 1, f.rng, 4);
      s.set_blockage_probability(p);
      acc += s.measure(best_t, best_r);
    }
    return acc / trials;
  };
  EXPECT_LT(mean_energy(0.8), 0.5 * mean_energy(0.0));
}

TEST(SessionTest, FadesPerMeasurementAccessor) {
  Fixture f;
  Session s = f.session(10.0, 4, 8);
  EXPECT_EQ(s.fades_per_measurement(), 8u);
  EXPECT_NEAR(s.gamma(), 10.0, 1e-12);
}

TEST(SessionFaultTest, ArmFaultsValidation) {
  Fixture f;
  const fault::FaultPlan plan;  // clean plan
  {
    Session s = f.session();
    s.measure(0, 0);
    EXPECT_THROW(s.arm_faults(&plan, nullptr), precondition_error);
  }
  {
    // A plan with a blockage event requires the degraded link.
    const fault::FaultPlan blocked = fault::FaultPlan::scripted(
        {}, /*blockage_onset=*/0, {0.1}, {});
    Session s = f.session();
    EXPECT_THROW(s.arm_faults(&blocked, nullptr), precondition_error);
  }
}

TEST(SessionFaultTest, FaultStateIsArmedOnlyWithAPlan) {
  Fixture f;
  Session s = f.session();
  // Clean run: the ladder gets no state, and the tallies read zero.
  EXPECT_EQ(s.armed_faults(), nullptr);
  EXPECT_EQ(s.fault_state().plan, nullptr);
  EXPECT_EQ(s.fault_state().solves, 0u);

  const fault::FaultPlan plan;
  s.arm_faults(&plan, nullptr);
  fault::TrialFaultState* state = s.armed_faults();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state, &s.fault_state());  // the session's own tallies
  EXPECT_EQ(state->plan, &plan);       // the plan is stored once, borrowed
}

TEST(SessionFaultTest, DroppedSlotRecordsZeroAndConsumesNoDraws) {
  Fixture f;
  std::vector<fault::SlotFault> slots(3);
  slots[0].dropped = true;
  const fault::FaultPlan plan =
      fault::FaultPlan::scripted(slots, ~index_t{0}, {}, {});

  Rng rng_a{99}, rng_b{99};
  Session a(f.link, f.tx_cb, f.rx_cb, 10.0, 8, rng_a, 2);
  a.arm_faults(&plan, nullptr);
  Session b(f.link, f.tx_cb, f.rx_cb, 10.0, 8, rng_b, 2);

  EXPECT_EQ(a.measure(0, 0), 0.0);  // dropped: zero energy recorded
  ASSERT_EQ(a.records().size(), 1u);
  EXPECT_EQ(a.records()[0].energy, 0.0);
  // The dropped slot consumed NO draws, so a's next measurement sees the
  // same rng state b starts with — identical energies for the same pair.
  EXPECT_EQ(a.measure(0, 1), b.measure(0, 1));
}

TEST(SessionFaultTest, OutlierScalesRecordedEnergyExactly) {
  Fixture f;
  std::vector<fault::SlotFault> slots(2);
  slots[0].energy_scale = 25.0;
  const fault::FaultPlan plan =
      fault::FaultPlan::scripted(slots, ~index_t{0}, {}, {});

  Rng rng_a{5}, rng_b{5};
  Session a(f.link, f.tx_cb, f.rx_cb, 10.0, 8, rng_a, 4);
  a.arm_faults(&plan, nullptr);
  Session b(f.link, f.tx_cb, f.rx_cb, 10.0, 8, rng_b, 4);
  EXPECT_EQ(a.measure(1, 2), 25.0 * b.measure(1, 2));
}

TEST(SessionFaultTest, BlockageOnsetSwitchesToDegradedLink) {
  Fixture f;
  const std::vector<real> scale{0.05};
  const channel::Link degraded = channel::blocked_link(f.link, scale);
  // Onset 0: every measurement sees the degraded link. The armed session
  // on the CLEAN link must reproduce an unarmed session on the degraded
  // link draw-for-draw.
  const fault::FaultPlan plan =
      fault::FaultPlan::scripted({}, /*blockage_onset=*/0, {0.05}, {});

  Rng rng_a{17}, rng_b{17};
  Session a(f.link, f.tx_cb, f.rx_cb, 10.0, 8, rng_a, 4);
  a.arm_faults(&plan, &degraded);
  Session b(degraded, f.tx_cb, f.rx_cb, 10.0, 8, rng_b, 4);
  EXPECT_EQ(a.measure(0, 0), b.measure(0, 0));
  EXPECT_EQ(a.measure(2, 7), b.measure(2, 7));
}

TEST(SessionRealignTest, EmptySessionReportsNoOutage) {
  Fixture f;
  Session s = f.session();
  const auto report = s.verify_and_realign();
  EXPECT_FALSE(report.outage);
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(s.recovery_slots(), 0u);
}

TEST(SessionRealignTest, CleanVerificationSpendsOneSlot) {
  Fixture f;
  Session s = f.session(/*gamma=*/50.0, /*budget=*/16, /*fades=*/8);
  for (index_t t = 0; t < 4; ++t)
    for (index_t r = 0; r < 4; ++r) s.measure(t, r);
  const index_t trained = s.records().size();
  const auto report = s.verify_and_realign();
  // A static link cannot collapse: the claimed pair re-verifies.
  EXPECT_FALSE(report.outage);
  EXPECT_EQ(report.tx_beam, s.best_measured()->tx_beam);
  EXPECT_EQ(report.rx_beam, s.best_measured()->rx_beam);
  EXPECT_EQ(s.recovery_slots(), 1u);
  // Training ledger untouched: prefix grading still sees only training.
  EXPECT_EQ(s.records().size(), trained);
  ASSERT_EQ(s.recovery_records().size(), 1u);
  EXPECT_EQ(s.recovery_records()[0].energy, report.energy);
}

TEST(SessionRealignTest, PostTrainingBlockageDeclaresOutage) {
  Fixture f;
  const index_t budget = 16;
  // Blockage onset AT the budget: training is clean, every verification /
  // recovery probe (slot >= budget) sees the deeply attenuated link.
  const fault::FaultPlan plan =
      fault::FaultPlan::scripted({}, /*blockage_onset=*/budget, {1e-4}, {});
  const channel::Link degraded =
      channel::blocked_link(f.link, std::vector<real>{1e-4});

  Rng rng{31};
  Session s(f.link, f.tx_cb, f.rx_cb, /*gamma=*/100.0, budget, rng, 8);
  s.arm_faults(&plan, &degraded);
  for (index_t t = 0; t < 4; ++t)
    for (index_t r = 0; r < 4; ++r) s.measure(t, r);

  const auto report = s.verify_and_realign();
  // The whole (single-path) link is shadowed ~40 dB: the claimed pair
  // collapses and no neighbour can clear the threshold either.
  EXPECT_TRUE(report.outage);
  EXPECT_FALSE(report.recovered);
  EXPECT_GT(s.recovery_slots(), 1u);
  // Training records still untouched.
  EXPECT_EQ(s.records().size(), 16u);
}

}  // namespace
}  // namespace mmw::mac
