#include "estimation/robust.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/functions.h"
#include "randgen/rng.h"

namespace mmw::estimation {
namespace {

using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

std::vector<BeamMeasurement> simulate_measurements(const Matrix& q,
                                                   real gamma, index_t count,
                                                   Rng& rng) {
  const Matrix root = linalg::hermitian_sqrt(q);
  std::vector<BeamMeasurement> out;
  out.reserve(count);
  for (index_t j = 0; j < count; ++j) {
    BeamMeasurement m;
    m.beam = rng.random_unit_vector(q.rows());
    const Vector h = root * rng.complex_gaussian_vector(q.rows());
    const cx z = linalg::dot(m.beam, h) + rng.complex_normal(1.0 / gamma);
    m.energy = std::norm(z);
    out.push_back(std::move(m));
  }
  return out;
}

Matrix planted_low_rank(Rng& rng, index_t n, index_t rank, real power) {
  Matrix q(n, n);
  for (index_t k = 0; k < rank; ++k) {
    const Vector x = rng.random_unit_vector(n);
    q += Matrix::outer(x, x) * cx{power / static_cast<real>(rank), 0.0};
  }
  return q * cx{static_cast<real>(n), 0.0};
}

struct Fixture {
  index_t n = 8;
  real gamma = 100.0;
  Rng rng{20160401};
  Matrix q_true;
  std::vector<BeamMeasurement> ms;
  CovarianceMlOptions options;

  Fixture() {
    q_true = planted_low_rank(rng, n, 2, 1.0);
    ms = simulate_measurements(q_true, gamma, 40, rng);
    options.gamma = gamma;
  }
};

void expect_same_dense(const linalg::FactoredHermitian& a,
                       const linalg::FactoredHermitian& b) {
  const Matrix da = a.dense();
  const Matrix db = b.dense();
  ASSERT_EQ(da.rows(), db.rows());
  for (index_t i = 0; i < da.rows(); ++i)
    for (index_t j = 0; j < da.cols(); ++j) {
      EXPECT_EQ(da(i, j).real(), db(i, j).real()) << i << "," << j;
      EXPECT_EQ(da(i, j).imag(), db(i, j).imag()) << i << "," << j;
    }
}

TEST(RobustEstimateTest, UnarmedIsBitIdenticalToDirectMl) {
  // The golden-figure contract: with no fault state (a clean run), the
  // ladder wrapper must return EXACTLY what the direct estimator call
  // returns.
  Fixture f;
  const RobustEstimateResult r = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kRegularizedMl, nullptr);
  EXPECT_EQ(r.rung, SolveRung::kPrimary);
  EXPECT_EQ(r.primary_status, SolveStatus::kOk);
  const CovarianceMlResult direct =
      estimate_covariance_ml(f.n, f.ms, f.options);
  expect_same_dense(r.q, direct.q);
}

TEST(RobustEstimateTest, UnarmedIsBitIdenticalToDirectEm) {
  Fixture f;
  const RobustEstimateResult r = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kEmMl, nullptr);
  EXPECT_EQ(r.rung, SolveRung::kPrimary);
  CovarianceEmOptions em;
  em.gamma = f.options.gamma;
  em.mu = f.options.mu;
  expect_same_dense(r.q, estimate_covariance_em(f.n, f.ms, em).q);
}

TEST(RobustEstimateTest, UnarmedIsBitIdenticalToBaselines) {
  Fixture f;
  const RobustEstimateResult sample = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kSampleCovariance, nullptr);
  expect_same_dense(sample.q,
                    linalg::FactoredHermitian::from_dense(
                        sample_covariance_estimate(f.n, f.ms, f.gamma)));
  const RobustEstimateResult diag = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kDiagonalLoading, nullptr);
  expect_same_dense(diag.q,
                    linalg::FactoredHermitian::from_dense(
                        diagonal_loading_estimate(f.n, f.ms, f.gamma)));
}

TEST(RobustEstimateTest, UnarmedAcceptsNonconvergedPrimary) {
  // Clean runs historically used non-converged ML estimates as-is; the
  // ladder must not change that (bit-identity again).
  Fixture f;
  f.options.max_iterations = 1;  // will not converge in one step
  const RobustEstimateResult r = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kRegularizedMl, nullptr);
  EXPECT_EQ(r.rung, SolveRung::kPrimary);
  EXPECT_EQ(r.primary_status, SolveStatus::kOk);
  expect_same_dense(r.q, estimate_covariance_ml(f.n, f.ms, f.options).q);
}

TEST(RobustEstimateTest, StressedSolveEngagesLadder) {
  Fixture f;
  // With faults armed, non-convergence triggers the ladder too — give the
  // clean solve enough iterations that only the scripted stress can fail it.
  f.options.max_iterations = 5000;
  // Script: solve 0 stressed, solve 1 clean.
  const fault::FaultPlan plan =
      fault::FaultPlan::scripted({}, ~index_t{0}, {}, {true, false});
  fault::TrialFaultState state;
  state.plan = &plan;

  const RobustEstimateResult stressed = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kRegularizedMl, &state);
  EXPECT_EQ(stressed.primary_status, SolveStatus::kStressed);
  EXPECT_NE(stressed.rung, SolveRung::kPrimary);
  EXPECT_TRUE(std::isfinite(stressed.q.trace()));
  EXPECT_EQ(state.solves, 1u);
  EXPECT_EQ(state.stressed_solves, 1u);

  const RobustEstimateResult clean = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kRegularizedMl, &state);
  EXPECT_EQ(clean.primary_status, SolveStatus::kOk);
  EXPECT_EQ(clean.rung, SolveRung::kPrimary);
  EXPECT_EQ(state.solves, 2u);
  EXPECT_EQ(state.stressed_solves, 1u);

  // Rung histogram: one degraded solve, one primary.
  std::uint64_t total = 0;
  for (const std::uint64_t c : state.rung_counts) total += c;
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(state.rung_counts[static_cast<int>(SolveRung::kPrimary)], 1u);
}

TEST(RobustEstimateTest, StressedBaselineKindFallsToUniform) {
  // For the moment-matching kinds the ladder has no em/sample rung (they
  // ARE the sample family), so stress lands on the uniform prior.
  Fixture f;
  const fault::FaultPlan plan =
      fault::FaultPlan::scripted({}, ~index_t{0}, {}, {true});
  fault::TrialFaultState state;
  state.plan = &plan;
  const RobustEstimateResult r = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kSampleCovariance, &state);
  EXPECT_EQ(r.rung, SolveRung::kUniform);
  // Uniform rung: scaled identity — off-diagonals exactly zero.
  const Matrix d = r.q.dense();
  for (index_t i = 0; i < d.rows(); ++i)
    for (index_t j = 0; j < d.cols(); ++j) {
      if (i != j) {
        EXPECT_EQ(std::abs(d(i, j)), 0.0);
      }
    }
  EXPECT_GT(r.q.trace(), 0.0);
}

TEST(RobustEstimateTest, ArmedWithoutPlanBehavesCleanly) {
  // A fault state with a null plan counts solves but stresses nothing:
  // a converged primary stays on the primary rung.
  Fixture f;
  f.options.max_iterations = 5000;  // rule out nonconvergence-driven rungs
  fault::TrialFaultState state;  // plan stays null
  const RobustEstimateResult r = robust_estimate_covariance(
      f.n, f.ms, f.options, EstimatorKind::kRegularizedMl, &state);
  EXPECT_EQ(r.rung, SolveRung::kPrimary);
  EXPECT_EQ(state.solves, 1u);
  EXPECT_EQ(state.stressed_solves, 0u);
}

}  // namespace
}  // namespace mmw::estimation
