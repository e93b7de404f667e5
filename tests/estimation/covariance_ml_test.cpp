#include "estimation/covariance_ml.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "antenna/codebook.h"
#include "channel/link.h"
#include "estimation/beamspace.h"
#include "linalg/eig.h"
#include "linalg/functions.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "randgen/rng.h"

namespace mmw::estimation {
namespace {

using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

/// Simulates the paper's measurement chain: z = vᴴh + n, h ~ CN(0,Q),
/// n ~ CN(0,1/γ); returns (v, |z|²) pairs for random unit beams.
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
  return q * cx{static_cast<real>(n), 0.0};  // trace ≈ n·power
}

TEST(MeasurementModelTest, ExpectedEnergyFormula) {
  Rng rng(1);
  const Matrix q = planted_low_rank(rng, 8, 2, 1.0);
  const Vector v = rng.random_unit_vector(8);
  const real gamma = 50.0;
  EXPECT_NEAR(expected_energy(q, v, gamma),
              linalg::hermitian_form(v, q) + 1.0 / gamma, 1e-10);
  EXPECT_THROW(expected_energy(q, v, 0.0), precondition_error);
}

TEST(MeasurementModelTest, EnergiesAverageToLambda) {
  Rng rng(2);
  const Matrix q = planted_low_rank(rng, 6, 1, 1.0);
  const real gamma = 100.0;
  const Matrix root = linalg::hermitian_sqrt(q);
  const Vector v = rng.random_unit_vector(6);
  real acc = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const Vector h = root * rng.complex_gaussian_vector(6);
    const cx z = linalg::dot(v, h) + rng.complex_normal(1.0 / gamma);
    acc += std::norm(z);
  }
  EXPECT_NEAR(acc / trials / expected_energy(q, v, gamma), 1.0, 0.05);
}

TEST(MeasurementModelTest, NllPenalizesWrongCovariance) {
  Rng rng(3);
  const Matrix q_true = planted_low_rank(rng, 8, 2, 1.0);
  const auto ms = simulate_measurements(q_true, 100.0, 200, rng);
  const real nll_true = negative_log_likelihood(q_true, ms, 100.0);
  const Matrix q_wrong = planted_low_rank(rng, 8, 2, 1.0);
  const real nll_wrong = negative_log_likelihood(q_wrong, ms, 100.0);
  EXPECT_LT(nll_true, nll_wrong);
}

TEST(CovarianceMlTest, InputValidation) {
  CovarianceMlOptions opts;
  EXPECT_THROW(estimate_covariance_ml(4, {}, opts), precondition_error);
  std::vector<BeamMeasurement> wrong_dim{{Vector(3), 1.0}};
  EXPECT_THROW(estimate_covariance_ml(4, wrong_dim, opts),
               precondition_error);
  std::vector<BeamMeasurement> ok{{Vector::basis(4, 0), 1.0}};
  CovarianceMlOptions bad = opts;
  bad.mu = -1.0;
  EXPECT_THROW(estimate_covariance_ml(4, ok, bad), precondition_error);
  bad = opts;
  bad.gamma = 0.0;
  EXPECT_THROW(estimate_covariance_ml(4, ok, bad), precondition_error);
}

TEST(CovarianceMlTest, EstimateIsHermitianPsd) {
  Rng rng(4);
  const Matrix q = planted_low_rank(rng, 8, 2, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 48, rng);
  CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimate_covariance_ml(8, ms, opts);
  EXPECT_TRUE(res.q.dense().is_hermitian(1e-8));
  const auto eig = res.q.eig();
  for (const real e : eig.eigenvalues) EXPECT_GE(e, -1e-8);
}

TEST(CovarianceMlTest, RecoversDominantEigenvectorRankOne) {
  Rng rng(5);
  const index_t n = 8;
  const Vector x = rng.random_unit_vector(n);
  const Matrix q = Matrix::outer(x, x) * cx{static_cast<real>(n) * 4.0, 0.0};
  const auto ms = simulate_measurements(q, 100.0, 32, rng);
  CovarianceMlOptions opts;
  opts.gamma = 100.0;
  opts.mu = 0.5;
  const auto res = estimate_covariance_ml(n, ms, opts);
  const auto eig = res.q.eig();
  // Dominant eigenvector aligned with the planted direction.
  EXPECT_GT(std::abs(linalg::dot(eig.eigenvectors.col(0), x)), 0.85);
}

TEST(CovarianceMlTest, OperationalGainAtLargeDimension) {
  // At N = 16 with single-sample energy measurements the estimate is rough,
  // but pointing a beam along its dominant eigenvector must still beat a
  // random beam by a wide margin — the property the alignment scheme needs.
  Rng rng(50);
  const index_t n = 16;
  real est_gain = 0.0, rand_gain = 0.0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    const Vector x = rng.random_unit_vector(n);
    const Matrix q =
        Matrix::outer(x, x) * cx{static_cast<real>(n) * 4.0, 0.0};
    const auto ms = simulate_measurements(q, 100.0, 48, rng);
    CovarianceMlOptions opts;
    opts.gamma = 100.0;
    opts.mu = 0.5;
    const auto res = estimate_covariance_ml(n, ms, opts);
    const auto eig = res.q.eig();
    est_gain += linalg::hermitian_form(eig.eigenvectors.col(0), q);
    rand_gain += linalg::hermitian_form(rng.random_unit_vector(n), q);
  }
  EXPECT_GT(est_gain, 3.0 * rand_gain);
}

TEST(CovarianceMlTest, EstimateLiesInBeamSpan) {
  // The subspace reduction is exact: range(Q̂) ⊆ span{v_j}.
  Rng rng(51);
  const index_t n = 12;
  const Matrix q = planted_low_rank(rng, n, 2, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 5, rng);
  CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimate_covariance_ml(n, ms, opts);
  // Project Q̂'s columns out of the beam span; the residual must vanish.
  std::vector<Vector> basis;
  for (const auto& m : ms) {
    Vector v = m.beam;
    for (const Vector& b : basis) v -= linalg::dot(b, v) * b;
    if (v.norm() > 1e-9) basis.push_back(v.normalized());
  }
  for (index_t c = 0; c < n; ++c) {
    Vector col = res.q.dense().col(c);
    for (const Vector& b : basis) col -= linalg::dot(b, col) * b;
    EXPECT_NEAR(col.norm(), 0.0, 1e-8 * (1.0 + res.q.dense().frobenius_norm()));
  }
}

TEST(CovarianceMlTest, BeatsSampleCovarianceInUndersampledRegime) {
  // With J < N measurements, the regularized ML estimate should be closer
  // to the truth (in relative Frobenius error) than the moment estimate.
  Rng rng(6);
  const index_t n = 16;
  real err_ml = 0.0, err_sample = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const Matrix q = planted_low_rank(rng, n, 2, 1.0);
    const auto ms = simulate_measurements(q, 100.0, 10, rng);
    CovarianceMlOptions opts;
    opts.gamma = 100.0;
    opts.mu = 0.5;
    const auto res = estimate_covariance_ml(n, ms, opts);
    err_ml += (res.q.dense() - q).frobenius_norm() / q.frobenius_norm();
    const Matrix qs = sample_covariance_estimate(n, ms, 100.0);
    err_sample += (qs - q).frobenius_norm() / q.frobenius_norm();
  }
  EXPECT_LT(err_ml, err_sample);
}

TEST(CovarianceMlTest, StrongRegularizationShrinksRank) {
  Rng rng(7);
  const index_t n = 12;
  const Matrix q = planted_low_rank(rng, n, 3, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 60, rng);
  CovarianceMlOptions weak;
  weak.gamma = 100.0;
  weak.mu = 1e-4;
  CovarianceMlOptions strong = weak;
  strong.mu = 5.0;
  const auto res_weak = estimate_covariance_ml(n, ms, weak);
  const auto res_strong = estimate_covariance_ml(n, ms, strong);
  EXPECT_LE(linalg::numerical_rank(res_strong.q.dense(), 1e-6),
            linalg::numerical_rank(res_weak.q.dense(), 1e-6));
}

TEST(CovarianceMlTest, ObjectiveDecreasesFromWarmStart) {
  Rng rng(8);
  const index_t n = 10;
  const Matrix q = planted_low_rank(rng, n, 2, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 40, rng);
  CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const Matrix warm = sample_covariance_estimate(n, ms, 100.0);
  const real f0 = negative_log_likelihood(warm, ms, opts.gamma) +
                  opts.mu * warm.trace().real();
  const auto res = estimate_covariance_ml(n, ms, opts);
  EXPECT_LE(res.objective, f0 + 1e-9);
}

TEST(CovarianceMlTest, ConvergesWithinBudget) {
  Rng rng(9);
  const index_t n = 8;
  const Matrix q = planted_low_rank(rng, n, 1, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 32, rng);
  CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimate_covariance_ml(n, ms, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, opts.max_iterations);
}

/// Value of the process-wide counter `name` (0 before its first add).
std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second.value;
}

TEST(CovarianceMlTest, ExhaustedBacktrackingIsLabelledStalled) {
  // Exact-expectation energies at γ = 1000 on a 4×4 angular grid: the
  // first step overshoots so far that two halvings cannot repair it, so
  // the solve ends through the exhausted-backtracking exit.
  const auto cb = antenna::Codebook::angular_grid(
      antenna::ArrayGeometry::upa(4, 4), 4, 4);
  const std::vector<BeamComponent> truth{{6, 2.5}, {10, 0.7}};
  const linalg::FactoredHermitian q_true = expand_beam_space(truth, cb);
  CovarianceMlOptions opts;
  opts.gamma = 1000.0;
  std::vector<BeamMeasurement> ms;
  for (index_t k = 0; k < 8; ++k) {
    const Vector& v = cb.codeword(2 * k);
    ms.push_back({v, expected_energy(q_true, v, opts.gamma)});
  }

  const bool was = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t before = counter_value("estimation.ml.stalled");
  opts.max_backtracks = 2;
  const CovarianceMlResult stalled = estimate_covariance_ml(16, ms, opts);
  const std::uint64_t after_stall = counter_value("estimation.ml.stalled");
  opts.max_backtracks = 40;
  const CovarianceMlResult settled = estimate_covariance_ml(16, ms, opts);
  const std::uint64_t after_settle = counter_value("estimation.ml.stalled");
  obs::set_enabled(was);

  EXPECT_TRUE(stalled.stalled);
  EXPECT_TRUE(stalled.converged);  // the label the ladder reads is unchanged
  EXPECT_EQ(stalled.iterations, 0);
  EXPECT_EQ(after_stall, before + 1);
  // With room to backtrack the same problem ends on the objective test.
  EXPECT_FALSE(settled.stalled);
  EXPECT_TRUE(settled.converged);
  EXPECT_GT(settled.iterations, 0);
  EXPECT_EQ(after_settle, after_stall);
}

TEST(CovarianceEmTest, InputValidation) {
  CovarianceEmOptions opts;
  EXPECT_THROW(estimate_covariance_em(4, {}, opts), precondition_error);
  std::vector<BeamMeasurement> ok{{Vector::basis(4, 0), 1.0}};
  CovarianceEmOptions bad = opts;
  bad.gamma = 0.0;
  EXPECT_THROW(estimate_covariance_em(4, ok, bad), precondition_error);
  bad = opts;
  bad.mu = -1.0;
  EXPECT_THROW(estimate_covariance_em(4, ok, bad), precondition_error);
}

TEST(CovarianceEmTest, LikelihoodIsMonotone) {
  // EM's defining property: the NLL never increases across iterations.
  // Verified by comparing the NLL at increasing iteration caps.
  Rng rng(20);
  const index_t n = 10;
  const Matrix q = planted_low_rank(rng, n, 2, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 30, rng);
  real prev = std::numeric_limits<real>::infinity();
  for (const int iters : {1, 3, 10, 40, 150}) {
    CovarianceEmOptions opts;
    opts.gamma = 100.0;
    opts.max_iterations = iters;
    opts.tolerance = 0.0;  // run the full budget
    const auto res = estimate_covariance_em(n, ms, opts);
    const real nll = negative_log_likelihood(res.q, ms, 100.0);
    EXPECT_LE(nll, prev + 1e-7 * (1.0 + std::abs(prev)));
    prev = nll;
  }
}

TEST(CovarianceEmTest, AgreesWithProximalSolverOnNll) {
  // Two independent solvers of the same likelihood should reach similar
  // NLL values (both may stop at different local optima of a non-convex
  // landscape, so only rough agreement is demanded).
  Rng rng(21);
  const index_t n = 8;
  const Matrix q = planted_low_rank(rng, n, 1, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 32, rng);
  CovarianceMlOptions pg;
  pg.gamma = 100.0;
  pg.mu = 0.0;
  CovarianceEmOptions em;
  em.gamma = 100.0;
  const real nll_pg =
      negative_log_likelihood(estimate_covariance_ml(n, ms, pg).q, ms, 100.0);
  const real nll_em =
      negative_log_likelihood(estimate_covariance_em(n, ms, em).q, ms, 100.0);
  EXPECT_NEAR(nll_pg, nll_em, 0.15 * std::abs(nll_pg) + 2.0);
}

TEST(CovarianceEmTest, EstimateIsHermitianPsd) {
  Rng rng(22);
  const index_t n = 12;
  const Matrix q = planted_low_rank(rng, n, 2, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 8, rng);
  CovarianceEmOptions opts;
  opts.gamma = 100.0;
  const auto res = estimate_covariance_em(n, ms, opts);
  EXPECT_TRUE(res.q.dense().is_hermitian(1e-8 * (1.0 + res.q.dense().max_abs())));
  const auto eig = res.q.eig();
  for (const real e : eig.eigenvalues)
    EXPECT_GE(e, -1e-8 * (1.0 + std::abs(eig.eigenvalues[0])));
}

TEST(CovarianceEmTest, TraceShrinkageReducesTrace) {
  Rng rng(23);
  const index_t n = 10;
  const Matrix q = planted_low_rank(rng, n, 2, 1.0);
  const auto ms = simulate_measurements(q, 100.0, 30, rng);
  CovarianceEmOptions plain;
  plain.gamma = 100.0;
  CovarianceEmOptions shrunk = plain;
  shrunk.mu = 5.0;
  const real tr_plain =
      estimate_covariance_em(n, ms, plain).q.trace();
  const real tr_shrunk =
      estimate_covariance_em(n, ms, shrunk).q.trace();
  EXPECT_LT(tr_shrunk, tr_plain);
}

TEST(CovarianceEmTest, RecoversPlantedDirection) {
  Rng rng(24);
  const index_t n = 8;
  const Vector x = rng.random_unit_vector(n);
  const Matrix q = Matrix::outer(x, x) * cx{static_cast<real>(n) * 4.0, 0.0};
  const auto ms = simulate_measurements(q, 100.0, 32, rng);
  CovarianceEmOptions opts;
  opts.gamma = 100.0;
  const auto res = estimate_covariance_em(n, ms, opts);
  const auto eig = res.q.eig();
  EXPECT_GT(std::abs(linalg::dot(eig.eigenvectors.col(0), x)), 0.85);
}

TEST(SampleCovarianceTest, NoiseFloorSubtracted) {
  // Measurements at exactly the noise floor produce a zero estimate.
  std::vector<BeamMeasurement> ms;
  const real gamma = 10.0;
  for (index_t i = 0; i < 4; ++i)
    ms.push_back({Vector::basis(4, i), 1.0 / gamma});
  const Matrix q = sample_covariance_estimate(4, ms, gamma);
  EXPECT_NEAR(q.frobenius_norm(), 0.0, 1e-12);
}

TEST(SampleCovarianceTest, SingleBeamGivesRankOne) {
  std::vector<BeamMeasurement> ms{{Vector::basis(4, 1), 5.0}};
  const Matrix q = sample_covariance_estimate(4, ms, 100.0);
  EXPECT_EQ(linalg::numerical_rank(q, 1e-10), 1u);
  EXPECT_GT(q(1, 1).real(), 0.0);
}

TEST(DiagonalLoadingTest, AddsTraceProportionalRidge) {
  std::vector<BeamMeasurement> ms{{Vector::basis(4, 0), 5.0}};
  const Matrix plain = sample_covariance_estimate(4, ms, 100.0);
  const Matrix loaded = diagonal_loading_estimate(4, ms, 100.0, 0.5);
  const real expected_load = 0.5 * plain.trace().real() / 4.0;
  EXPECT_NEAR(loaded(3, 3).real(), expected_load, 1e-10);
  EXPECT_THROW(diagonal_loading_estimate(4, ms, 100.0, -0.1),
               precondition_error);
}

}  // namespace
}  // namespace mmw::estimation
