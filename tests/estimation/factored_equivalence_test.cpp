// Golden equivalence between the factored estimator output and the dense
// path it replaced.
//
// The estimators historically lifted the reduced-problem solution to a dense
// N×N matrix before anyone could touch it. They now return the factor pair
// {B, Q_r} and lift lazily. These tests pin down the contract that made the
// swap safe: for fixed seeds the lazy lift is BIT-IDENTICAL to the historical
// lift loop, and codebook selection through the factor picks exactly the
// beams the dense path picked — on both evaluation scenarios of the paper
// (single-path, Fig. 5/7; NYC multipath, Fig. 6/8).
#include <gtest/gtest.h>

#include <cmath>

#include "antenna/codebook.h"
#include "channel/models.h"
#include "estimation/covariance_ml.h"
#include "linalg/functions.h"
#include "randgen/rng.h"
#include "../antenna/ranked.h"

namespace mmw::estimation {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using antenna::ranked;
using linalg::FactoredHermitian;
using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

/// The lift exactly as the dense code path wrote it before the refactor:
/// Q = Σ_{a,b} Q_r(a,b) · b_a b_bᴴ with the same loop nest and the same
/// accumulation order FactoredHermitian::dense() promises to preserve.
Matrix historical_lift(const Matrix& basis, const Matrix& core) {
  const index_t n = basis.rows();
  const index_t r = basis.cols();
  Matrix q(n, n);
  for (index_t a = 0; a < r; ++a)
    for (index_t b = 0; b < r; ++b) {
      const cx qab = core(a, b);
      if (qab == cx{0.0, 0.0}) continue;
      for (index_t i = 0; i < n; ++i) {
        const cx scaled = qab * basis(i, a);
        for (index_t j = 0; j < n; ++j)
          q(i, j) += scaled * std::conj(basis(j, b));
      }
    }
  return q;
}

/// Energy measurements through the paper's slot model: fixed TX beam at the
/// dominant path, refading effective RX channel, matched-filter energies.
std::vector<BeamMeasurement> slot_measurements(const channel::Link& link,
                                               const Codebook& rx_cb,
                                               real gamma, index_t count,
                                               Rng& rng) {
  const Vector u = link.tx_steering(0);
  std::vector<BeamMeasurement> out;
  out.reserve(count);
  for (index_t j = 0; j < count; ++j) {
    BeamMeasurement m;
    m.beam = rx_cb.codeword(j % rx_cb.size());
    const Vector h = link.draw_effective_channel(u, rng);
    m.energy = std::norm(linalg::dot(m.beam, h) +
                         rng.complex_normal(1.0 / gamma));
    out.push_back(std::move(m));
  }
  return out;
}

void expect_bit_identical(const Matrix& x, const Matrix& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  for (index_t i = 0; i < x.rows(); ++i)
    for (index_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(x(i, j).real(), y(i, j).real()) << "at (" << i << "," << j
                                                << ")";
      EXPECT_EQ(x(i, j).imag(), y(i, j).imag()) << "at (" << i << "," << j
                                                << ")";
    }
}

/// Runs the full golden check for one scenario seed: estimator output lifts
/// bit-identically, and factored codebook selection matches dense selection.
void run_golden_check(const channel::Link& link, const Codebook& rx_cb,
                      Rng& rng, real gamma, index_t probes) {
  const auto ms = slot_measurements(link, rx_cb, gamma, probes, rng);

  CovarianceMlOptions opts;
  opts.gamma = gamma;
  const auto res = estimate_covariance_ml(link.rx_size(), ms, opts);
  ASSERT_FALSE(res.q.empty());

  // (1) The lazy lift reproduces the historical dense lift bit-for-bit.
  if (!res.q.is_full()) {
    expect_bit_identical(res.q.dense(),
                         historical_lift(res.q.basis(), res.q.core()));
  }
  const Matrix dense = res.q.dense();

  // (2) Codebook scores through the factor agree with dense scoring.
  const auto scores_factored = rx_cb.covariance_scores(res.q);
  const auto scores_dense = rx_cb.covariance_scores(dense);
  ASSERT_EQ(scores_factored.size(), scores_dense.size());
  real scale = 1.0;
  for (const real s : scores_dense) scale = std::max(scale, std::abs(s));
  for (index_t i = 0; i < scores_dense.size(); ++i)
    EXPECT_NEAR(scores_factored[i], scores_dense[i], 1e-10 * scale);

  // (3) Selection is identical: best beam and every top-k prefix.
  for (const index_t k : {index_t{1}, index_t{4}, rx_cb.size()}) {
    EXPECT_EQ(ranked(scores_factored, k), ranked(scores_dense, k))
        << "k=" << k;
  }
}

TEST(FactoredEquivalenceTest, SinglePathGolden) {
  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(4, 4);
  const auto rx_cb = Codebook::dft(rx);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const auto link = channel::make_single_path_link(tx, rx, rng);
    run_golden_check(link, rx_cb, rng, 100.0, 24);
  }
}

TEST(FactoredEquivalenceTest, MultipathGolden) {
  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(4, 4);
  const auto rx_cb = Codebook::dft(rx);
  for (const std::uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    const auto link = channel::make_nyc_multipath_link(tx, rx, rng);
    run_golden_check(link, rx_cb, rng, 100.0, 24);
  }
}

TEST(FactoredEquivalenceTest, EmEstimatorGolden) {
  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(4, 4);
  Rng rng(31);
  const auto link = channel::make_nyc_multipath_link(tx, rx, rng);
  const auto rx_cb = Codebook::dft(rx);
  const auto ms = slot_measurements(link, rx_cb, 100.0, 24, rng);
  CovarianceEmOptions opts;
  opts.gamma = 100.0;
  const auto res = estimate_covariance_em(rx.size(), ms, opts);
  ASSERT_FALSE(res.q.empty());
  if (!res.q.is_full()) {
    expect_bit_identical(res.q.dense(),
                         historical_lift(res.q.basis(), res.q.core()));
  }
  EXPECT_EQ(ranked(rx_cb.covariance_scores(res.q), 1),
            ranked(rx_cb.covariance_scores(res.q.dense()), 1));
}

TEST(FactoredEquivalenceTest, FullModeScoresBitIdentical) {
  // When the estimator falls back to a full-rank (from_dense) result — or a
  // caller wraps a moment estimate — scoring the wrapper must be EXACTLY
  // scoring the matrix: same instructions, same bits.
  Rng rng(41);
  const auto rx = ArrayGeometry::upa(4, 4);
  const auto rx_cb = Codebook::dft(rx);
  Matrix q(16, 16);
  for (int k = 0; k < 3; ++k) {
    const Vector x = rng.random_unit_vector(16);
    q += Matrix::outer(x, x) * cx{4.0, 0.0};
  }
  const FactoredHermitian f = FactoredHermitian::from_dense(q);
  const auto scores_wrapped = rx_cb.covariance_scores(f);
  const auto scores_dense = rx_cb.covariance_scores(q);
  ASSERT_EQ(scores_wrapped.size(), scores_dense.size());
  for (index_t i = 0; i < scores_dense.size(); ++i)
    EXPECT_EQ(scores_wrapped[i], scores_dense[i]);
  EXPECT_EQ(ranked(scores_wrapped, rx_cb.size()),
            ranked(scores_dense, rx_cb.size()));
}

}  // namespace
}  // namespace mmw::estimation
