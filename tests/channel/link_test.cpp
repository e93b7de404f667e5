#include "channel/link.h"

#include <gtest/gtest.h>

#include <cmath>

#include "antenna/steering.h"
#include "linalg/eig.h"
#include "linalg/functions.h"

namespace mmw::channel {
namespace {

using antenna::ArrayGeometry;
using antenna::Direction;
using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

Link one_path_link(real power = 1.0, Direction aod = {0.3, 0.1},
                   Direction aoa = {-0.4, 0.05}) {
  return Link(ArrayGeometry::upa(4, 4), ArrayGeometry::upa(8, 8),
              {Path{power, aod, aoa}});
}

TEST(LinkTest, Dimensions) {
  const Link link = one_path_link();
  EXPECT_EQ(link.tx_size(), 16u);
  EXPECT_EQ(link.rx_size(), 64u);
  EXPECT_EQ(link.paths().size(), 1u);
}

TEST(LinkTest, EmptyPathsRejected) {
  EXPECT_THROW(
      Link(ArrayGeometry::upa(2, 2), ArrayGeometry::upa(2, 2), {}),
      precondition_error);
}

TEST(LinkTest, NegativePowerRejected) {
  EXPECT_THROW(Link(ArrayGeometry::upa(2, 2), ArrayGeometry::upa(2, 2),
                    {Path{-1.0, {}, {}}}),
               precondition_error);
}

TEST(LinkTest, TotalPowerSums) {
  const Link link(ArrayGeometry::upa(2, 2), ArrayGeometry::upa(2, 2),
                  {Path{0.6, {}, {}}, Path{0.4, {0.1, 0.0}, {0.2, 0.0}}});
  EXPECT_NEAR(link.total_power(), 1.0, 1e-12);
}

TEST(LinkTest, SinglePathCovarianceIsRankOne) {
  const Link link = one_path_link();
  const Matrix q = link.rx_covariance();
  EXPECT_TRUE(q.is_hermitian(1e-10));
  EXPECT_EQ(linalg::numerical_rank(q, 1e-8), 1u);
  // trace(Q) = NM·p·‖a_rx‖² = 64·16·1·1.
  EXPECT_NEAR(q.trace().real(), 1024.0, 1e-6);
}

TEST(LinkTest, CovariancePrincipalEigenvectorIsRxSteering) {
  const Link link = one_path_link();
  const auto eig = linalg::hermitian_eig(link.rx_covariance());
  EXPECT_NEAR(
      std::abs(linalg::dot(eig.principal_eigenvector(), link.rx_steering(0))),
      1.0, 1e-9);
}

TEST(LinkTest, BeamCovarianceScalesWithTxCoupling) {
  const Link link = one_path_link();
  const Vector matched = link.tx_steering(0);
  const Matrix q_matched = link.rx_covariance_for_beam(matched);
  // Matched beam: |a_txᴴu|² = 1, so Q_u = full-gain rank-one.
  EXPECT_NEAR(q_matched.trace().real(), 1024.0, 1e-6);
  // A random orthogonal-ish beam couples weakly.
  Rng rng(3);
  const Vector random_beam = rng.random_unit_vector(16);
  const Matrix q_rand = link.rx_covariance_for_beam(random_beam);
  EXPECT_LT(q_rand.trace().real(), q_matched.trace().real());
}

TEST(LinkTest, MeanPairGainMaximizedAtMatchedBeams) {
  const Link link = one_path_link();
  const real matched =
      link.mean_pair_gain(link.tx_steering(0), link.rx_steering(0));
  EXPECT_NEAR(matched, 1024.0, 1e-6);  // NM = 64·16
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const real other = link.mean_pair_gain(rng.random_unit_vector(16),
                                           rng.random_unit_vector(64));
    EXPECT_LE(other, matched + 1e-9);
  }
}

TEST(LinkTest, DrawChannelShape) {
  const Link link = one_path_link();
  Rng rng(5);
  const Matrix h = link.draw_channel(rng);
  EXPECT_EQ(h.rows(), 64u);
  EXPECT_EQ(h.cols(), 16u);
}

TEST(LinkTest, DrawChannelSecondMomentMatchesCovariance) {
  const Link link = one_path_link();
  Rng rng(6);
  const index_t n = link.rx_size();
  Matrix acc(n, n);
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const Matrix h = link.draw_channel(rng);
    acc += h * h.adjoint();
  }
  acc /= cx{static_cast<real>(trials * link.tx_size()), 0.0};
  const Matrix q = link.rx_covariance() / cx{static_cast<real>(link.tx_size()), 0.0};
  // Monte-Carlo agreement within ~10% in Frobenius norm.
  EXPECT_LT((acc - q).frobenius_norm() / q.frobenius_norm(), 0.15);
}

TEST(LinkTest, EffectiveChannelMatchesExplicitProduct) {
  // Statistically: E‖h_eff‖² must equal tr(Q_u) for any u.
  const Link link = one_path_link();
  Rng rng(7);
  const Vector u = rng.random_unit_vector(16);
  const real expected = link.rx_covariance_for_beam(u).trace().real();
  real acc = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t)
    acc += link.draw_effective_channel(u, rng).squared_norm();
  EXPECT_NEAR(acc / trials / expected, 1.0, 0.1);
}

TEST(LinkTest, DrawsAreIndependent) {
  const Link link = one_path_link();
  Rng rng(8);
  const Matrix h1 = link.draw_channel(rng);
  const Matrix h2 = link.draw_channel(rng);
  EXPECT_GT((h1 - h2).frobenius_norm(), 1e-6);
}

TEST(LinkTest, ShapeMismatchesThrow) {
  const Link link = one_path_link();
  Rng rng(9);
  EXPECT_THROW(link.rx_covariance_for_beam(Vector(8)), precondition_error);
  EXPECT_THROW(link.mean_pair_gain(Vector(8), Vector(64)),
               precondition_error);
  EXPECT_THROW(link.draw_effective_channel(Vector(8), rng),
               precondition_error);
}

// The allocation-free variant must be a drop-in for the returning one:
// identical draws (bit-exact) from identical RNG state, identical RNG
// consumption, and full overwrite of whatever the reused buffer held.
TEST(LinkTest, DrawEffectiveChannelIntoMatchesReturningVariant) {
  const Link link(ArrayGeometry::upa(4, 4), ArrayGeometry::upa(4, 4),
                  {Path{1.0, {0.3, 0.1}, {-0.4, 0.05}},
                   Path{0.5, {-0.2, 0.0}, {0.6, -0.1}}});
  const Vector u = link.tx_steering(0);
  Rng rng_a(42);
  Rng rng_b(42);
  Vector scratch(link.rx_size());
  for (int rep = 0; rep < 5; ++rep) {
    const Vector fresh = link.draw_effective_channel(u, rng_a);
    // Poison the buffer: a correct into-variant overwrites every element.
    for (index_t i = 0; i < scratch.size(); ++i) scratch[i] = cx{1e9, -1e9};
    link.draw_effective_channel_into(u, rng_b, scratch);
    for (index_t i = 0; i < fresh.size(); ++i)
      EXPECT_EQ(scratch[i], fresh[i]) << "rep=" << rep << " i=" << i;
  }
}

TEST(LinkTest, DrawEffectiveChannelIntoChecksBufferSize) {
  const Link link = one_path_link();
  Rng rng(7);
  Vector wrong(link.rx_size() + 1);
  EXPECT_THROW(
      link.draw_effective_channel_into(link.tx_steering(0), rng, wrong),
      precondition_error);
}

}  // namespace
}  // namespace mmw::channel
