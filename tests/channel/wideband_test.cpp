#include "channel/wideband.h"

#include <gtest/gtest.h>

#include <cmath>

#include "antenna/steering.h"

namespace mmw::channel {
namespace {

using antenna::ArrayGeometry;
using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

WidebandLink two_cluster_link() {
  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(8, 8);
  std::vector<Path> paths{Path{0.7, {0.3, 0.1}, {-0.4, 0.0}},
                          Path{0.3, {-0.6, -0.1}, {0.5, 0.2}}};
  Link link(tx, rx, std::move(paths));
  return WidebandLink(std::move(link), {0.0, 200e-9});
}

TEST(WidebandLinkTest, ConstructionValidation) {
  const auto tx = ArrayGeometry::upa(2, 2);
  const auto rx = ArrayGeometry::upa(2, 2);
  Link link(tx, rx, {Path{1.0, {}, {}}});
  EXPECT_THROW(WidebandLink(link, {}), precondition_error);
  EXPECT_THROW(WidebandLink(link, {-1e-9}), precondition_error);
  EXPECT_NO_THROW(WidebandLink(link, {0.0}));
}

TEST(WidebandLinkTest, ZeroFrequencyMatchesNarrowbandDraw) {
  // At f = 0 the delay phases vanish: H(0) has the same second-order
  // statistics as the narrowband Link.
  const WidebandLink wb = two_cluster_link();
  Rng rng(3);
  Matrix acc(64, 16);
  const int trials = 300;
  real pw = 0.0;
  for (int t = 0; t < trials; ++t) {
    const auto r = wb.draw_realization(rng);
    pw += wb.frequency_response(r, 0.0).frobenius_norm();
  }
  // E‖H‖_F ≈ √(NM·Σp) within Monte-Carlo slack (Jensen gap is small here).
  EXPECT_NEAR(pw / trials / std::sqrt(64.0 * 16.0), 1.0, 0.15);
}

TEST(WidebandLinkTest, PairResponseMatchesMatrixContraction) {
  const WidebandLink wb = two_cluster_link();
  Rng rng(4);
  const auto r = wb.draw_realization(rng);
  const Vector u = rng.random_unit_vector(16);
  const Vector v = rng.random_unit_vector(64);
  for (const real f : {0.0, 50e6, 400e6}) {
    const cx direct = wb.pair_response(r, u, v, f);
    const cx contracted =
        linalg::dot(v, wb.frequency_response(r, f) * u);
    EXPECT_NEAR(std::abs(direct - contracted), 0.0,
                1e-9 * (1.0 + std::abs(direct)));
  }
}

TEST(WidebandLinkTest, MeanPairGainIsFrequencyFlat) {
  // E|vᴴH(f)u|² is the same at every frequency (delay phases cancel in the
  // expectation) and equals the narrowband mean pair gain.
  const WidebandLink wb = two_cluster_link();
  Rng rng(5);
  const Vector u = rng.random_unit_vector(16);
  const Vector v = rng.random_unit_vector(64);
  const real expected = wb.narrowband().mean_pair_gain(u, v);
  const int trials = 4000;
  for (const real f : {0.0, 250e6}) {
    Rng mc(17);
    real acc = 0.0;
    for (int t = 0; t < trials; ++t) {
      const auto r = wb.draw_realization(mc);
      acc += std::norm(wb.pair_response(r, u, v, f));
    }
    EXPECT_NEAR(acc / trials / expected, 1.0, 0.15) << "f=" << f;
  }
}

TEST(WidebandLinkTest, RealizedResponseIsFrequencySelective) {
  // A single realization with two delayed clusters varies across the band.
  const WidebandLink wb = two_cluster_link();
  Rng rng(6);
  const auto r = wb.draw_realization(rng);
  // Beams that couple to BOTH clusters: use sums of the steering vectors.
  const Vector u = (wb.narrowband().tx_steering(0) +
                    wb.narrowband().tx_steering(1))
                       .normalized();
  const Vector v = (wb.narrowband().rx_steering(0) +
                    wb.narrowband().rx_steering(1))
                       .normalized();
  real lo = 1e300, hi = 0.0;
  for (int k = 0; k <= 32; ++k) {
    const real f = k * 500e6 / 32;
    const real p = std::norm(wb.pair_response(r, u, v, f));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi, 2.0 * lo);  // visible ripple across 500 MHz
}

TEST(WidebandLinkTest, BeamformingShrinksDelaySpread) {
  const WidebandLink wb = two_cluster_link();
  // Aligned with cluster 0 only: conditional delay spread collapses.
  const Vector u0 = wb.narrowband().tx_steering(0);
  const Vector v0 = wb.narrowband().rx_steering(0);
  const real conditional = wb.rms_delay_spread_s(u0, v0);
  const real omni = wb.omni_rms_delay_spread_s();
  EXPECT_LT(conditional, 0.3 * omni);
  EXPECT_GT(omni, 50e-9);  // two clusters 200 ns apart
}

TEST(WidebandLinkTest, NycGeneratorProducesSortedClusterDelays) {
  const auto tx = ArrayGeometry::upa(2, 2);
  const auto rx = ArrayGeometry::upa(4, 4);
  Rng rng(7);
  const WidebandLink wb = make_nyc_wideband_link(tx, rx, rng);
  ASSERT_EQ(wb.delays_s().size(), wb.narrowband().paths().size());
  for (const real d : wb.delays_s()) EXPECT_GE(d, 0.0);
  // First cluster starts at (near) zero delay.
  real first_cluster_min = 1e300;
  for (index_t l = 0; l < NycClusterParams::subpaths_per_cluster; ++l)
    first_cluster_min = std::min(first_cluster_min, wb.delays_s()[l]);
  EXPECT_LT(first_cluster_min, 5 * WidebandParams::intra_cluster_jitter_s);
}

}  // namespace
}  // namespace mmw::channel
