#include "phy/capacity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/models.h"
#include "linalg/eig.h"
#include "randgen/rng.h"

namespace mmw::phy {
namespace {

using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

Matrix diagonal_channel(std::initializer_list<real> gains) {
  Matrix h(gains.size(), gains.size());
  index_t i = 0;
  for (const real g : gains) {
    h(i, i) = cx{std::sqrt(g), 0.0};
    ++i;
  }
  return h;
}

/// Rank-one analog beamforming rate of the pair (u, v): log2(1 + P·|vᴴHu|²).
real pair_rate(const Matrix& h, const Vector& u, const Vector& v, real p) {
  return std::log2(1.0 + p * std::norm(linalg::dot(v, h * u)));
}

TEST(WaterfillingTest, SingleModeGetsAllPower) {
  const Matrix h = diagonal_channel({4.0});
  const auto r = waterfilling_capacity(h, 2.0);
  ASSERT_EQ(r.mode_powers.size(), 1u);
  EXPECT_NEAR(r.mode_powers[0], 2.0, 1e-12);
  EXPECT_NEAR(r.capacity_bps_hz, std::log2(1.0 + 8.0), 1e-12);
}

TEST(WaterfillingTest, PowerConservation) {
  Rng rng(1);
  const Matrix h = rng.complex_gaussian_matrix(4, 6);
  const auto r = waterfilling_capacity(h, 3.0);
  real total = 0.0;
  for (const real p : r.mode_powers) {
    EXPECT_GE(p, -1e-12);
    total += p;
  }
  EXPECT_NEAR(total, 3.0, 1e-9);
}

TEST(WaterfillingTest, WeakModeShutOffAtLowPower) {
  // Gains 10 and 0.1: at tiny total power only the strong mode is active.
  const Matrix h = diagonal_channel({10.0, 0.1});
  const auto r = waterfilling_capacity(h, 0.01);
  EXPECT_GT(r.mode_powers[0], 0.0);
  EXPECT_DOUBLE_EQ(r.mode_powers[1], 0.0);
}

TEST(WaterfillingTest, EqualGainsSplitEvenly) {
  const Matrix h = diagonal_channel({2.0, 2.0, 2.0});
  const auto r = waterfilling_capacity(h, 3.0);
  for (const real p : r.mode_powers) EXPECT_NEAR(p, 1.0, 1e-9);
}

TEST(WaterfillingTest, BeatsEqualPowerAllocation) {
  Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    const Matrix h = rng.complex_gaussian_matrix(4, 4);
    const real wf = waterfilling_capacity(h, 1.0).capacity_bps_hz;
    const real ep = equal_power_capacity(h, 1.0);
    EXPECT_GE(wf, ep - 1e-9);
  }
}

TEST(WaterfillingTest, Validation) {
  EXPECT_THROW(waterfilling_capacity(Matrix(), 1.0), precondition_error);
  EXPECT_THROW(waterfilling_capacity(Matrix::identity(2), 0.0),
               precondition_error);
  EXPECT_THROW(waterfilling_capacity(Matrix(3, 3), 1.0),
               precondition_error);  // zero channel
}

TEST(BeamformingCapacityTest, MatchesOptimalAtTopSingularVectors) {
  Rng rng(3);
  const Matrix h = rng.complex_gaussian_matrix(6, 4);
  const auto svd = linalg::svd(h);
  const Vector u = svd.v.col(0);
  const Vector v = svd.u.col(0);
  EXPECT_NEAR(pair_rate(h, u, v, 2.0),
              optimal_beamforming_capacity(h, 2.0), 1e-9);
}

TEST(BeamformingCapacityTest, SuboptimalBeamsLoseCapacity) {
  Rng rng(4);
  const Matrix h = rng.complex_gaussian_matrix(6, 4);
  const real best = optimal_beamforming_capacity(h, 2.0);
  for (int t = 0; t < 10; ++t)
    EXPECT_LE(pair_rate(h, rng.random_unit_vector(4),
                        rng.random_unit_vector(6), 2.0),
              best + 1e-9);
}

TEST(BeamformingCapacityTest, BoundedByWaterfilling) {
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    const Matrix h = rng.complex_gaussian_matrix(5, 5);
    EXPECT_LE(optimal_beamforming_capacity(h, 1.5),
              waterfilling_capacity(h, 1.5).capacity_bps_hz + 1e-9);
  }
}

TEST(BeamformingCapacityTest, NearCapacityOnRankOneChannel) {
  // On a single-path channel, one beam pair captures (essentially) the
  // full waterfilling capacity — the reason analog beamforming suffices
  // for sparse mmWave channels.
  Rng rng(6);
  const auto tx = antenna::ArrayGeometry::upa(4, 4);
  const auto rx = antenna::ArrayGeometry::upa(4, 4);
  const channel::Link link = channel::make_single_path_link(tx, rx, rng);
  const Matrix h = link.draw_channel(rng);
  const real bf = optimal_beamforming_capacity(h, 1.0);
  const real wf = waterfilling_capacity(h, 1.0).capacity_bps_hz;
  EXPECT_GT(bf, 0.98 * wf);
}

}  // namespace
}  // namespace mmw::phy
