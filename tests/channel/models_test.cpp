#include "channel/models.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "linalg/eig.h"
#include "linalg/functions.h"

namespace mmw::channel {
namespace {

using antenna::ArrayGeometry;
using linalg::Matrix;
using randgen::Rng;

TEST(SinglePathModelTest, UnitPowerRankOne) {
  Rng rng(1);
  const Link link = make_single_path_link(ArrayGeometry::upa(4, 4),
                                          ArrayGeometry::upa(8, 8), rng);
  EXPECT_EQ(link.paths().size(), 1u);
  EXPECT_NEAR(link.total_power(), 1.0, 1e-12);
  EXPECT_EQ(linalg::numerical_rank(link.rx_covariance(), 1e-8), 1u);
}

TEST(SinglePathModelTest, AnglesInsideSector) {
  Rng rng(2);
  AngularSector s{-0.5, 0.5, -0.1, 0.1};
  for (int i = 0; i < 50; ++i) {
    const Link link = make_single_path_link(ArrayGeometry::upa(2, 2),
                                            ArrayGeometry::upa(2, 2), rng, s);
    const Path& p = link.paths()[0];
    EXPECT_GE(p.aod.azimuth, -0.5);
    EXPECT_LE(p.aod.azimuth, 0.5);
    EXPECT_GE(p.aoa.elevation, -0.1);
    EXPECT_LE(p.aoa.elevation, 0.1);
  }
}

TEST(SinglePathModelTest, DifferentDrawsDiffer) {
  Rng rng(3);
  const Link a = make_single_path_link(ArrayGeometry::upa(4, 4),
                                       ArrayGeometry::upa(8, 8), rng);
  const Link b = make_single_path_link(ArrayGeometry::upa(4, 4),
                                       ArrayGeometry::upa(8, 8), rng);
  EXPECT_NE(a.paths()[0].aoa.azimuth, b.paths()[0].aoa.azimuth);
}

TEST(NycModelTest, TotalPowerNormalized) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const Link link = make_nyc_multipath_link(ArrayGeometry::upa(4, 4),
                                              ArrayGeometry::upa(8, 8), rng);
    EXPECT_NEAR(link.total_power(), 1.0, 1e-9);
  }
}

TEST(NycModelTest, SubpathCountIsMultipleOfClusterSize) {
  Rng rng(5);
  const index_t per_cluster = NycClusterParams::subpaths_per_cluster;
  const Link link = make_nyc_multipath_link(ArrayGeometry::upa(2, 2),
                                            ArrayGeometry::upa(4, 4), rng);
  EXPECT_EQ(link.paths().size() % per_cluster, 0u);
  EXPECT_GE(link.paths().size(), per_cluster);
}

TEST(NycModelTest, LowRankEnergyConcentration) {
  // The property the paper exploits: a few spatial dimensions capture most
  // of the channel energy (95% in ≲3 dims for small arrays per [3]).
  Rng rng(6);
  real fraction_acc = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const Link link = make_nyc_multipath_link(ArrayGeometry::upa(4, 4),
                                              ArrayGeometry::upa(4, 4), rng);
    const auto eig = linalg::hermitian_eig(link.rx_covariance());
    // Eigenvalues come sorted descending: the top three's share of Σ|λ|.
    real top = 0.0, total = 0.0;
    for (index_t i = 0; i < eig.eigenvalues.size(); ++i) {
      total += std::abs(eig.eigenvalues[i]);
      if (i < 3) top += std::abs(eig.eigenvalues[i]);
    }
    fraction_acc += top / total;
  }
  EXPECT_GT(fraction_acc / trials, 0.85);
}

TEST(NycModelTest, CovarianceIsPsdHermitian) {
  Rng rng(7);
  const Link link = make_nyc_multipath_link(ArrayGeometry::upa(4, 4),
                                            ArrayGeometry::upa(8, 8), rng);
  const Matrix q = link.rx_covariance();
  EXPECT_TRUE(q.is_hermitian(1e-9));
  const auto eig = linalg::hermitian_eig(q);
  for (const real e : eig.eigenvalues) EXPECT_GE(e, -1e-8);
}

TEST(NycModelTest, ClusterCountVaries) {
  Rng rng(8);
  std::set<index_t> counts;
  for (int t = 0; t < 40; ++t) {
    const Link link = make_nyc_multipath_link(ArrayGeometry::upa(2, 2),
                                              ArrayGeometry::upa(2, 2), rng);
    counts.insert(link.paths().size() /
                  NycClusterParams::subpaths_per_cluster);
  }
  EXPECT_GE(counts.size(), 2u);  // Poisson(1.8) is not degenerate
  for (const index_t k : counts) EXPECT_GE(k, 1u);
}

TEST(NycModelTest, AnglesRespectSector) {
  Rng rng(9);
  const AngularSector sector{-0.6, 0.6, -0.2, 0.2};
  for (int t = 0; t < 10; ++t) {
    const Link link = make_nyc_multipath_link(ArrayGeometry::upa(2, 2),
                                              ArrayGeometry::upa(2, 2), rng,
                                              sector);
    for (const Path& p : link.paths()) {
      EXPECT_GE(p.aod.azimuth, -0.6);
      EXPECT_LE(p.aod.azimuth, 0.6);
      EXPECT_GE(p.aoa.azimuth, -0.6);
      EXPECT_LE(p.aoa.azimuth, 0.6);
      EXPECT_GE(p.aoa.elevation, -0.2);
      EXPECT_LE(p.aoa.elevation, 0.2);
    }
  }
}

TEST(FixedPathsModelTest, PreservesGivenPaths) {
  std::vector<Path> paths{Path{0.7, {0.1, 0.0}, {0.2, 0.0}},
                          Path{0.3, {-0.3, 0.0}, {0.4, 0.1}}};
  const Link link = make_fixed_paths_link(ArrayGeometry::upa(2, 2),
                                          ArrayGeometry::upa(4, 4), paths);
  EXPECT_EQ(link.paths().size(), 2u);
  EXPECT_NEAR(link.paths()[0].power, 0.7, 1e-15);
  EXPECT_EQ(linalg::numerical_rank(link.rx_covariance(), 1e-8), 2u);
}

}  // namespace
}  // namespace mmw::channel
