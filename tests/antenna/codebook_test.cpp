#include "antenna/codebook.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "antenna/steering.h"
#include "randgen/rng.h"
#include "ranked.h"

namespace mmw::antenna {
namespace {

using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

TEST(DftCodebookTest, SizeMatchesArray) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  EXPECT_EQ(cb.size(), 16u);
  EXPECT_EQ(cb.grid_x(), 4u);
  EXPECT_EQ(cb.grid_y(), 4u);
  EXPECT_TRUE(cb.wraps());
}

TEST(DftCodebookTest, CodewordsAreUnitNorm) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  for (index_t i = 0; i < cb.size(); ++i)
    EXPECT_NEAR(cb.codeword(i).norm(), 1.0, 1e-12);
}

TEST(DftCodebookTest, CodewordsAreOrthonormal) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 2));
  for (index_t i = 0; i < cb.size(); ++i)
    for (index_t j = 0; j < cb.size(); ++j) {
      const real expected = (i == j) ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(linalg::dot(cb.codeword(i), cb.codeword(j))),
                  expected, 1e-10)
          << i << "," << j;
    }
}

TEST(DftCodebookTest, UlaIsClassicDft) {
  const auto cb = Codebook::dft(ArrayGeometry::ula(4));
  // Codeword k, element i: exp(j2π·ik/4)/2.
  const cx w = std::exp(cx{0.0, 2.0 * M_PI / 4.0});
  for (index_t k = 0; k < 4; ++k)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_NEAR(std::abs(cb.codeword(k)[i] -
                           0.5 * std::pow(w, static_cast<real>(i * k))),
                  0.0, 1e-12);
}

TEST(AngularGridCodebookTest, SizeAndNoWrap) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(4, 4), 6, 5);
  EXPECT_EQ(cb.size(), 30u);
  EXPECT_EQ(cb.grid_x(), 6u);
  EXPECT_EQ(cb.grid_y(), 5u);
  EXPECT_FALSE(cb.wraps());
}

TEST(AngularGridCodebookTest, CodewordsAreSteeringVectors) {
  const auto geo = ArrayGeometry::upa(4, 4);
  const auto cb = Codebook::angular_grid(geo, 3, 3, -1.0, 1.0, -0.5, 0.5);
  // Corner (0,0) is (az_min, el_min).
  const auto expected = steering_vector(geo, {-1.0, -0.5});
  EXPECT_TRUE(linalg::approx_equal(cb.codeword(0), expected, 1e-12));
  // Center of a 3×3 grid is (0, 0).
  const auto center = steering_vector(geo, {0.0, 0.0});
  EXPECT_TRUE(linalg::approx_equal(cb.codeword(4), center, 1e-12));
}

TEST(CodebookTest, CoordinatesRoundTrip) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(4, 4), 5, 3);
  for (index_t i = 0; i < cb.size(); ++i) {
    const auto [x, y] = cb.coordinates(i);
    EXPECT_EQ(x * cb.grid_y() + y, i);
    EXPECT_LT(x, cb.grid_x());
    EXPECT_LT(y, cb.grid_y());
  }
  EXPECT_THROW(cb.coordinates(cb.size()), precondition_error);
}

TEST(CodebookTest, InteriorNeighborsAreFour) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(4, 4), 5, 5);
  const index_t center = 2 * 5 + 2;
  const auto n = cb.neighbors(center);
  EXPECT_EQ(n.size(), 4u);
  const std::set<index_t> expected{1 * 5 + 2, 3 * 5 + 2, 2 * 5 + 1, 2 * 5 + 3};
  EXPECT_EQ(std::set<index_t>(n.begin(), n.end()), expected);
}

TEST(CodebookTest, CornerNeighborsWithoutWrap) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(4, 4), 5, 5);
  EXPECT_EQ(cb.neighbors(0).size(), 2u);
}

TEST(CodebookTest, CornerNeighborsWithWrap) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  EXPECT_EQ(cb.neighbors(0).size(), 4u);  // wraps both axes
}

TEST(CodebookTest, BestMatchFindsExactCodeword) {
  Rng rng(3);
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  for (index_t i = 0; i < cb.size(); ++i)
    EXPECT_EQ(cb.best_match(cb.codeword(i)), i);
}

TEST(CodebookTest, BestMatchIgnoresGlobalPhase) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  const Vector rotated = cb.codeword(7) * cx{0.0, 1.0};  // multiply by i
  EXPECT_EQ(cb.best_match(rotated), 7u);
}

TEST(CodebookTest, BestForCovarianceFindsPlantedBeam) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  const Vector planted = cb.codeword(11);
  const Matrix q = Matrix::outer(planted, planted) * cx{5.0, 0.0};
  EXPECT_EQ(ranked(cb.covariance_scores(q), 1), std::vector<index_t>{11});
}

TEST(CodebookTest, TopKOrderingAndShape) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  Matrix q = Matrix::outer(cb.codeword(3), cb.codeword(3)) * cx{5.0, 0.0} +
             Matrix::outer(cb.codeword(9), cb.codeword(9)) * cx{2.0, 0.0};
  const auto scores = cb.covariance_scores(q);
  const auto top = ranked(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 9u);
  EXPECT_TRUE(ranked(scores, 0).empty());
  EXPECT_EQ(ranked(scores, cb.size() + 1).size(), cb.size());
  std::vector<real> short_buffer(cb.size() - 1);
  EXPECT_THROW(cb.covariance_scores_into(q, short_buffer), precondition_error);
}

TEST(CodebookTest, SerpentineVisitsAllOnceAdjacently) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(4, 4), 6, 4);
  const auto order = cb.serpentine_order();
  EXPECT_EQ(order.size(), cb.size());
  std::set<index_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), cb.size());
  for (index_t k = 1; k < order.size(); ++k) {
    const auto [x1, y1] = cb.coordinates(order[k - 1]);
    const auto [x2, y2] = cb.coordinates(order[k]);
    const index_t manhattan = (x1 > x2 ? x1 - x2 : x2 - x1) +
                              (y1 > y2 ? y1 - y2 : y2 - y1);
    EXPECT_EQ(manhattan, 1u) << "step " << k;
  }
}

TEST(QuantizedCodebookTest, ConstantModulusAndQuantizedPhases) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(4, 4), 4, 4);
  const auto q = cb.with_quantized_phases(2);  // 4 phase levels
  ASSERT_EQ(q.size(), cb.size());
  EXPECT_EQ(q.grid_x(), cb.grid_x());
  const real modulus = 0.25;  // 1/√16
  for (index_t i = 0; i < q.size(); ++i) {
    for (index_t k = 0; k < 16; ++k) {
      const cx v = q.codeword(i)[k];
      EXPECT_NEAR(std::abs(v), modulus, 1e-12);
      // Phase on the 4-level grid {0, ±π/2, π}.
      const real phase = std::arg(v);
      const real nearest = (M_PI / 2.0) * std::round(phase / (M_PI / 2.0));
      EXPECT_NEAR(std::remainder(phase - nearest, 2.0 * M_PI), 0.0, 1e-9);
    }
    EXPECT_NEAR(q.codeword(i).norm(), 1.0, 1e-12);
  }
}

TEST(QuantizedCodebookTest, HighResolutionApproachesIdeal) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(4, 4), 4, 4);
  const auto q8 = cb.with_quantized_phases(8);
  for (index_t i = 0; i < cb.size(); ++i)
    EXPECT_GT(std::abs(linalg::dot(q8.codeword(i), cb.codeword(i))), 0.999);
}

TEST(QuantizedCodebookTest, CoarseQuantizationDegradesCorrelation) {
  const auto cb = Codebook::angular_grid(ArrayGeometry::upa(8, 8), 8, 8);
  real corr1 = 0.0, corr4 = 0.0;
  const auto q1 = cb.with_quantized_phases(1);
  const auto q4 = cb.with_quantized_phases(4);
  for (index_t i = 0; i < cb.size(); ++i) {
    corr1 += std::abs(linalg::dot(q1.codeword(i), cb.codeword(i)));
    corr4 += std::abs(linalg::dot(q4.codeword(i), cb.codeword(i)));
  }
  EXPECT_LT(corr1, corr4);
  EXPECT_GT(corr1 / cb.size(), 0.5);  // even 1 bit keeps most of the lobe
}

TEST(QuantizedCodebookTest, BitsValidation) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(2, 2));
  EXPECT_THROW(cb.with_quantized_phases(0), precondition_error);
  EXPECT_THROW(cb.with_quantized_phases(17), precondition_error);
}

TEST(CodebookTest, TopKBreaksExactTiesByLowestIndex) {
  // A zero covariance scores every codeword exactly 0.0 — the fully tied
  // case. The ranking contract (lowest codeword index first) makes the
  // result a pure function of the scores instead of partial_sort
  // internals; the eigen-directed J-th measurement relies on this for
  // bit-exact determinism.
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  const Matrix zero(cb.codeword(0).size(), cb.codeword(0).size());
  const auto scores = cb.covariance_scores(zero);
  const auto top = ranked(scores, cb.size());
  ASSERT_EQ(top.size(), cb.size());
  for (index_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i], i);
  EXPECT_EQ(ranked(scores, 1), std::vector<index_t>{0});
}

TEST(CodebookTest, FactoredTopKBreaksExactTiesByLowestIndex) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  const auto zero = linalg::FactoredHermitian::from_dense(
      Matrix(cb.codeword(0).size(), cb.codeword(0).size()));
  const auto top = ranked(cb.covariance_scores(zero), 5);
  ASSERT_EQ(top.size(), 5u);
  for (index_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i], i);
}

TEST(CodebookTest, TopKDeterministicWithPlantedWinner) {
  // A planted beam strictly wins; the near-zero cross-correlation scores
  // behind it are not exact ties in floating point, so assert the winner
  // and call-to-call stability of the full ranking.
  const auto cb = Codebook::dft(ArrayGeometry::upa(4, 4));
  const Vector planted = cb.codeword(6);
  const Matrix q = Matrix::outer(planted, planted) * cx{4.0, 0.0};
  const auto top = ranked(cb.covariance_scores(q), 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0], 6u);
  EXPECT_EQ(top, ranked(cb.covariance_scores(q), 4));
}

TEST(CodebookTest, TwoWideWrapHasNoDuplicateNeighbors) {
  const auto cb = Codebook::dft(ArrayGeometry::upa(2, 2));
  for (index_t i = 0; i < cb.size(); ++i) {
    const auto n = cb.neighbors(i);
    const std::set<index_t> unique(n.begin(), n.end());
    EXPECT_EQ(unique.size(), n.size());
  }
}

}  // namespace
}  // namespace mmw::antenna
