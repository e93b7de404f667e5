// Scalar ↔ SIMD equivalence of the batched codebook scoring path
// (DESIGN.md §12): seeded sweeps over N ∈ {4, 16, 64, 128} and factor
// widths r ∈ {1..8} asserting BIT-identical scores and IDENTICAL beam
// rankings (including the lowest-index tie-break of DESIGN.md §7) across
// the dispatch tiers, plus score agreement with the historical
// per-codeword formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "antenna/codebook.h"
#include "linalg/factored.h"
#include "linalg/kernels.h"
#include "randgen/rng.h"
#include "ranked.h"

namespace mmw::antenna {
namespace {

namespace kernels = linalg::kernels;
using linalg::FactoredHermitian;
using linalg::Matrix;
using linalg::Vector;
using randgen::Rng;

ArrayGeometry geometry_for(index_t n) {
  switch (n) {
    case 4: return ArrayGeometry::upa(2, 2);
    case 16: return ArrayGeometry::upa(4, 4);
    case 64: return ArrayGeometry::upa(8, 8);
    default: return ArrayGeometry::upa(16, 8);  // 128
  }
}

/// Random N×r matrix with orthonormal columns (Gram–Schmidt on Gaussians).
Matrix random_orthonormal_basis(Rng& rng, index_t n, index_t r) {
  Matrix b(n, r);
  std::vector<Vector> cols;
  for (index_t k = 0; k < r; ++k) {
    Vector v = rng.complex_gaussian_vector(n);
    for (const Vector& c : cols) v -= linalg::dot(c, v) * c;
    cols.push_back(v.normalized());
    b.set_col(k, cols.back());
  }
  return b;
}

/// Random r×r Hermitian PSD core.
Matrix random_psd_core(Rng& rng, index_t r) {
  const Matrix g = rng.complex_gaussian_matrix(r, r);
  return g * g.adjoint();
}

class CodebookTierEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::cpu_supports_avx2())
      GTEST_SKIP() << "CPU/build has no AVX2 tier to compare against";
  }
  void TearDown() override { kernels::reset_tier_for_testing(); }
};

TEST_F(CodebookTierEquivalenceTest, ScoresAndRankingsIdenticalAcrossTiers) {
  for (const index_t n : {4, 16, 64, 128}) {
    const auto cb = Codebook::dft(geometry_for(n));
    for (index_t r = 1; r <= std::min<index_t>(8, n); ++r) {
      // One deterministic stream per (n, r) cell so any failure pinpoints
      // its sweep coordinates.
      Rng rng(1000 * n + r);
      const FactoredHermitian q(random_orthonormal_basis(rng, n, r),
                                random_psd_core(rng, r));
      std::vector<real> scalar(cb.size());
      std::vector<real> avx2(cb.size());
      kernels::force_tier_for_testing(kernels::Tier::kScalar);
      cb.covariance_scores_into(q, scalar);
      const auto ranking_scalar = ranked(scalar, cb.size());
      const auto top3_scalar = ranked(scalar, 3);
      const auto best_scalar = ranked(scalar, 1);
      kernels::force_tier_for_testing(kernels::Tier::kAvx2);
      cb.covariance_scores_into(q, avx2);
      const auto ranking_avx2 = ranked(avx2, cb.size());
      const auto top3_avx2 = ranked(avx2, 3);
      const auto best_avx2 = ranked(avx2, 1);
      EXPECT_EQ(scalar, avx2) << "n=" << n << " r=" << r;
      EXPECT_EQ(ranking_scalar, ranking_avx2) << "n=" << n << " r=" << r;
      EXPECT_EQ(top3_scalar, top3_avx2) << "n=" << n << " r=" << r;
      EXPECT_EQ(best_scalar, best_avx2) << "n=" << n << " r=" << r;
    }
  }
}

TEST_F(CodebookTierEquivalenceTest, DenseScoresIdenticalAcrossTiers) {
  for (const index_t n : {4, 16, 64}) {
    const auto cb = Codebook::dft(geometry_for(n));
    Rng rng(2000 + n);
    const Matrix g = rng.complex_gaussian_matrix(n, n);
    const Matrix q = g * g.adjoint();
    std::vector<real> scalar(cb.size());
    std::vector<real> avx2(cb.size());
    kernels::force_tier_for_testing(kernels::Tier::kScalar);
    cb.covariance_scores_into(q, scalar);
    kernels::force_tier_for_testing(kernels::Tier::kAvx2);
    cb.covariance_scores_into(q, avx2);
    EXPECT_EQ(scalar, avx2) << "n=" << n;
  }
}

// The batched path must preserve the exact scores of the historical
// per-codeword formulas, so beam selections (and the golden figure CSVs
// they drive) cannot move.
TEST(CodebookBatchedScoringTest, MatchesPerCodewordFormulasBitExact) {
  for (const index_t n : {4, 16, 64}) {
    const auto cb = Codebook::dft(geometry_for(n));
    for (index_t r = 1; r <= std::min<index_t>(8, n); ++r) {
      Rng rng(3000 * n + r);
      const FactoredHermitian q(random_orthonormal_basis(rng, n, r),
                                random_psd_core(rng, r));
      const auto scores = cb.covariance_scores(q);
      for (index_t v = 0; v < cb.size(); ++v)
        EXPECT_EQ(scores[v], q.rayleigh(cb.codeword(v)))
            << "n=" << n << " r=" << r << " v=" << v;
      const auto dense = cb.covariance_scores(q.dense());
      for (index_t v = 0; v < cb.size(); ++v)
        EXPECT_EQ(dense[v], linalg::hermitian_form(cb.codeword(v), q.dense()))
            << "n=" << n << " r=" << r << " v=" << v;
    }
  }
}

// Full-mode estimates (is_full(): implicit identity basis) must score
// identically to the plain dense overload — the factored overload routes
// them to the dense kernel.
TEST(CodebookBatchedScoringTest, FullModeMatchesDenseOverload) {
  const auto cb = Codebook::dft(geometry_for(16));
  Rng rng(4016);
  const Matrix g = rng.complex_gaussian_matrix(16, 16);
  const Matrix q = g * g.adjoint();
  const auto full = FactoredHermitian::from_dense(q);
  EXPECT_EQ(cb.covariance_scores(full), cb.covariance_scores(q));
}

// A zero covariance ties every codeword at score 0; the ranking must then
// be 0, 1, 2, … — the lowest-index tie-break the determinism contract
// (DESIGN.md §7) pins, on every tier.
TEST(CodebookBatchedScoringTest, AllTiedScoresRankByLowestIndex) {
  const auto cb = Codebook::dft(geometry_for(16));
  const Matrix zero(16, 16);
  std::vector<real> scores(cb.size());
  cb.covariance_scores_into(zero, scores);
  std::vector<index_t> expected(cb.size());
  std::iota(expected.begin(), expected.end(), index_t{0});
  EXPECT_EQ(ranked(scores, cb.size()), expected);
  if (kernels::cpu_supports_avx2()) {
    kernels::force_tier_for_testing(kernels::Tier::kAvx2);
    cb.covariance_scores_into(zero, scores);
    EXPECT_EQ(ranked(scores, cb.size()), expected);
    kernels::reset_tier_for_testing();
  }
}

// The packed SoA panel is an exact copy of the codewords.
TEST(CodebookBatchedScoringTest, PackedPanelMatchesCodewords) {
  const auto cb = Codebook::dft(geometry_for(16));
  const kernels::SoAComplex& packed = cb.packed();
  ASSERT_EQ(packed.rows(), 16);
  ASSERT_EQ(packed.cols(), cb.size());
  for (index_t v = 0; v < cb.size(); ++v)
    for (index_t i = 0; i < 16; ++i)
      EXPECT_EQ(packed.at(i, v), cb.codeword(v)[i]);
}

}  // namespace
}  // namespace mmw::antenna
