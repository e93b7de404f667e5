#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <vector>

#include "linalg/factored.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "randgen/rng.h"

namespace mmw::linalg::kernels {
namespace {

using randgen::Rng;

/// Random N×r matrix with orthonormal columns (Gram–Schmidt on Gaussians).
Matrix random_orthonormal_basis(Rng& rng, index_t n, index_t r) {
  Matrix b(n, r);
  std::vector<Vector> cols;
  for (index_t k = 0; k < r; ++k) {
    Vector v = rng.complex_gaussian_vector(n);
    for (const Vector& c : cols) v -= dot(c, v) * c;
    cols.push_back(v.normalized());
    b.set_col(k, cols.back());
  }
  return b;
}

/// Random r×r Hermitian core (indefinite is fine for kernel tests).
Matrix random_hermitian(Rng& rng, index_t r) {
  const Matrix g = rng.complex_gaussian_matrix(r, r);
  return (g + g.adjoint()) * cx{0.5, 0.0};
}

std::vector<Vector> random_codewords(Rng& rng, index_t n, index_t count) {
  std::vector<Vector> out;
  out.reserve(count);
  for (index_t v = 0; v < count; ++v)
    out.push_back(rng.random_unit_vector(n));
  return out;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

TEST(KernelDispatchTest, ActiveTierIsNamed) {
  const Tier t = active_tier();
  EXPECT_TRUE(t == Tier::kScalar || t == Tier::kAvx2);
  EXPECT_TRUE(active_tier_name() == "scalar" || active_tier_name() == "avx2");
  EXPECT_EQ(tier_name(t), active_tier_name());
}

TEST(KernelDispatchTest, Avx2TierRequiresCpuSupport) {
  if (cpu_supports_avx2()) {
    force_tier_for_testing(Tier::kAvx2);
    EXPECT_EQ(active_tier(), Tier::kAvx2);
    reset_tier_for_testing();
  } else {
    EXPECT_THROW(force_tier_for_testing(Tier::kAvx2), precondition_error);
  }
}

TEST(KernelDispatchTest, ForceAndResetRoundTrip) {
  const Tier original = active_tier();
  force_tier_for_testing(Tier::kScalar);
  EXPECT_EQ(active_tier(), Tier::kScalar);
  reset_tier_for_testing();
  EXPECT_EQ(active_tier(), original);
}

// ---------------------------------------------------------------------------
// Scoring workspace (arena_high_water_bytes keeps the name of the bump
// arena the workspace replaced)
// ---------------------------------------------------------------------------

TEST(ArenaTest, HighWaterTracksPeakUse) {
  Rng rng(2);
  const index_t n = 24;
  const index_t r = 7;
  const index_t count = 300;  // 4·r·count doubles: a pass of ~66 KB
  const Matrix basis = random_orthonormal_basis(rng, n, r);
  const Matrix core = random_hermitian(rng, r);
  const SoAComplex packed =
      SoAComplex::pack_columns(random_codewords(rng, n, count));
  std::vector<real> out(count);
  factored_scores(basis, core, packed, out);
  const std::size_t peak = arena_high_water_bytes();
  EXPECT_GE(peak, 4 * r * count * sizeof(double));
  // The same shape again reuses the thread's workspace.
  factored_scores(basis, core, packed, out);
  EXPECT_EQ(arena_high_water_bytes(), peak);
}

// ---------------------------------------------------------------------------
// SoA packing
// ---------------------------------------------------------------------------

TEST(SoAComplexTest, PackColumnsRoundTrips) {
  Rng rng(3);
  const auto codewords = random_codewords(rng, 7, 5);
  const SoAComplex packed = SoAComplex::pack_columns(codewords);
  EXPECT_EQ(packed.rows(), 7);
  EXPECT_EQ(packed.cols(), 5);
  for (index_t v = 0; v < 5; ++v)
    for (index_t i = 0; i < 7; ++i) EXPECT_EQ(packed.at(i, v), codewords[v][i]);
}

// ---------------------------------------------------------------------------
// Batched kernels vs the historical per-codeword formulas (bit-exact)
// ---------------------------------------------------------------------------

TEST(KernelEquivalenceTest, FactoredScoresMatchRayleighBitExact) {
  Rng rng(4);
  for (const index_t n : {4, 16, 64}) {
    for (index_t r = 1; r <= std::min<index_t>(8, n); ++r) {
      const Matrix basis = random_orthonormal_basis(rng, n, r);
      const Matrix core = random_hermitian(rng, r);
      const FactoredHermitian q(basis, core);
      const auto codewords = random_codewords(rng, n, 2 * n + 3);
      const SoAComplex packed = SoAComplex::pack_columns(codewords);
      std::vector<real> batched(codewords.size());
      factored_scores(basis, core, packed, batched);
      for (index_t v = 0; v < codewords.size(); ++v)
        EXPECT_EQ(batched[v], q.rayleigh(codewords[v]))
            << "n=" << n << " r=" << r << " v=" << v;
    }
  }
}

TEST(KernelEquivalenceTest, DenseScoresMatchHermitianFormBitExact) {
  Rng rng(5);
  for (const index_t n : {4, 16, 64}) {
    const Matrix q = random_hermitian(rng, n);
    const auto codewords = random_codewords(rng, n, n + 5);
    const SoAComplex packed = SoAComplex::pack_columns(codewords);
    std::vector<real> batched(codewords.size());
    dense_scores(q, packed, batched);
    for (index_t v = 0; v < codewords.size(); ++v)
      EXPECT_EQ(batched[v], hermitian_form(codewords[v], q))
          << "n=" << n << " v=" << v;
  }
}

TEST(KernelEquivalenceTest, AdjointGemmMatchesProjectBitExact) {
  Rng rng(6);
  const index_t n = 16;
  const index_t r = 5;
  const index_t count = 11;  // odd: exercises every SIMD tail
  const Matrix basis = random_orthonormal_basis(rng, n, r);
  const FactoredHermitian q(basis, random_hermitian(rng, r));
  const auto codewords = random_codewords(rng, n, count);
  const SoAComplex packed = SoAComplex::pack_columns(codewords);
  std::vector<double> re(r * count), im(r * count);
  SoAView proj{re.data(), im.data(), r, count};
  adjoint_gemm_batch(basis, packed.view(), proj);
  for (index_t v = 0; v < count; ++v) {
    const Vector p = q.project(codewords[v]);
    for (index_t k = 0; k < r; ++k) {
      EXPECT_EQ(proj.re[k * count + v], p[k].real());
      EXPECT_EQ(proj.im[k * count + v], p[k].imag());
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar ↔ AVX2 tier equivalence (bit-exact across the dispatch boundary)
// ---------------------------------------------------------------------------

class TierEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cpu_supports_avx2())
      GTEST_SKIP() << "CPU/build has no AVX2 tier to compare against";
  }
  void TearDown() override { reset_tier_for_testing(); }
};

TEST_F(TierEquivalenceTest, FactoredScoresBitIdenticalAcrossTiers) {
  Rng rng(7);
  for (const index_t n : {4, 16, 64, 128}) {
    for (index_t r = 1; r <= std::min<index_t>(8, n); ++r) {
      const Matrix basis = random_orthonormal_basis(rng, n, r);
      const Matrix core = random_hermitian(rng, r);
      // Codeword counts straddling the 8- and 4-lane kernel blocks.
      const auto codewords = random_codewords(rng, n, n + 3);
      const SoAComplex packed = SoAComplex::pack_columns(codewords);
      std::vector<real> scalar(codewords.size());
      std::vector<real> avx2(codewords.size());
      force_tier_for_testing(Tier::kScalar);
      factored_scores(basis, core, packed, scalar);
      force_tier_for_testing(Tier::kAvx2);
      factored_scores(basis, core, packed, avx2);
      EXPECT_EQ(scalar, avx2) << "n=" << n << " r=" << r;
    }
  }
}

TEST_F(TierEquivalenceTest, DenseScoresBitIdenticalAcrossTiers) {
  Rng rng(8);
  for (const index_t n : {4, 16, 64, 128}) {
    const Matrix q = random_hermitian(rng, n);
    const auto codewords = random_codewords(rng, n, n + 1);
    const SoAComplex packed = SoAComplex::pack_columns(codewords);
    std::vector<real> scalar(codewords.size());
    std::vector<real> avx2(codewords.size());
    force_tier_for_testing(Tier::kScalar);
    dense_scores(q, packed, scalar);
    force_tier_for_testing(Tier::kAvx2);
    dense_scores(q, packed, avx2);
    EXPECT_EQ(scalar, avx2) << "n=" << n;
  }
}

}  // namespace
}  // namespace mmw::linalg::kernels
