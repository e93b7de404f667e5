#include "linalg/eig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "planted_spectrum.h"
#include "randgen/rng.h"

namespace mmw::linalg {
namespace {

using randgen::Rng;

/// Hermitian dilation [[0, A], [Aᴴ, 0]] of a square A.
Matrix dilation(const Matrix& a) {
  const index_t n = a.rows();
  Matrix h(2 * n, 2 * n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      h(i, n + j) = a(i, j);
      h(n + j, i) = std::conj(a(i, j));
    }
  return h;
}

TEST(EigTest, DiagonalMatrix) {
  const real d[] = {3.0, -1.0, 2.0};
  const EigResult r = hermitian_eig(Matrix::diagonal(std::span<const real>(d)));
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_NEAR(r.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], -1.0, 1e-12);
}

TEST(EigTest, RequiresSquareHermitian) {
  EXPECT_THROW(hermitian_eig(Matrix(2, 3)), precondition_error);
  Matrix not_h{{cx{0, 0}, cx{1, 0}}, {cx{2, 0}, cx{0, 0}}};
  EXPECT_THROW(hermitian_eig(not_h), precondition_error);
}

TEST(EigTest, PauliY) {
  // σ_y has eigenvalues ±1.
  Matrix m{{cx{0, 0}, cx{0, -1}}, {cx{0, 1}, cx{0, 0}}};
  const EigResult r = hermitian_eig(m);
  EXPECT_NEAR(r.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], -1.0, 1e-12);
}

TEST(EigTest, ReconstructsInput) {
  Rng rng(42);
  const std::vector<real> eigs{5.0, 2.5, 1.0, 0.25, -0.5};
  Matrix a = hermitian_with_spectrum(rng, eigs);
  const EigResult r = hermitian_eig(a);
  // A = V Λ Vᴴ
  Matrix rebuilt(a.rows(), a.cols());
  for (index_t k = 0; k < eigs.size(); ++k) {
    const Vector vk = r.eigenvectors.col(k);
    rebuilt += cx{r.eigenvalues[k], 0.0} * Matrix::outer(vk, vk);
  }
  EXPECT_TRUE(approx_equal(rebuilt, a, 1e-9 * a.frobenius_norm()));
}

TEST(EigTest, EigenvectorsAreOrthonormal) {
  Rng rng(7);
  Matrix a = hermitian_with_spectrum(rng, {4.0, 3.0, 2.0, 1.0});
  const EigResult r = hermitian_eig(a);
  const Matrix vhv = r.eigenvectors.adjoint() * r.eigenvectors;
  EXPECT_TRUE(approx_equal(vhv, Matrix::identity(4), 1e-10));
}

TEST(EigTest, EigenpairsSatisfyDefinition) {
  Rng rng(11);
  Matrix a = hermitian_with_spectrum(rng, {10.0, 5.0, 1.0});
  const EigResult r = hermitian_eig(a);
  for (index_t k = 0; k < 3; ++k) {
    const Vector vk = r.eigenvectors.col(k);
    const Vector av = a * vk;
    const Vector lv = cx{r.eigenvalues[k], 0.0} * vk;
    EXPECT_TRUE(approx_equal(av, lv, 1e-9)) << "eigenpair " << k;
  }
}

TEST(EigTest, DegenerateSpectrum) {
  Rng rng(3);
  Matrix a = hermitian_with_spectrum(rng, {2.0, 2.0, 2.0, 1.0});
  const EigResult r = hermitian_eig(a);
  EXPECT_NEAR(r.eigenvalues[0], 2.0, 1e-10);
  EXPECT_NEAR(r.eigenvalues[2], 2.0, 1e-10);
  EXPECT_NEAR(r.eigenvalues[3], 1.0, 1e-10);
  const Matrix vhv = r.eigenvectors.adjoint() * r.eigenvectors;
  EXPECT_TRUE(approx_equal(vhv, Matrix::identity(4), 1e-10));
}

TEST(EigTest, TraceEqualsEigenvalueSum) {
  Rng rng(19);
  Matrix a = hermitian_with_spectrum(rng, {3.0, 1.0, -2.0, 0.5, 4.0, -1.0});
  const EigResult r = hermitian_eig(a);
  real sum = 0.0;
  for (const real e : r.eigenvalues) sum += e;
  EXPECT_NEAR(sum, a.trace().real(), 1e-9);
}

TEST(EigTest, LargeRandomMatrixConverges) {
  Rng rng(101);
  Matrix g = rng.complex_gaussian_matrix(64, 64);
  Matrix a = (g + g.adjoint()) * cx{0.5, 0.0};
  const EigResult r = hermitian_eig(a);
  // Spot-check the dominant eigenpair.
  const Vector v0 = r.eigenvectors.col(0);
  EXPECT_TRUE(
      approx_equal(a * v0, cx{r.eigenvalues[0], 0.0} * v0, 1e-8));
  // Descending order.
  for (index_t k = 1; k < 64; ++k)
    EXPECT_GE(r.eigenvalues[k - 1], r.eigenvalues[k]);
}

TEST(EigTest, PrincipalEigenvectorOfRankOne) {
  Rng rng(5);
  Vector x = rng.random_unit_vector(8);
  Matrix a = Matrix::outer(x, x) * cx{6.0, 0.0};
  const EigResult r = hermitian_eig(a);
  EXPECT_NEAR(r.eigenvalues[0], 6.0, 1e-9);
  // Principal eigenvector matches x up to a global phase.
  EXPECT_NEAR(std::abs(dot(r.principal_eigenvector(), x)), 1.0, 1e-9);
}

TEST(EigTest, EnergyFractionOfLowRank) {
  Rng rng(13);
  Matrix a = hermitian_with_spectrum(rng, {10.0, 9.0, 0.5, 0.25, 0.25, 0.0});
  const EigResult r = hermitian_eig(a);
  EXPECT_NEAR(r.energy_fraction(2), 19.0 / 20.0, 1e-9);
  EXPECT_NEAR(r.energy_fraction(6), 1.0, 1e-12);
  EXPECT_NEAR(r.energy_fraction(0), 0.0, 1e-12);
}

// -------------------------------------------- QL structure and spectra ----

TEST(EigQlTest, MatchesPlantedSpectrum) {
  Rng rng(61);
  for (const index_t n : {index_t{2}, index_t{5}, index_t{16}, index_t{40}}) {
    std::vector<real> eigs(n);
    for (real& e : eigs) e = rng.uniform(-5.0, 5.0);
    const EigResult r = hermitian_eig(hermitian_with_spectrum(rng, eigs));
    std::sort(eigs.begin(), eigs.end(), std::greater<>());
    for (index_t k = 0; k < n; ++k)
      EXPECT_NEAR(r.eigenvalues[k], eigs[k], 1e-10 * (1.0 + std::abs(eigs[k])))
          << "n=" << n << " k=" << k;
  }
}

TEST(EigQlTest, DilationOfRankDeficientMatrixDeflates) {
  // [[0, A], [Aᴴ, 0]] of a rank-r n×n A has spectrum ±σ₁..±σ_r plus a
  // cluster of 2(n − r) exact zeros, where a neighbour-relative deflation
  // test never fires; the norm-relative (tql2) test must.
  for (const index_t n : {index_t{8}, index_t{32}, index_t{64}}) {
    for (const index_t rank : {index_t{1}, index_t{2}}) {
      for (std::uint64_t seed = 0; seed < 50; ++seed) {
        Rng rng = Rng::stream(0xd11a7e, n, rank, seed);
        const Matrix x = random_orthonormal_columns(rng, n, rank);
        const Matrix y = random_orthonormal_columns(rng, n, rank);
        std::vector<real> sigma(rank);
        for (real& s : sigma) s = rng.uniform(0.5, 2.0);
        std::sort(sigma.begin(), sigma.end(), std::greater<>());
        Matrix a(n, n);
        for (index_t k = 0; k < rank; ++k)
          a += cx{sigma[k], 0.0} * Matrix::outer(x.col(k), y.col(k));

        std::vector<real> expected(2 * n, 0.0);
        for (index_t k = 0; k < rank; ++k) {
          expected[k] = sigma[k];
          expected[2 * n - 1 - k] = -sigma[k];
        }
        EigResult r;
        ASSERT_NO_THROW(r = hermitian_eig(dilation(a)))
            << "n=" << n << " rank=" << rank << " seed=" << seed;
        for (index_t k = 0; k < 2 * n; ++k)
          ASSERT_NEAR(r.eigenvalues[k], expected[k], 1e-9 * sigma[0])
              << "n=" << n << " rank=" << rank << " seed=" << seed
              << " k=" << k;
      }
    }
  }
}

TEST(EigQlTest, EigenpairsSatisfyDefinition) {
  Rng rng(62);
  Matrix g = rng.complex_gaussian_matrix(24, 24);
  Matrix a = (g + g.adjoint()) * cx{0.5, 0.0};
  const EigResult r = hermitian_eig(a);
  for (index_t k = 0; k < 24; ++k) {
    const Vector vk = r.eigenvectors.col(k);
    EXPECT_TRUE(approx_equal(a * vk, cx{r.eigenvalues[k], 0.0} * vk, 1e-9));
  }
  const Matrix vhv = r.eigenvectors.adjoint() * r.eigenvectors;
  EXPECT_TRUE(approx_equal(vhv, Matrix::identity(24), 1e-10));
}

TEST(EigQlTest, DiagonalAndTinyMatrices) {
  const real d[] = {4.0, -2.0, 1.0};
  const EigResult r =
      hermitian_eig(Matrix::diagonal(std::span<const real>(d)));
  EXPECT_NEAR(r.eigenvalues[0], 4.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], -2.0, 1e-12);
  // 1×1.
  Matrix one{{cx{7.0, 0.0}}};
  EXPECT_NEAR(hermitian_eig(one).eigenvalues[0], 7.0, 1e-12);
}

TEST(EigQlTest, ComplexPhaseStructurePreserved) {
  // A matrix whose Householder reduction produces genuinely complex
  // off-diagonals; the phase-folding step must keep eigenvectors exact.
  Rng rng(63);
  Vector x = rng.random_unit_vector(12);
  Matrix a = Matrix::outer(x, x) * cx{3.0, 0.0} +
             Matrix::identity(12) * cx{0.5, 0.0};
  const EigResult r = hermitian_eig(a);
  EXPECT_NEAR(r.eigenvalues[0], 3.5, 1e-10);
  EXPECT_NEAR(std::abs(dot(r.principal_eigenvector(), x)), 1.0, 1e-9);
}

TEST(EigQlTest, RejectsNonHermitian) {
  Matrix not_h{{cx{0, 0}, cx{1, 0}}, {cx{2, 0}, cx{0, 0}}};
  EXPECT_THROW(hermitian_eig(not_h), precondition_error);
  EXPECT_THROW(hermitian_eig(Matrix(2, 3)), precondition_error);
}

// ---------------------------------------------------------------- SVD -----

TEST(SvdTest, DiagonalRectangular) {
  Matrix a(3, 2);
  a(0, 0) = cx{3, 0};
  a(1, 1) = cx{2, 0};
  const SvdResult s = svd(a);
  ASSERT_EQ(s.singular_values.size(), 2u);
  EXPECT_NEAR(s.singular_values[0], 3.0, 1e-10);
  EXPECT_NEAR(s.singular_values[1], 2.0, 1e-10);
}

TEST(SvdTest, ReconstructsTallMatrix) {
  Rng rng(31);
  Matrix a = rng.complex_gaussian_matrix(6, 4);
  const SvdResult s = svd(a);
  Matrix rebuilt(6, 4);
  for (index_t k = 0; k < 4; ++k) {
    const Vector uk = s.u.col(k);
    const Vector vk = s.v.col(k);
    rebuilt += cx{s.singular_values[k], 0.0} * Matrix::outer(uk, vk);
  }
  EXPECT_TRUE(approx_equal(rebuilt, a, 1e-8 * a.frobenius_norm()));
}

TEST(SvdTest, ReconstructsWideMatrix) {
  Rng rng(37);
  Matrix a = rng.complex_gaussian_matrix(3, 7);
  const SvdResult s = svd(a);
  ASSERT_EQ(s.singular_values.size(), 3u);
  Matrix rebuilt(3, 7);
  for (index_t k = 0; k < 3; ++k)
    rebuilt += cx{s.singular_values[k], 0.0} *
               Matrix::outer(s.u.col(k), s.v.col(k));
  EXPECT_TRUE(approx_equal(rebuilt, a, 1e-8 * a.frobenius_norm()));
}

TEST(SvdTest, SingularValuesNonNegativeDescending) {
  Rng rng(41);
  Matrix a = rng.complex_gaussian_matrix(8, 8);
  const SvdResult s = svd(a);
  for (index_t k = 0; k < s.singular_values.size(); ++k) {
    EXPECT_GE(s.singular_values[k], 0.0);
    if (k > 0) {
      EXPECT_GE(s.singular_values[k - 1], s.singular_values[k]);
    }
  }
}

TEST(SvdTest, RankDeficientHasZeroSingularValues) {
  Rng rng(43);
  Vector x = rng.random_unit_vector(5);
  Vector y = rng.random_unit_vector(5);
  Matrix a = Matrix::outer(x, y);  // rank 1
  const SvdResult s = svd(a);
  EXPECT_NEAR(s.singular_values[0], 1.0, 1e-9);
  for (index_t k = 1; k < 5; ++k)
    EXPECT_NEAR(s.singular_values[k], 0.0, 1e-7);
}

TEST(SvdTest, RankDeficientTallAndWideHaveOrthonormalFactors) {
  // Null-space columns of U and V come from completion, not from the
  // (mixed) zero eigenpairs of the dilation; they must stay orthonormal on
  // both sides for tall, wide and square inputs alike.
  struct Shape {
    index_t rows, cols, rank;
  };
  Rng rng(47);
  for (const Shape& sh : {Shape{12, 5, 2}, Shape{5, 12, 2}, Shape{9, 4, 1},
                          Shape{4, 9, 1}, Shape{6, 6, 3}, Shape{3, 7, 0}}) {
    const Matrix x = random_orthonormal_columns(rng, sh.rows, sh.rank);
    const Matrix y = random_orthonormal_columns(rng, sh.cols, sh.rank);
    Matrix a(sh.rows, sh.cols);
    for (index_t k = 0; k < sh.rank; ++k)
      a += cx{3.0 - k, 0.0} * Matrix::outer(x.col(k), y.col(k));
    const SvdResult s = svd(a);
    SCOPED_TRACE(::testing::Message()
                 << sh.rows << "x" << sh.cols << " rank " << sh.rank);
    const index_t r = std::min(sh.rows, sh.cols);
    ASSERT_EQ(s.singular_values.size(), r);
    EXPECT_TRUE(approx_equal(s.u.adjoint() * s.u, Matrix::identity(r), 1e-9));
    EXPECT_TRUE(approx_equal(s.v.adjoint() * s.v, Matrix::identity(r), 1e-9));
    Matrix rebuilt(sh.rows, sh.cols);
    for (index_t k = 0; k < r; ++k) {
      EXPECT_NEAR(s.singular_values[k], k < sh.rank ? 3.0 - k : 0.0, 1e-12);
      rebuilt += cx{s.singular_values[k], 0.0} *
                 Matrix::outer(s.u.col(k), s.v.col(k));
    }
    EXPECT_TRUE(approx_equal(rebuilt, a, 1e-9));
  }
}

TEST(SvdTest, KeepsSmallSingularValuesAtCallerShapes) {
  // Planted σ from 1 down to 1e-9 at the 64×16 channel shape of the MIMO
  // capacity and hybrid precoder callers, and its wide transpose. Through a
  // Gram matrix σ² = 1e-18 drowns in rounding of order 1e-16, so σ_min
  // would be off by ~1e-7; the dilation of R keeps it to rounding.
  Rng rng(53);
  for (const auto& [rows, cols] :
       {std::pair<index_t, index_t>{64, 16}, {16, 64}}) {
    const index_t r = std::min(rows, cols);
    const Matrix x = random_orthonormal_columns(rng, rows, r);
    const Matrix y = random_orthonormal_columns(rng, cols, r);
    std::vector<real> sigma(r);
    Matrix a(rows, cols);
    for (index_t k = 0; k < r; ++k) {
      sigma[k] = std::pow(10.0, -9.0 * static_cast<real>(k) /
                                    static_cast<real>(r - 1));
      a += cx{sigma[k], 0.0} * Matrix::outer(x.col(k), y.col(k));
    }
    const SvdResult s = svd(a);
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
    ASSERT_EQ(s.singular_values.size(), r);
    for (index_t k = 0; k < r; ++k)
      EXPECT_NEAR(s.singular_values[k], sigma[k], 1e-12);
    // The halves of the dilation's eigenvectors are orthonormal only to
    // ε/gap (~1e-7 here); the factors must be orthonormal to rounding.
    EXPECT_TRUE(
        approx_equal(s.u.adjoint() * s.u, Matrix::identity(r), 1e-12));
    EXPECT_TRUE(
        approx_equal(s.v.adjoint() * s.v, Matrix::identity(r), 1e-12));
    Matrix rebuilt(rows, cols);
    for (index_t k = 0; k < r; ++k)
      rebuilt += cx{s.singular_values[k], 0.0} *
                 Matrix::outer(s.u.col(k), s.v.col(k));
    EXPECT_TRUE(approx_equal(rebuilt, a, 1e-12));
  }
}

TEST(SvdTest, EmptyThrows) { EXPECT_THROW(svd(Matrix()), precondition_error); }

}  // namespace
}  // namespace mmw::linalg
