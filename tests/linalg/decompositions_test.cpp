#include "linalg/decompositions.h"

#include <gtest/gtest.h>

#include <cmath>

#include "randgen/rng.h"

namespace mmw::linalg {
namespace {

using randgen::Rng;

Matrix random_psd(Rng& rng, index_t n, index_t rank) {
  Matrix a(n, n);
  for (index_t k = 0; k < rank; ++k) {
    Vector x = rng.complex_gaussian_vector(n);
    a += Matrix::outer(x, x);
  }
  return (a + a.adjoint()) * cx{0.5, 0.0};
}

TEST(CholeskyTest, IdentityFactorsToIdentity) {
  Matrix l = cholesky(Matrix::identity(4));
  EXPECT_TRUE(approx_equal(l, Matrix::identity(4), 1e-12));
}

TEST(CholeskyTest, ReconstructsPositiveDefinite) {
  Rng rng(5);
  Matrix a = random_psd(rng, 6, 6) + Matrix::identity(6) * cx{0.1, 0.0};
  Matrix l = cholesky(a);
  EXPECT_TRUE(approx_equal(l * l.adjoint(), a, 1e-9 * a.frobenius_norm()));
}

TEST(CholeskyTest, LowerTriangular) {
  Rng rng(6);
  Matrix a = random_psd(rng, 5, 5) + Matrix::identity(5) * cx{0.1, 0.0};
  Matrix l = cholesky(a);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = i + 1; j < 5; ++j)
      EXPECT_NEAR(std::abs(l(i, j)), 0.0, 1e-12);
}

TEST(CholeskyTest, SemiDefiniteAccepted) {
  Rng rng(7);
  // Rank-2 PSD 5×5 matrix.
  Matrix a = random_psd(rng, 5, 2);
  Matrix l = cholesky(a);
  EXPECT_TRUE(approx_equal(l * l.adjoint(), a, 1e-7 * a.frobenius_norm()));
}

TEST(CholeskyTest, IndefiniteRejected) {
  const real d[] = {1.0, -1.0};
  EXPECT_THROW(cholesky(Matrix::diagonal(std::span<const real>(d))),
               precondition_error);
}

TEST(CholeskyTest, NonHermitianRejected) {
  Matrix m{{cx{1, 0}, cx{1, 0}}, {cx{0, 0}, cx{1, 0}}};
  EXPECT_THROW(cholesky(m), precondition_error);
}

TEST(LuTest, DecomposeMarksSingular) {
  Matrix a(3, 3);  // zero matrix
  EXPECT_TRUE(lu_decompose(a).singular);
  EXPECT_FALSE(lu_decompose(Matrix::identity(3)).singular);
}

TEST(LuTest, DeterminantOfDiagonal) {
  const real d[] = {2.0, 3.0, -1.0};
  const cx det = determinant(Matrix::diagonal(std::span<const real>(d)));
  EXPECT_NEAR(det.real(), -6.0, 1e-10);
  EXPECT_NEAR(det.imag(), 0.0, 1e-10);
}

TEST(LuTest, DeterminantSingularIsZero) {
  Matrix a(2, 2);
  a(0, 0) = cx{1, 0};
  a(1, 0) = cx{1, 0};
  EXPECT_EQ(determinant(a), (cx{0, 0}));
}

TEST(LuTest, DeterminantMatchesPermutationSign) {
  // [[0,1],[1,0]] has determinant −1 and requires a pivot swap.
  Matrix a{{cx{0, 0}, cx{1, 0}}, {cx{1, 0}, cx{0, 0}}};
  EXPECT_NEAR(determinant(a).real(), -1.0, 1e-12);
}

TEST(QrTest, ReconstructsSquareMatrix) {
  Rng rng(30);
  const Matrix a = rng.complex_gaussian_matrix(6, 6);
  const QrResult f = qr_decompose(a);
  EXPECT_TRUE(approx_equal(f.q * f.r, a, 1e-9 * (1.0 + a.frobenius_norm())));
}

TEST(QrTest, ReconstructsTallMatrix) {
  Rng rng(31);
  const Matrix a = rng.complex_gaussian_matrix(9, 4);
  const QrResult f = qr_decompose(a);
  EXPECT_EQ(f.q.rows(), 9u);
  EXPECT_EQ(f.q.cols(), 4u);
  EXPECT_EQ(f.r.rows(), 4u);
  EXPECT_TRUE(approx_equal(f.q * f.r, a, 1e-9 * (1.0 + a.frobenius_norm())));
}

TEST(QrTest, QHasOrthonormalColumns) {
  Rng rng(32);
  const Matrix a = rng.complex_gaussian_matrix(8, 5);
  const QrResult f = qr_decompose(a);
  EXPECT_TRUE(
      approx_equal(f.q.adjoint() * f.q, Matrix::identity(5), 1e-10));
}

TEST(QrTest, RIsUpperTriangularWithRealNonNegativeDiagonal) {
  Rng rng(33);
  const Matrix a = rng.complex_gaussian_matrix(7, 7);
  const QrResult f = qr_decompose(a);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < i; ++j)
      EXPECT_NEAR(std::abs(f.r(i, j)), 0.0, 1e-10);
    EXPECT_GE(f.r(i, i).real(), -1e-12);
    EXPECT_NEAR(f.r(i, i).imag(), 0.0, 1e-10);
  }
}

TEST(QrTest, WideMatrixRejected) {
  EXPECT_THROW(qr_decompose(Matrix(2, 3)), precondition_error);
}

TEST(LeastSquaresTest, ExactSystemRecovered) {
  Rng rng(34);
  const Matrix a = rng.complex_gaussian_matrix(5, 5);
  const Vector x_true = rng.complex_gaussian_vector(5);
  const Vector x = least_squares(a, a * x_true);
  EXPECT_TRUE(approx_equal(x, x_true, 1e-8 * (1.0 + x_true.norm())));
}

TEST(LeastSquaresTest, ResidualOrthogonalToColumnSpace) {
  Rng rng(35);
  const Matrix a = rng.complex_gaussian_matrix(10, 3);
  const Vector b = rng.complex_gaussian_vector(10);
  const Vector x = least_squares(a, b);
  const Vector residual = a * x - b;
  // Aᴴ r = 0 at the least-squares optimum.
  const Vector atr = a.adjoint() * residual;
  EXPECT_NEAR(atr.norm(), 0.0, 1e-8 * (1.0 + b.norm()));
}

TEST(LeastSquaresTest, RankDeficientRejected) {
  Matrix a(4, 2);
  a(0, 0) = cx{1, 0};
  a(1, 0) = cx{2, 0};  // second column all zero → rank 1
  EXPECT_THROW(least_squares(a, Vector(4)), precondition_error);
}

}  // namespace
}  // namespace mmw::linalg
