#include "linalg/factored.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/functions.h"
#include "randgen/rng.h"

namespace mmw::linalg {
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

/// Random r×r Hermitian PSD core.
Matrix random_psd_core(Rng& rng, index_t r) {
  const Matrix g = rng.complex_gaussian_matrix(r, r);
  return g * g.adjoint();
}

TEST(FactoredHermitianTest, ConstructorValidatesShapes) {
  Rng rng(1);
  const Matrix basis = random_orthonormal_basis(rng, 8, 3);
  EXPECT_THROW(FactoredHermitian(basis, Matrix(2, 3)), precondition_error);
  EXPECT_THROW(FactoredHermitian(basis, Matrix(4, 4)), precondition_error);
  EXPECT_THROW(FactoredHermitian(Matrix(2, 4), Matrix(4, 4)),
               precondition_error);
  EXPECT_THROW(FactoredHermitian::from_dense(Matrix(3, 4)),
               precondition_error);
  const FactoredHermitian f(basis, random_psd_core(rng, 3));
  EXPECT_EQ(f.dim(), 8u);
  EXPECT_EQ(f.rank(), 3u);
  EXPECT_FALSE(f.is_full());
  EXPECT_FALSE(f.empty());
  EXPECT_TRUE(FactoredHermitian().empty());
}

TEST(FactoredHermitianTest, DenseMatchesExplicitLift) {
  Rng rng(2);
  const index_t n = 10, r = 4;
  const Matrix basis = random_orthonormal_basis(rng, n, r);
  const Matrix core = random_psd_core(rng, r);
  const FactoredHermitian f(basis, core);
  const Matrix lifted = basis * core * basis.adjoint();
  EXPECT_TRUE(approx_equal(f.dense(), lifted, 1e-10));
  // The cache is stable: a second call returns the identical object.
  EXPECT_EQ(&f.dense(), &f.dense());
}

TEST(FactoredHermitianTest, RayleighMatchesDenseHermitianForm) {
  Rng rng(3);
  const index_t n = 12, r = 5;
  const FactoredHermitian f(random_orthonormal_basis(rng, n, r),
                            random_psd_core(rng, r));
  for (int t = 0; t < 10; ++t) {
    const Vector v = rng.random_unit_vector(n);
    EXPECT_NEAR(f.rayleigh(v), hermitian_form(v, f.dense()),
                1e-10 * (1.0 + std::abs(f.rayleigh(v))));
    EXPECT_DOUBLE_EQ(f.rayleigh_projected(f.project(v)), f.rayleigh(v));
  }
}

TEST(FactoredHermitianTest, FullModeIsBitIdenticalToDenseFormulas) {
  // from_dense must take exactly the dense code paths so that codebook
  // scoring of a wrapped matrix cannot drift from scoring the matrix
  // itself by even one ulp.
  Rng rng(4);
  const Matrix g = rng.complex_gaussian_matrix(6, 6);
  const Matrix q = g * g.adjoint();
  const FactoredHermitian f = FactoredHermitian::from_dense(q);
  EXPECT_TRUE(f.is_full());
  EXPECT_EQ(f.rank(), 6u);
  for (int t = 0; t < 10; ++t) {
    const Vector v = rng.random_unit_vector(6);
    const real a = f.rayleigh(v);
    const real b = hermitian_form(v, q);
    EXPECT_EQ(a, b);  // exact, not approximate
  }
  EXPECT_EQ(f.trace(), q.trace().real());
}

TEST(FactoredHermitianTest, ProjectIsBasisAdjointAction) {
  Rng rng(5);
  const index_t n = 9, r = 3;
  const Matrix basis = random_orthonormal_basis(rng, n, r);
  const FactoredHermitian f(basis, random_psd_core(rng, r));
  const Vector v = rng.complex_gaussian_vector(n);
  const Vector p = f.project(v);
  ASSERT_EQ(p.size(), r);
  const Vector expected = basis.adjoint() * v;
  EXPECT_TRUE(approx_equal(p, expected, 1e-12));
}

TEST(FactoredHermitianTest, ApplyMatchesDenseProduct) {
  Rng rng(6);
  const index_t n = 11, r = 4;
  const FactoredHermitian f(random_orthonormal_basis(rng, n, r),
                            random_psd_core(rng, r));
  const Vector v = rng.complex_gaussian_vector(n);
  EXPECT_TRUE(approx_equal(f.apply(v), f.dense() * v, 1e-9));
}

TEST(FactoredHermitianTest, TraceEqualsDenseTrace) {
  Rng rng(7);
  const FactoredHermitian f(random_orthonormal_basis(rng, 10, 4),
                            random_psd_core(rng, 4));
  EXPECT_NEAR(f.trace(), f.dense().trace().real(), 1e-10);
}

TEST(FactoredHermitianTest, EigLiftsCoreEigenpairs) {
  Rng rng(8);
  const index_t n = 10, r = 3;
  const FactoredHermitian f(random_orthonormal_basis(rng, n, r),
                            random_psd_core(rng, r));
  const EigResult e = f.eig();
  ASSERT_EQ(e.eigenvalues.size(), r);
  EXPECT_EQ(e.eigenvectors.rows(), n);
  EXPECT_EQ(e.eigenvectors.cols(), r);
  // Descending order and the eigenpair property Q u = λ u in ambient space.
  for (index_t k = 0; k < r; ++k) {
    if (k > 0) {
      EXPECT_GE(e.eigenvalues[k - 1], e.eigenvalues[k]);
    }
    const Vector u = e.eigenvectors.col(k);
    EXPECT_NEAR(u.norm(), 1.0, 1e-9);
    EXPECT_TRUE(approx_equal(f.dense() * u, u * cx{e.eigenvalues[k], 0.0},
                             1e-8 * (1.0 + std::abs(e.eigenvalues[k]))));
  }
  // The dense spectrum is the core spectrum plus exact zeros.
  const EigResult dense_eig = hermitian_eig(f.dense());
  for (index_t k = 0; k < r; ++k)
    EXPECT_NEAR(e.eigenvalues[k], dense_eig.eigenvalues[k],
                1e-8 * (1.0 + std::abs(e.eigenvalues[0])));
  for (index_t k = r; k < n; ++k)
    EXPECT_NEAR(dense_eig.eigenvalues[k], 0.0, 1e-8);
}

TEST(FactoredHermitianTest, PrincipalEigenvectorAlignsWithPlanted) {
  Rng rng(9);
  const index_t n = 16;
  const Vector x = rng.random_unit_vector(n);
  // Rank-1 planted matrix expressed in factored form with a 1-wide basis.
  Matrix basis(n, 1);
  basis.set_col(0, x);
  Matrix core(1, 1);
  core(0, 0) = cx{7.5, 0.0};
  const FactoredHermitian f(basis, core);
  EXPECT_NEAR(std::abs(dot(f.eig().eigenvectors.col(0), x)), 1.0, 1e-10);
}

TEST(FactoredHermitianTest, BasisAccessorGuardsFullMode) {
  const FactoredHermitian f = FactoredHermitian::from_dense(
      Matrix::identity(4));
  EXPECT_THROW(f.basis(), precondition_error);
}

TEST(MatrixAddScaledOuterTest, MatchesOuterProductRoute) {
  Rng rng(10);
  const index_t n = 7;
  const Vector a = rng.complex_gaussian_vector(n);
  const Vector b = rng.complex_gaussian_vector(n);
  const cx alpha{0.7, -0.3};
  Matrix in_place = rng.complex_gaussian_matrix(n, n);
  Matrix via_temp = in_place;
  in_place.add_scaled_outer(alpha, a, b);
  via_temp += alpha * Matrix::outer(a, b);
  // Bit-identical, not just close: the solvers rely on this when swapping
  // the temporary-allocating route for the in-place kernel.
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      EXPECT_EQ(in_place(i, j).real(), via_temp(i, j).real());
      EXPECT_EQ(in_place(i, j).imag(), via_temp(i, j).imag());
    }
}

TEST(MatrixAddScaledOuterTest, NegatedAlphaMatchesSubtraction) {
  Rng rng(11);
  const index_t n = 6;
  const Vector a = rng.complex_gaussian_vector(n);
  const real c = 0.42;
  Matrix in_place = rng.complex_gaussian_matrix(n, n);
  Matrix via_temp = in_place;
  in_place.add_scaled_outer(cx{-c, 0.0}, a, a);
  via_temp -= cx{c, 0.0} * Matrix::outer(a, a);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      EXPECT_EQ(in_place(i, j).real(), via_temp(i, j).real());
      EXPECT_EQ(in_place(i, j).imag(), via_temp(i, j).imag());
    }
}

TEST(MatrixAddScaledOuterTest, ShapeMismatchThrows) {
  Matrix m(3, 4);
  EXPECT_THROW(m.add_scaled_outer(cx{1.0, 0.0}, Vector(4), Vector(4)),
               precondition_error);
  EXPECT_THROW(m.add_scaled_outer(cx{1.0, 0.0}, Vector(3), Vector(3)),
               precondition_error);
}

}  // namespace
}  // namespace mmw::linalg
