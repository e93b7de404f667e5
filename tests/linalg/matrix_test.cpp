#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mmw::linalg {
namespace {

Matrix pauli_y() {
  return Matrix{{cx{0, 0}, cx{0, -1}}, {cx{0, 1}, cx{0, 0}}};
}

TEST(MatrixTest, ShapeAndZeroInit) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.is_square());
  EXPECT_EQ(m(1, 2), (cx{0, 0}));
}

TEST(MatrixTest, InitializerListLayout) {
  Matrix m{{cx{1, 0}, cx{2, 0}}, {cx{3, 0}, cx{4, 0}}};
  EXPECT_EQ(m(0, 1), (cx{2, 0}));
  EXPECT_EQ(m(1, 0), (cx{3, 0}));
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{cx{1, 0}}, {cx{1, 0}, cx{2, 0}}}), precondition_error);
}

TEST(MatrixTest, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), precondition_error);
  EXPECT_THROW(m.at(0, 2), precondition_error);
}

TEST(MatrixTest, AdditionSubtractionShapeMismatch) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, precondition_error);
  EXPECT_THROW(a -= b, precondition_error);
}

TEST(MatrixTest, AdjointConjugatesAndTransposes) {
  Matrix m{{cx{1, 2}, cx{3, 4}}};
  Matrix h = m.adjoint();
  EXPECT_EQ(h.rows(), 2u);
  EXPECT_EQ(h.cols(), 1u);
  EXPECT_EQ(h(0, 0), (cx{1, -2}));
  EXPECT_EQ(h(1, 0), (cx{3, -4}));
}

TEST(MatrixTest, TraceRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(m.trace(), precondition_error);
  Matrix s{{cx{1, 1}, cx{0, 0}}, {cx{0, 0}, cx{2, -1}}};
  EXPECT_EQ(s.trace(), (cx{3, 0}));
}

TEST(MatrixTest, IdentityAndMultiplication) {
  Matrix i = Matrix::identity(3);
  Matrix m{{cx{1, 0}, cx{2, 0}, cx{3, 0}},
           {cx{4, 0}, cx{5, 0}, cx{6, 0}},
           {cx{7, 0}, cx{8, 0}, cx{9, 0}}};
  EXPECT_TRUE(approx_equal(i * m, m, 1e-14));
  EXPECT_TRUE(approx_equal(m * i, m, 1e-14));
}

TEST(MatrixTest, MatrixProductValues) {
  Matrix a{{cx{1, 0}, cx{0, 1}}};      // 1×2
  Matrix b{{cx{2, 0}}, {cx{0, 2}}};    // 2×1
  Matrix p = a * b;                    // 1×1: 2 + i·2i = 2 − 2 = 0
  EXPECT_EQ(p.rows(), 1u);
  EXPECT_NEAR(std::abs(p(0, 0) - cx{0, 0}), 0.0, 1e-14);
}

TEST(MatrixTest, ProductShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, precondition_error);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix m{{cx{1, 0}, cx{2, 0}}, {cx{3, 0}, cx{4, 0}}};
  Vector v{cx{1, 0}, cx{1, 0}};
  Vector r = m * v;
  EXPECT_EQ(r[0], (cx{3, 0}));
  EXPECT_EQ(r[1], (cx{7, 0}));
  EXPECT_THROW(m * Vector(3), precondition_error);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m{{cx{3, 0}, cx{0, 4}}};
  EXPECT_NEAR(m.frobenius_norm(), 5.0, 1e-12);
}

TEST(MatrixTest, MaxAbs) {
  Matrix m{{cx{1, 0}, cx{0, -7}}, {cx{2, 2}, cx{0, 0}}};
  EXPECT_NEAR(m.max_abs(), 7.0, 1e-12);
}

TEST(MatrixTest, RowColExtractionAndAssignment) {
  Matrix m(2, 2);
  m.set_col(1, Vector{cx{5, 0}, cx{6, 0}});
  EXPECT_EQ(m(0, 1), (cx{5, 0}));
  EXPECT_EQ(m(1, 1), (cx{6, 0}));
  Vector c = m.col(1);
  EXPECT_EQ(c[0], (cx{5, 0}));
  EXPECT_EQ(c[1], (cx{6, 0}));
}

TEST(MatrixTest, HermitianDetection) {
  EXPECT_TRUE(pauli_y().is_hermitian());
  Matrix not_h{{cx{0, 0}, cx{1, 0}}, {cx{2, 0}, cx{0, 0}}};
  EXPECT_FALSE(not_h.is_hermitian());
  EXPECT_FALSE(Matrix(2, 3).is_hermitian());
  // Non-real diagonal breaks Hermitianness.
  Matrix imag_diag{{cx{0, 1}}};
  EXPECT_FALSE(imag_diag.is_hermitian());
}

TEST(MatrixTest, DiagonalFactory) {
  const real entries[] = {1.0, 2.0};
  Matrix d = Matrix::diagonal(std::span<const real>(entries));
  EXPECT_EQ(d(0, 0), (cx{1, 0}));
  EXPECT_EQ(d(1, 1), (cx{2, 0}));
  EXPECT_EQ(d(0, 1), (cx{0, 0}));
}

TEST(MatrixTest, OuterProductIsRankOneHermitianForSelf) {
  Vector a{cx{1, 1}, cx{0, 2}};
  Matrix m = Matrix::outer(a, a);
  EXPECT_TRUE(m.is_hermitian(1e-14));
  EXPECT_NEAR(m.trace().real(), a.squared_norm(), 1e-12);
}

TEST(MatrixTest, OuterProductValues) {
  Vector a{cx{1, 0}};
  Vector b{cx{0, 1}};
  Matrix m = Matrix::outer(a, b);  // a bᴴ = 1·conj(i) = −i
  EXPECT_EQ(m(0, 0), (cx{0, -1}));
}

TEST(MatrixTest, QuadraticAndHermitianForms) {
  Matrix q = pauli_y();
  Vector v{cx{1, 0}, cx{0, 1}};  // (1, i)
  // vᴴ σ_y v = conj(v)·(σ_y v); σ_y v = (−i·i, i·1) = (1, i) = v → vᴴv = 2.
  EXPECT_NEAR(hermitian_form(v, q), 2.0, 1e-12);
  EXPECT_THROW(hermitian_form(v, Matrix(2, 3)), precondition_error);
}

TEST(MatrixTest, ScalarOps) {
  Matrix m{{cx{1, 0}}};
  EXPECT_EQ((m * cx{2, 0})(0, 0), (cx{2, 0}));
  EXPECT_EQ((cx{0, 1} * m)(0, 0), (cx{0, 1}));
  EXPECT_EQ((m / cx{2, 0})(0, 0), (cx{0.5, 0}));
  EXPECT_EQ((-m)(0, 0), (cx{-1, 0}));
  EXPECT_THROW((m / cx{0, 0}), precondition_error);
}

}  // namespace
}  // namespace mmw::linalg
