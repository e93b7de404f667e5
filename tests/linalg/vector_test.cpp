#include "linalg/vector.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mmw::linalg {
namespace {

TEST(VectorTest, DefaultConstructedIsEmpty) {
  Vector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(VectorTest, SizedConstructorZeroInitializes) {
  Vector v(4);
  EXPECT_EQ(v.size(), 4u);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], (cx{0.0, 0.0}));
}

TEST(VectorTest, InitializerList) {
  Vector v{cx{1.0, 2.0}, cx{3.0, -1.0}};
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], (cx{1.0, 2.0}));
  EXPECT_EQ(v[1], (cx{3.0, -1.0}));
}

TEST(VectorTest, AtThrowsOutOfRange) {
  Vector v(3);
  EXPECT_THROW(v.at(3), precondition_error);
  const Vector& cv = v;
  EXPECT_THROW(cv.at(5), precondition_error);
}

TEST(VectorTest, AdditionAndSubtraction) {
  Vector a{cx{1, 0}, cx{0, 1}};
  Vector b{cx{2, 0}, cx{0, -1}};
  Vector sum = a + b;
  EXPECT_EQ(sum[0], (cx{3, 0}));
  EXPECT_EQ(sum[1], (cx{0, 0}));
  Vector diff = a - b;
  EXPECT_EQ(diff[0], (cx{-1, 0}));
  EXPECT_EQ(diff[1], (cx{0, 2}));
}

TEST(VectorTest, MismatchedSizesThrow) {
  Vector a(2), b(3);
  EXPECT_THROW(a += b, precondition_error);
  EXPECT_THROW(a -= b, precondition_error);
  EXPECT_THROW(dot(a, b), precondition_error);
}

TEST(VectorTest, ScalarMultiplyDivide) {
  Vector v{cx{1, 1}};
  Vector scaled = v * cx{0.0, 1.0};
  EXPECT_EQ(scaled[0], (cx{-1, 1}));
  Vector divided = scaled / cx{0.0, 1.0};
  EXPECT_NEAR(std::abs(divided[0] - cx{1, 1}), 0.0, 1e-15);
}

TEST(VectorTest, DivisionByZeroThrows) {
  Vector v{cx{1, 0}};
  EXPECT_THROW((v / cx{0.0, 0.0}), precondition_error);
}

TEST(VectorTest, UnaryNegation) {
  Vector v{cx{1, -2}};
  Vector n = -v;
  EXPECT_EQ(n[0], (cx{-1, 2}));
}

TEST(VectorTest, DotIsConjugateLinearInFirstArgument) {
  Vector a{cx{0.0, 1.0}};  // i
  Vector b{cx{1.0, 0.0}};  // 1
  // dot(a,b) = conj(i)·1 = −i
  EXPECT_EQ(dot(a, b), (cx{0.0, -1.0}));
  EXPECT_EQ(dot(b, a), (cx{0.0, 1.0}));
}

TEST(VectorTest, DotOfSelfIsSquaredNorm) {
  Vector v{cx{3, 4}, cx{0, 2}};
  const cx d = dot(v, v);
  EXPECT_NEAR(d.real(), v.squared_norm(), 1e-12);
  EXPECT_NEAR(d.imag(), 0.0, 1e-12);
  EXPECT_NEAR(v.squared_norm(), 29.0, 1e-12);
}

TEST(VectorTest, NormAndNormalized) {
  Vector v{cx{3, 0}, cx{4, 0}};
  EXPECT_NEAR(v.norm(), 5.0, 1e-12);
  Vector u = v.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_NEAR(u[0].real(), 0.6, 1e-12);
}

TEST(VectorTest, NormalizeZeroVectorThrows) {
  Vector v(3);
  EXPECT_THROW(v.normalized(), precondition_error);
}

TEST(VectorTest, BasisVector) {
  Vector e = Vector::basis(4, 2);
  EXPECT_EQ(e[2], (cx{1, 0}));
  EXPECT_NEAR(e.norm(), 1.0, 1e-15);
  EXPECT_THROW(Vector::basis(3, 3), precondition_error);
}

TEST(VectorTest, ApproxEqual) {
  Vector a{cx{1, 0}};
  Vector b{cx{1.0 + 1e-12, 0}};
  EXPECT_TRUE(approx_equal(a, b, 1e-9));
  EXPECT_FALSE(approx_equal(a, b, 1e-15));
  EXPECT_FALSE(approx_equal(a, Vector(2), 1.0));
}

TEST(VectorTest, SpanConstructor) {
  std::vector<cx> raw{cx{1, 0}, cx{2, 0}};
  Vector v{std::span<const cx>(raw)};
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], (cx{2, 0}));
}

}  // namespace
}  // namespace mmw::linalg
