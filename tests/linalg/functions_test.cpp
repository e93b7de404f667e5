#include "linalg/functions.h"

#include <gtest/gtest.h>

#include <cmath>

#include "randgen/rng.h"

namespace mmw::linalg {
namespace {

using randgen::Rng;

TEST(PsdProjectTest, PsdInputUnchanged) {
  const real d[] = {2.0, 1.0, 0.5};
  Matrix a = Matrix::diagonal(std::span<const real>(d));
  EXPECT_TRUE(approx_equal(psd_project(a), a, 1e-10));
}

TEST(PsdProjectTest, NegativeEigenvaluesClipped) {
  const real d[] = {2.0, -3.0};
  Matrix p = psd_project(Matrix::diagonal(std::span<const real>(d)));
  EXPECT_NEAR(p(0, 0).real(), 2.0, 1e-10);
  EXPECT_NEAR(p(1, 1).real(), 0.0, 1e-10);
}

TEST(PsdProjectTest, ResultIsAlwaysPsd) {
  Rng rng(3);
  Matrix g = rng.complex_gaussian_matrix(8, 8);
  Matrix a = (g + g.adjoint()) * cx{0.5, 0.0};
  Matrix p = psd_project(a);
  const EigResult r = hermitian_eig(p);
  for (const real e : r.eigenvalues) EXPECT_GE(e, -1e-9);
}

TEST(PsdProjectTest, ProjectionIsIdempotent) {
  Rng rng(4);
  Matrix g = rng.complex_gaussian_matrix(6, 6);
  Matrix a = (g + g.adjoint()) * cx{0.5, 0.0};
  Matrix p = psd_project(a);
  EXPECT_TRUE(approx_equal(psd_project(p), p, 1e-8 * (1.0 + p.frobenius_norm())));
}

TEST(HermitianSqrtTest, SquaresBack) {
  Rng rng(5);
  Matrix x = rng.complex_gaussian_matrix(6, 3);
  Matrix a = x * x.adjoint();  // PSD, rank ≤ 3
  Matrix s = hermitian_sqrt(a);
  EXPECT_TRUE(approx_equal(s * s, a, 1e-8 * (1.0 + a.frobenius_norm())));
  EXPECT_TRUE(s.is_hermitian(1e-8));
}

TEST(HermitianSqrtTest, IdentityRoot) {
  EXPECT_TRUE(approx_equal(hermitian_sqrt(Matrix::identity(4)),
                           Matrix::identity(4), 1e-10));
}

TEST(HermitianSqrtTest, RejectsIndefinite) {
  const real d[] = {1.0, -2.0};
  EXPECT_THROW(hermitian_sqrt(Matrix::diagonal(std::span<const real>(d))),
               precondition_error);
}

TEST(SoftThresholdTest, ShrinksEigenvalues) {
  const real d[] = {5.0, 2.0, 0.5};
  Matrix s =
      eigenvalue_soft_threshold(Matrix::diagonal(std::span<const real>(d)), 1.0);
  EXPECT_NEAR(s(0, 0).real(), 4.0, 1e-10);
  EXPECT_NEAR(s(1, 1).real(), 1.0, 1e-10);
  EXPECT_NEAR(s(2, 2).real(), 0.0, 1e-10);  // clipped at zero
}

TEST(SoftThresholdTest, ZeroThresholdOnPsdIsIdentityMap) {
  Rng rng(6);
  Matrix x = rng.complex_gaussian_matrix(5, 5);
  Matrix a = x * x.adjoint();
  EXPECT_TRUE(approx_equal(eigenvalue_soft_threshold(a, 0.0), a,
                           1e-8 * a.frobenius_norm()));
}

TEST(SoftThresholdTest, LargeThresholdAnnihilates) {
  Rng rng(7);
  Matrix x = rng.complex_gaussian_matrix(4, 4);
  Matrix a = x * x.adjoint();
  Matrix s = eigenvalue_soft_threshold(a, 1e6);
  EXPECT_NEAR(s.frobenius_norm(), 0.0, 1e-6);
}

TEST(SoftThresholdTest, NegativeThresholdRejected) {
  EXPECT_THROW(eigenvalue_soft_threshold(Matrix::identity(2), -1.0),
               precondition_error);
}

TEST(SoftThresholdTest, ReducesRank) {
  const real d[] = {5.0, 0.5, 0.4, 0.3};
  Matrix s =
      eigenvalue_soft_threshold(Matrix::diagonal(std::span<const real>(d)), 1.0);
  EXPECT_EQ(numerical_rank(s), 1u);
}

TEST(RankTest, ExactLowRank) {
  Rng rng(9);
  Matrix x = rng.complex_gaussian_matrix(8, 3);
  EXPECT_EQ(numerical_rank(x * x.adjoint(), 1e-8), 3u);
}

TEST(RankTest, ZeroMatrixHasRankZero) {
  EXPECT_EQ(numerical_rank(Matrix(4, 4)), 0u);
}

TEST(RankTest, FullRankIdentity) {
  EXPECT_EQ(numerical_rank(Matrix::identity(5)), 5u);
}

}  // namespace
}  // namespace mmw::linalg
