// Property-based sweeps over the linear-algebra substrate: every suite runs
// the same invariant across a grid of sizes and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "../linalg/planted_spectrum.h"
#include "linalg/decompositions.h"
#include "linalg/eig.h"
#include "linalg/functions.h"
#include "randgen/rng.h"

namespace mmw::linalg {
namespace {

using randgen::Rng;

struct SizeSeed {
  index_t n;
  std::uint64_t seed;
};

void PrintTo(const SizeSeed& p, std::ostream* os) {
  *os << "n" << p.n << "_seed" << p.seed;
}

Matrix random_hermitian(Rng& rng, index_t n) {
  const Matrix g = rng.complex_gaussian_matrix(n, n);
  return (g + g.adjoint()) * cx{0.5, 0.0};
}

// ------------------------------------------------------------ eig ---------

class EigProperty : public ::testing::TestWithParam<SizeSeed> {};

TEST_P(EigProperty, ReconstructionOrthonormalityOrderingTrace) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = random_hermitian(rng, n);
  const EigResult r = hermitian_eig(a);

  // Orthonormal eigenbasis.
  EXPECT_TRUE(approx_equal(r.eigenvectors.adjoint() * r.eigenvectors,
                           Matrix::identity(n), 1e-9 * n));
  // Descending order.
  for (index_t k = 1; k < n; ++k)
    EXPECT_GE(r.eigenvalues[k - 1], r.eigenvalues[k]);
  // Reconstruction.
  Matrix rebuilt(n, n);
  for (index_t k = 0; k < n; ++k)
    rebuilt += cx{r.eigenvalues[k], 0.0} *
               Matrix::outer(r.eigenvectors.col(k), r.eigenvectors.col(k));
  EXPECT_TRUE(approx_equal(rebuilt, a, 1e-8 * (1.0 + a.frobenius_norm())));
  // Trace preservation.
  real sum = 0.0;
  for (const real e : r.eigenvalues) sum += e;
  EXPECT_NEAR(sum, a.trace().real(), 1e-8 * (1.0 + std::abs(sum)));
}

TEST_P(EigProperty, QlSolverSatisfiesSameInvariants) {
  const auto [n, seed] = GetParam();
  Rng rng(seed + 1000);
  const Matrix a = random_hermitian(rng, n);
  const EigResult r = hermitian_eig(a);

  EXPECT_TRUE(approx_equal(r.eigenvectors.adjoint() * r.eigenvectors,
                           Matrix::identity(n), 1e-9 * n));
  for (index_t k = 1; k < n; ++k)
    EXPECT_GE(r.eigenvalues[k - 1], r.eigenvalues[k]);
  Matrix rebuilt(n, n);
  for (index_t k = 0; k < n; ++k)
    rebuilt += cx{r.eigenvalues[k], 0.0} *
               Matrix::outer(r.eigenvectors.col(k), r.eigenvectors.col(k));
  EXPECT_TRUE(approx_equal(rebuilt, a, 1e-8 * (1.0 + a.frobenius_norm())));
}

TEST_P(EigProperty, SolversAgreeOnSpectrum) {
  // Both decompositions against the exact planted spectrum: hermitian_eig
  // returns λ, and svd (through the dilation) returns |λ|, each sorted
  // descending.
  const auto [n, seed] = GetParam();
  Rng rng(seed + 2000);
  std::vector<real> eigs(n);
  for (real& e : eigs) e = rng.uniform(-4.0, 4.0);
  const Matrix a = hermitian_with_spectrum(rng, eigs);
  const EigResult r = hermitian_eig(a);
  const SvdResult s = svd(a);

  std::vector<real> sigma(n);
  for (index_t k = 0; k < n; ++k) sigma[k] = std::abs(eigs[k]);
  std::sort(eigs.begin(), eigs.end(), std::greater<>());
  std::sort(sigma.begin(), sigma.end(), std::greater<>());
  for (index_t k = 0; k < n; ++k) {
    EXPECT_NEAR(r.eigenvalues[k], eigs[k], 1e-9 * (1.0 + std::abs(eigs[k])));
    EXPECT_NEAR(s.singular_values[k], sigma[k], 1e-9 * (1.0 + sigma[k]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EigProperty,
    ::testing::Values(SizeSeed{2, 1}, SizeSeed{3, 2}, SizeSeed{5, 3},
                      SizeSeed{8, 4}, SizeSeed{13, 5}, SizeSeed{21, 6},
                      SizeSeed{34, 7}, SizeSeed{64, 8}));

// ------------------------------------------------------------ svd ---------

struct ShapeSeed {
  index_t rows, cols;
  std::uint64_t seed;
};

void PrintTo(const ShapeSeed& p, std::ostream* os) {
  *os << p.rows << "x" << p.cols << "_seed" << p.seed;
}

class SvdProperty : public ::testing::TestWithParam<ShapeSeed> {};

TEST_P(SvdProperty, ReconstructionAndOrthonormalFactors) {
  const auto [rows, cols, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = rng.complex_gaussian_matrix(rows, cols);
  const SvdResult s = svd(a);
  const index_t r = std::min(rows, cols);
  ASSERT_EQ(s.singular_values.size(), r);

  Matrix rebuilt(rows, cols);
  for (index_t k = 0; k < r; ++k) {
    EXPECT_GE(s.singular_values[k], 0.0);
    if (k > 0) {
      EXPECT_GE(s.singular_values[k - 1], s.singular_values[k]);
    }
    rebuilt += cx{s.singular_values[k], 0.0} *
               Matrix::outer(s.u.col(k), s.v.col(k));
  }
  EXPECT_TRUE(approx_equal(rebuilt, a, 1e-7 * (1.0 + a.frobenius_norm())));
  // Columns used in the reconstruction are unit norm.
  for (index_t k = 0; k < r; ++k) {
    if (s.singular_values[k] < 1e-9) continue;
    EXPECT_NEAR(s.u.col(k).norm(), 1.0, 1e-8);
    EXPECT_NEAR(s.v.col(k).norm(), 1.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(ShapeSeed{1, 1, 1}, ShapeSeed{3, 7, 2},
                      ShapeSeed{7, 3, 3}, ShapeSeed{8, 8, 4},
                      ShapeSeed{16, 4, 5}, ShapeSeed{4, 16, 6},
                      ShapeSeed{20, 20, 7}));

// ------------------------------------------------------- cholesky ---------

class CholeskyProperty : public ::testing::TestWithParam<SizeSeed> {};

TEST_P(CholeskyProperty, FactorReconstructsAndIsTriangular) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix g = rng.complex_gaussian_matrix(n, n);
  const Matrix a = g * g.adjoint() + Matrix::identity(n) * cx{0.05, 0.0};
  const Matrix l = cholesky(a);
  EXPECT_TRUE(
      approx_equal(l * l.adjoint(), a, 1e-8 * (1.0 + a.frobenius_norm())));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j)
      EXPECT_NEAR(std::abs(l(i, j)), 0.0, 1e-12);
    EXPECT_GE(l(i, i).real(), 0.0);  // canonical non-negative diagonal
    EXPECT_NEAR(l(i, i).imag(), 0.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values(SizeSeed{1, 11}, SizeSeed{2, 12},
                                           SizeSeed{5, 13}, SizeSeed{16, 14},
                                           SizeSeed{64, 15}));

// ----------------------------------------------------- determinant -------

class DeterminantProperty : public ::testing::TestWithParam<SizeSeed> {};

// Hermitian input with a planted spectrum of mixed signs: the determinant
// is exactly the product of the planted eigenvalues.
TEST_P(DeterminantProperty, HermitianIsProductOfPlantedSpectrum) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  std::vector<real> eigs(n);
  real expected = 1.0;
  for (real& e : eigs) {
    e = rng.uniform(0.5, 2.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    expected *= e;
  }
  const cx det = determinant(hermitian_with_spectrum(rng, eigs));
  const real tol = 1e-9 * n * std::abs(expected);
  EXPECT_NEAR(det.real(), expected, tol);
  EXPECT_NEAR(det.imag(), 0.0, tol);
}

// det(AB) = det(A)·det(B) on random complex A and B, whose LUs swap rows at
// these sizes. The planted-spectrum case above pins each swap's sign.
TEST_P(DeterminantProperty, MultiplicativeOnRandomComplexMatrices) {
  const auto [n, seed] = GetParam();
  Rng rng(seed + 100);
  const Matrix a = rng.complex_gaussian_matrix(n, n);
  const Matrix b = rng.complex_gaussian_matrix(n, n);
  const cx expected = determinant(a) * determinant(b);
  ASSERT_GT(std::abs(expected), 0.0);
  EXPECT_LT(std::abs(determinant(a * b) - expected),
            1e-8 * n * std::abs(expected));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeterminantProperty,
                         ::testing::Values(SizeSeed{1, 21}, SizeSeed{2, 22},
                                           SizeSeed{7, 23}, SizeSeed{16, 24},
                                           SizeSeed{33, 25}));

// ------------------------------------------------------- functions --------

class PsdFunctionProperty : public ::testing::TestWithParam<SizeSeed> {};

TEST_P(PsdFunctionProperty, ProjectionIsClosestPsdInSpectrum) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = random_hermitian(rng, n);
  const Matrix p = psd_project(a);
  // PSD and no farther than the original negative part.
  const EigResult ep = hermitian_eig(p);
  for (const real e : ep.eigenvalues) EXPECT_GE(e, -1e-8);
  // The projection never moves farther than clipping all of A's negatives.
  const EigResult ea = hermitian_eig(a);
  real clip_sq = 0.0;
  for (const real e : ea.eigenvalues)
    if (e < 0.0) clip_sq += e * e;
  EXPECT_NEAR((p - a).frobenius_norm(), std::sqrt(clip_sq),
              1e-6 * (1.0 + std::sqrt(clip_sq)));
}

TEST_P(PsdFunctionProperty, SqrtSquaresBack) {
  const auto [n, seed] = GetParam();
  Rng rng(seed + 50);
  const Matrix g = rng.complex_gaussian_matrix(n, n);
  const Matrix a = g * g.adjoint();
  const Matrix s = hermitian_sqrt(a);
  EXPECT_TRUE(approx_equal(s * s, a, 1e-7 * (1.0 + a.frobenius_norm())));
}

TEST_P(PsdFunctionProperty, SoftThresholdIsNonexpansive) {
  // prox operators are 1-Lipschitz: ‖prox(A)−prox(B)‖ ≤ ‖A−B‖.
  const auto [n, seed] = GetParam();
  Rng rng(seed + 99);
  const Matrix a = random_hermitian(rng, n);
  const Matrix b = random_hermitian(rng, n);
  const real mu = 0.3;
  const Matrix pa = eigenvalue_soft_threshold(a, mu);
  const Matrix pb = eigenvalue_soft_threshold(b, mu);
  EXPECT_LE((pa - pb).frobenius_norm(),
            (a - b).frobenius_norm() + 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PsdFunctionProperty,
                         ::testing::Values(SizeSeed{2, 31}, SizeSeed{4, 32},
                                           SizeSeed{9, 33}, SizeSeed{16, 34}));

}  // namespace
}  // namespace mmw::linalg
