// Randomized property sweeps over the decomposition stack: ~200 seeded
// random matrices per property spread across N ∈ {4, 16, 64} (weighted
// towards the small sizes so the sweep stays fast; the large size keeps
// the paper-scale N = 64 RX dimension honest). Every case derives from a
// fixed master seed, so a failure message's size/seed pair reproduces the
// exact matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "linalg/decompositions.h"
#include "linalg/eig.h"
#include "linalg/factored.h"
#include "linalg/functions.h"
#include "planted_spectrum.h"
#include "randgen/rng.h"

namespace mmw::linalg {
namespace {

using randgen::Rng;

/// One sweep slice: `cases` random draws at size n. The three slices sum
/// to ~200 cases per property.
struct SizeCases {
  index_t n;
  index_t cases;
};

void PrintTo(const SizeCases& p, std::ostream* os) {
  *os << "n" << p.n << "_x" << p.cases;
}

constexpr std::uint64_t kMasterSeed = 0x5eedfacedULL;

Matrix random_hermitian(Rng& rng, index_t n) {
  const Matrix g = rng.complex_gaussian_matrix(n, n);
  return (g + g.adjoint()) * cx{0.5, 0.0};
}

/// Random Hermitian PSD with a well-defined Cholesky factor: G Gᴴ + εI.
Matrix random_psd(Rng& rng, index_t n) {
  const Matrix g = rng.complex_gaussian_matrix(n, n);
  Matrix a = g * g.adjoint();
  for (index_t i = 0; i < n; ++i) a(i, i) += cx{1e-6, 0.0};
  return a;
}

class DecompositionProperty : public ::testing::TestWithParam<SizeCases> {};

TEST_P(DecompositionProperty, EigReconstructsWithOrthonormalBasis) {
  const auto [n, cases] = GetParam();
  for (index_t c = 0; c < cases; ++c) {
    Rng rng = Rng::stream(kMasterSeed, n, c, 1);
    // Planted spectrum: the exact eigenvalues are the reference.
    std::vector<real> eigs(n);
    for (real& e : eigs) e = rng.uniform(-3.0, 3.0);
    const Matrix a = hermitian_with_spectrum(rng, eigs);
    const EigResult r = hermitian_eig(a);

    ASSERT_EQ(r.eigenvalues.size(), n) << "n=" << n << " case=" << c;
    std::sort(eigs.begin(), eigs.end(), std::greater<>());
    for (index_t k = 0; k < n; ++k)
      EXPECT_NEAR(r.eigenvalues[k], eigs[k], 1e-10 * n)
          << "n=" << n << " case=" << c << " k=" << k;
    EXPECT_TRUE(approx_equal(r.eigenvectors.adjoint() * r.eigenvectors,
                             Matrix::identity(n), 1e-9 * n))
        << "n=" << n << " case=" << c;

    Matrix rebuilt(n, n);
    for (index_t k = 0; k < n; ++k)
      rebuilt += cx{r.eigenvalues[k], 0.0} *
                 Matrix::outer(r.eigenvectors.col(k), r.eigenvectors.col(k));
    EXPECT_LE((rebuilt - a).frobenius_norm(), 1e-10 * n * a.frobenius_norm())
        << "n=" << n << " case=" << c;
  }
}

TEST_P(DecompositionProperty, CholeskyRoundTrips) {
  const auto [n, cases] = GetParam();
  for (index_t c = 0; c < cases; ++c) {
    Rng rng = Rng::stream(kMasterSeed, n, c, 2);
    const Matrix a = random_psd(rng, n);
    const Matrix l = cholesky(a);
    // Lower-triangular factor…
    for (index_t i = 0; i < n; ++i)
      for (index_t j = i + 1; j < n; ++j)
        EXPECT_EQ(l(i, j), (cx{0.0, 0.0})) << "n=" << n << " case=" << c;
    // …that reproduces the matrix.
    EXPECT_LE((l * l.adjoint() - a).frobenius_norm(),
              1e-10 * n * a.frobenius_norm())
        << "n=" << n << " case=" << c;
  }
}

TEST_P(DecompositionProperty, PsdProjectionIsIdempotentAndPsd) {
  const auto [n, cases] = GetParam();
  for (index_t c = 0; c < cases; ++c) {
    Rng rng = Rng::stream(kMasterSeed, n, c, 3);
    const Matrix a = random_hermitian(rng, n);
    const Matrix p = psd_project(a);

    const EigResult r = hermitian_eig(p);
    EXPECT_GE(r.eigenvalues.back(), -1e-9 * (1.0 + a.frobenius_norm()))
        << "n=" << n << " case=" << c;
    // Projecting a point already on the cone is a no-op.
    EXPECT_LE((psd_project(p) - p).frobenius_norm(),
              1e-9 * n * (1.0 + p.frobenius_norm()))
        << "n=" << n << " case=" << c;
  }
}

TEST_P(DecompositionProperty, FactoredRayleighMatchesDenseLift) {
  const auto [n, cases] = GetParam();
  const index_t rank = std::max<index_t>(1, n / 4);
  for (index_t c = 0; c < cases; ++c) {
    Rng rng = Rng::stream(kMasterSeed, n, c, 4);
    // Orthonormal basis from a QR of a random tall matrix, PSD core.
    const Matrix basis =
        qr_decompose(rng.complex_gaussian_matrix(n, rank)).q;
    const Matrix g = rng.complex_gaussian_matrix(rank, rank);
    const FactoredHermitian q(basis, g * g.adjoint());

    const Vector v = rng.random_unit_vector(n);
    EXPECT_NEAR(q.rayleigh(v), hermitian_form(v, q.dense()),
                1e-10 * (1.0 + q.dense().frobenius_norm()))
        << "n=" << n << " case=" << c;
    // The lift round-trips through from_dense up to eig tolerance.
    const FactoredHermitian lifted = FactoredHermitian::from_dense(q.dense());
    EXPECT_NEAR(lifted.rayleigh(v), q.rayleigh(v),
                1e-8 * (1.0 + q.dense().frobenius_norm()))
        << "n=" << n << " case=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMatrixSweep, DecompositionProperty,
                         ::testing::Values(SizeCases{4, 120},
                                           SizeCases{16, 60},
                                           SizeCases{64, 20}),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace mmw::linalg
