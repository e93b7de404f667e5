// Test inputs with an exactly known spectrum: the reference the eigensolver
// and the SVD are checked against.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "randgen/rng.h"

namespace mmw::linalg {

/// n×k matrix with orthonormal columns: Gram–Schmidt of a Gaussian matrix
/// (Haar-random span).
inline Matrix random_orthonormal_columns(randgen::Rng& rng, index_t n,
                                         index_t k) {
  const Matrix g = rng.complex_gaussian_matrix(n, k);
  Matrix u(n, k);
  for (index_t j = 0; j < k; ++j) {
    Vector v = g.col(j);
    for (index_t c = 0; c < j; ++c) {
      const Vector uc = u.col(c);
      v -= dot(uc, v) * uc;
    }
    u.set_col(j, v.normalized());
  }
  return u;
}

/// Random Hermitian matrix U diag(eigs) Uᴴ with a Haar-random eigenbasis U.
inline Matrix hermitian_with_spectrum(randgen::Rng& rng,
                                      const std::vector<real>& eigs) {
  const index_t n = eigs.size();
  const Matrix u = random_orthonormal_columns(rng, n, n);
  Matrix a(n, n);
  for (index_t k = 0; k < n; ++k) {
    const Vector uk = u.col(k);
    a += cx{eigs[k], 0.0} * Matrix::outer(uk, uk);
  }
  return a;
}

}  // namespace mmw::linalg
