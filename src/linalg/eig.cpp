#include "linalg/eig.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/decompositions.h"

namespace mmw::linalg {

SvdResult svd(const Matrix& a) {
  MMW_REQUIRE_MSG(!a.empty(), "svd of an empty matrix");
  // A wide A factors through its tall adjoint: Aᴴ = V Σ Uᴴ.
  if (a.rows() < a.cols()) {
    SvdResult t = svd(a.adjoint());
    std::swap(t.u, t.v);
    return t;
  }
  const index_t n = a.cols();
  // A = Q R: the n×n triangle R = U_R Σ Vᴴ has A's σ and V, and U = Q U_R,
  // so the eigenproblem below is 2n-square, not (m + n)-square.
  const QrResult qr = qr_decompose(a);
  // H (u; v) = λ (u; v) iff R v = λ u and Rᴴ u = λ v, so H's eigenvalues are
  // ±σ (nothing is squared, unlike in RᴴR) and its top n eigenvectors
  // carry U_R above row n and V below.
  Matrix h(2 * n, 2 * n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j) {
      h(i, n + j) = qr.r(i, j);
      h(n + j, i) = std::conj(qr.r(i, j));
    }
  const EigResult eig = hermitian_eig(h);

  SvdResult out;
  out.singular_values.resize(n);
  Matrix ur(n, n);
  Matrix v(n, n);
  // Below this σ a triplet belongs to the null space: its ±σ eigenpairs mix
  // and the halves are no longer singular vectors, so the columns stay zero.
  const real tiny = 1e-13 * std::max(eig.eigenvalues[0], 1.0);
  for (index_t k = 0; k < n; ++k) {
    out.singular_values[k] = std::max(eig.eigenvalues[k], 0.0);
    if (out.singular_values[k] <= tiny) continue;
    Vector uk(n);
    Vector vk(n);
    for (index_t j = 0; j < n; ++j) {
      uk[j] = eig.eigenvectors(j, k);
      vk[j] = eig.eigenvectors(n + j, k);
    }
    ur.set_col(k, uk.normalized());
    v.set_col(k, vk.normalized());
  }
  // Householder QR's Q is unitary whatever the columns hold. In σ order it
  // re-orthonormalizes the halves, which are orthonormal only to ε/gap on a
  // graded spectrum, and completes the zero null-space columns.
  out.u = qr.q * qr_decompose(ur).q;
  out.v = qr_decompose(v).q;
  return out;
}

}  // namespace mmw::linalg
