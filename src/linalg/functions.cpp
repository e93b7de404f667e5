#include "linalg/functions.h"

#include <algorithm>
#include <cmath>

namespace mmw::linalg {

namespace {

/// Rebuilds V f(diag) Vᴴ from an eigendecomposition with mapped eigenvalues.
Matrix rebuild(const EigResult& eig, const std::vector<real>& mapped) {
  const index_t n = eig.eigenvectors.rows();
  Matrix out(n, n);
  for (index_t k = 0; k < n; ++k) {
    if (mapped[k] == 0.0) continue;
    const Vector vk = eig.eigenvectors.col(k);
    for (index_t i = 0; i < n; ++i) {
      const cx scaled = mapped[k] * vk[i];
      for (index_t j = 0; j < n; ++j)
        out(i, j) += scaled * std::conj(vk[j]);
    }
  }
  return out;
}

}  // namespace

Matrix psd_project(const Matrix& a) {
  const EigResult eig = hermitian_eig(a);
  std::vector<real> clipped(eig.eigenvalues.size());
  for (index_t k = 0; k < clipped.size(); ++k)
    clipped[k] = std::max(eig.eigenvalues[k], 0.0);
  return rebuild(eig, clipped);
}

Matrix hermitian_sqrt(const Matrix& a) {
  const EigResult eig = hermitian_eig(a);
  const real floor =
      -1e-9 * std::max(eig.eigenvalues.empty() ? 0.0 : eig.eigenvalues[0], 1.0);
  std::vector<real> roots(eig.eigenvalues.size());
  for (index_t k = 0; k < roots.size(); ++k) {
    MMW_REQUIRE_MSG(eig.eigenvalues[k] >= floor,
                    "hermitian_sqrt: matrix is not PSD");
    roots[k] = std::sqrt(std::max(eig.eigenvalues[k], 0.0));
  }
  return rebuild(eig, roots);
}

Matrix eigenvalue_soft_threshold(const Matrix& a, real mu) {
  MMW_REQUIRE_MSG(mu >= 0.0, "threshold must be non-negative");
  const EigResult eig = hermitian_eig(a);
  std::vector<real> shrunk(eig.eigenvalues.size());
  for (index_t k = 0; k < shrunk.size(); ++k)
    shrunk[k] = std::max(eig.eigenvalues[k] - mu, 0.0);
  return rebuild(eig, shrunk);
}

index_t numerical_rank(const Matrix& a, real rel_tol) {
  const SvdResult s = svd(a);
  if (s.singular_values.empty() || s.singular_values[0] == 0.0) return 0;
  const real cutoff = rel_tol * s.singular_values[0];
  index_t rank = 0;
  for (const real sigma : s.singular_values)
    if (sigma > cutoff) ++rank;
  return rank;
}

}  // namespace mmw::linalg
