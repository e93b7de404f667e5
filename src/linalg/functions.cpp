#include "linalg/functions.h"

#include <algorithm>
#include <cmath>

namespace mmw::linalg {

namespace {

/// out = V f(Λ) Vᴴ from the decomposition in `eig`, summed over the
/// eigenpairs in descending order; pairs that f maps to 0 are skipped.
template <typename F>
void rebuild(const EigWorkspace& eig, F&& f, Matrix& out) {
  const index_t n = eig.size();
  out.reset(n, n);
  for (index_t k = 0; k < n; ++k) {
    const real mapped = f(eig.eigenvalue(k));
    if (mapped == 0.0) continue;
    const std::span<const cx> vk = eig.eigenvector(k);
    for (index_t i = 0; i < n; ++i) {
      const cx scaled = mapped * vk[i];
      cx* row = &out(i, 0);
      for (index_t j = 0; j < n; ++j) row[j] += scaled * std::conj(vk[j]);
    }
  }
}

}  // namespace

Matrix psd_project(const Matrix& a) {
  EigWorkspace eig;
  eig.decompose(a);
  Matrix out;
  rebuild(eig, [](real lambda) { return std::max(lambda, 0.0); }, out);
  return out;
}

Matrix hermitian_sqrt(const Matrix& a) {
  EigWorkspace eig;
  eig.decompose(a);
  const real floor =
      -1e-9 * std::max(eig.size() == 0 ? 0.0 : eig.eigenvalue(0), 1.0);
  for (index_t k = 0; k < eig.size(); ++k)
    MMW_REQUIRE_MSG(eig.eigenvalue(k) >= floor,
                    "hermitian_sqrt: matrix is not PSD");
  Matrix out;
  rebuild(eig, [](real lambda) { return std::sqrt(std::max(lambda, 0.0)); },
          out);
  return out;
}

void eigenvalue_soft_threshold(const Matrix& a, real mu, EigWorkspace& ws,
                               Matrix& out) {
  MMW_REQUIRE_MSG(mu >= 0.0, "threshold must be non-negative");
  ws.decompose(a);
  rebuild(ws, [mu](real lambda) { return std::max(lambda - mu, 0.0); }, out);
}

Matrix eigenvalue_soft_threshold(const Matrix& a, real mu) {
  EigWorkspace ws;
  Matrix out;
  eigenvalue_soft_threshold(a, mu, ws, out);
  return out;
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
