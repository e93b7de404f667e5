#include "linalg/decompositions.h"

#include <cmath>

namespace mmw::linalg {

Matrix cholesky(const Matrix& a, real tol) {
  MMW_REQUIRE_MSG(a.is_square(), "cholesky requires a square matrix");
  const index_t n = a.rows();
  MMW_REQUIRE_MSG(a.is_hermitian(1e-8 * std::max(1.0, a.max_abs())),
                  "cholesky requires a Hermitian matrix");

  const real pivot_floor =
      tol * std::max(std::abs(a.trace().real()) / std::max<index_t>(n, 1), 1e-300);

  Matrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    real diag = a(j, j).real();
    for (index_t k = 0; k < j; ++k) diag -= std::norm(l(j, k));
    if (diag < -pivot_floor)
      throw precondition_error("cholesky: matrix is not positive semi-definite");
    if (diag <= pivot_floor) {
      // Semi-definite direction: zero column, consistent with A = L Lᴴ up to tol.
      continue;
    }
    const real ljj = std::sqrt(diag);
    l(j, j) = cx{ljj, 0.0};
    for (index_t i = j + 1; i < n; ++i) {
      cx acc = a(i, j);
      for (index_t k = 0; k < j; ++k) acc -= l(i, k) * std::conj(l(j, k));
      l(i, j) = acc / ljj;
    }
  }
  return l;
}

LuResult lu_decompose(const Matrix& a) {
  MMW_REQUIRE_MSG(a.is_square(), "lu_decompose requires a square matrix");
  const index_t n = a.rows();
  LuResult r;
  r.lu = a;
  r.perm.resize(n);
  for (index_t i = 0; i < n; ++i) r.perm[i] = i;

  for (index_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at/below the diagonal.
    index_t piv = k;
    real best = std::abs(r.lu(k, k));
    for (index_t i = k + 1; i < n; ++i) {
      const real mag = std::abs(r.lu(i, k));
      if (mag > best) {
        best = mag;
        piv = i;
      }
    }
    if (best == 0.0) {
      r.singular = true;
      continue;
    }
    if (piv != k) {
      for (index_t j = 0; j < n; ++j) std::swap(r.lu(k, j), r.lu(piv, j));
      std::swap(r.perm[k], r.perm[piv]);
      r.sign = -r.sign;
    }
    const cx pivot = r.lu(k, k);
    for (index_t i = k + 1; i < n; ++i) {
      const cx factor = r.lu(i, k) / pivot;
      r.lu(i, k) = factor;
      for (index_t j = k + 1; j < n; ++j) r.lu(i, j) -= factor * r.lu(k, j);
    }
  }
  return r;
}

cx determinant(const Matrix& a) {
  const LuResult f = lu_decompose(a);
  if (f.singular) return cx{0.0, 0.0};
  cx det{static_cast<real>(f.sign), 0.0};
  for (index_t i = 0; i < a.rows(); ++i) det *= f.lu(i, i);
  return det;
}

QrResult qr_decompose(const Matrix& a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  MMW_REQUIRE_MSG(m >= n && n >= 1, "qr requires a tall (m >= n) matrix");

  Matrix r = a;                       // reduced in place to R (top block)
  Matrix q_full = Matrix::identity(m);  // accumulates the reflections

  for (index_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    real xnorm_sq = 0.0;
    for (index_t i = k; i < m; ++i) xnorm_sq += std::norm(r(i, k));
    const real xnorm = std::sqrt(xnorm_sq);
    if (xnorm == 0.0) continue;
    const cx x0 = r(k, k);
    const cx phase =
        (x0 == cx{0.0, 0.0}) ? cx{1.0, 0.0} : x0 / std::abs(x0);
    const cx alpha = -phase * xnorm;

    Vector u(m);
    real unorm_sq = 0.0;
    for (index_t i = k; i < m; ++i) {
      u[i] = r(i, k) - ((i == k) ? alpha : cx{0.0, 0.0});
      unorm_sq += std::norm(u[i]);
    }
    if (unorm_sq == 0.0) continue;
    const real inv = 1.0 / std::sqrt(unorm_sq);
    for (index_t i = k; i < m; ++i) u[i] *= inv;

    // R ← (I − 2uuᴴ) R on the trailing columns.
    for (index_t j = k; j < n; ++j) {
      cx proj{0.0, 0.0};
      for (index_t i = k; i < m; ++i) proj += std::conj(u[i]) * r(i, j);
      proj *= 2.0;
      for (index_t i = k; i < m; ++i) r(i, j) -= proj * u[i];
    }
    // Q ← Q (I − 2uuᴴ).
    for (index_t row = 0; row < m; ++row) {
      cx proj{0.0, 0.0};
      for (index_t i = k; i < m; ++i) proj += q_full(row, i) * u[i];
      proj *= 2.0;
      for (index_t i = k; i < m; ++i)
        q_full(row, i) -= proj * std::conj(u[i]);
    }
  }

  // Canonicalize: make R's diagonal real non-negative by a phase similarity.
  QrResult out;
  out.q = Matrix(m, n);
  out.r = Matrix(n, n);
  for (index_t k = 0; k < n; ++k) {
    const cx d = r(k, k);
    const cx phase =
        (d == cx{0.0, 0.0}) ? cx{1.0, 0.0} : d / std::abs(d);
    for (index_t j = k; j < n; ++j)
      out.r(k, j) = std::conj(phase) * r(k, j);
    for (index_t i = 0; i < m; ++i) out.q(i, k) = q_full(i, k) * phase;
  }
  return out;
}

Vector least_squares(const Matrix& a, const Vector& b) {
  MMW_REQUIRE(b.size() == a.rows());
  const QrResult f = qr_decompose(a);
  const index_t n = a.cols();
  // x = R⁻¹ Qᴴ b (back substitution).
  Vector y(n);
  for (index_t k = 0; k < n; ++k) {
    cx acc{0.0, 0.0};
    for (index_t i = 0; i < a.rows(); ++i)
      acc += std::conj(f.q(i, k)) * b[i];
    y[k] = acc;
  }
  Vector x(n);
  for (index_t kk = n; kk-- > 0;) {
    cx acc = y[kk];
    for (index_t j = kk + 1; j < n; ++j) acc -= f.r(kk, j) * x[j];
    MMW_REQUIRE_MSG(std::abs(f.r(kk, kk)) > 1e-13 * (1.0 + f.r(0, 0).real()),
                    "least_squares: rank-deficient matrix");
    x[kk] = acc / f.r(kk, kk);
  }
  return x;
}

}  // namespace mmw::linalg
