// Factored Hermitian PSD representation Q = B Q_r Bᴴ (N×r basis, r×r core).
//
// The covariance matrices this library estimates are low-rank by
// construction: the likelihood only sees Q through the measured beam span,
// so the estimators solve an r×r problem (r ≤ J ≪ N) and the N×N dense
// matrix is pure bookkeeping. FactoredHermitian makes that factorization a
// first-class value so Rayleigh quotients, eigenpairs, traces and codebook
// scores are computed through the factor at O(N·r + r²) instead of O(N²) —
// the dense lift is available but explicit and lazy (`dense()`).
#pragma once

#include "linalg/eig.h"
#include "linalg/matrix.h"

namespace mmw::linalg {

/// Hermitian PSD matrix held as Q = B Q_r Bᴴ with B an N×r matrix whose
/// columns are orthonormal and Q_r an r×r Hermitian core.
///
/// Two storage modes:
///  - factored (r < N): basis + core are stored; operations project through
///    the basis. `dense()` lifts lazily and caches the result.
///  - full (constructed via `from_dense`): the basis is the identity and is
///    not stored; operations read the core directly, bit-for-bit matching
///    the plain dense formulas (`rayleigh` ≡ `hermitian_form`).
///
/// Thread-safety: all const operations except the FIRST `dense()` call are
/// safe to run concurrently; `dense()` populates a lazy cache, so share a
/// FactoredHermitian across threads only after lifting it once (or copy it
/// per thread, which the Monte-Carlo drivers do anyway).
class FactoredHermitian {
 public:
  /// Empty (dimension-0) value; `empty()` is true.
  FactoredHermitian() = default;

  /// Factored form Q = basis · core · basisᴴ.
  ///
  /// Preconditions: core is square with core.rows() == basis.cols(); the
  /// caller guarantees the basis columns are orthonormal (not re-checked —
  /// the estimators produce them by Gram–Schmidt).
  FactoredHermitian(Matrix basis, Matrix core);

  /// Full-rank wrapper: Q = q with an implicit identity basis. All factor
  /// operations degenerate to the plain dense formulas bit-for-bit.
  static FactoredHermitian from_dense(Matrix q);

  bool empty() const { return dim_ == 0; }

  /// Ambient dimension N.
  index_t dim() const { return dim_; }

  /// Factor width r (an upper bound on the numerical rank, not the rank
  /// itself: core eigenvalues may vanish).
  index_t rank() const { return core_.rows(); }

  /// True when the basis is the implicit identity (from_dense).
  bool is_full() const { return full_; }

  /// The r×r Hermitian core Q_r (the full matrix itself when is_full()).
  const Matrix& core() const { return core_; }

  /// The N×r orthonormal basis B. Precondition: !is_full() — the identity
  /// basis is implicit and never materialized.
  const Matrix& basis() const;

  /// Projection p = Bᴴ v (length r). Identity basis: returns v.
  Vector project(const Vector& v) const;

  /// Rayleigh quotient vᴴ Q v = (Bᴴv)ᴴ Q_r (Bᴴv), O(N·r + r²).
  real rayleigh(const Vector& v) const;

  /// Rayleigh quotient from an already-projected p = Bᴴ v: pᴴ Q_r p, O(r²).
  real rayleigh_projected(const Vector& p) const;

  /// Matrix-vector product Q v = B (Q_r (Bᴴ v)), O(N·r + r²).
  Vector apply(const Vector& v) const;

  /// tr(Q) = tr(Q_r) (B has orthonormal columns).
  real trace() const { return core_.trace().real(); }

  /// Eigendecomposition of Q through the core: decompose Q_r (r×r, via
  /// hermitian_eig) and lift the r eigenvectors as B·u. The remaining
  /// N−r eigenvalues of Q are exactly zero and are omitted, so the result
  /// holds r eigenpairs sorted descending. O(N·r² + r³) versus O(N³) dense.
  EigResult eig() const;

  /// Dense N×N lift Q = B Q_r Bᴴ, computed on first call and cached.
  /// Callers should reach for this only when a genuinely dense consumer
  /// (Frobenius-distance metrics, matrix accumulation, I/O) needs it — every
  /// scoring-path operation has a factor-aware method above.
  const Matrix& dense() const;

 private:
  index_t dim_ = 0;
  bool full_ = false;
  Matrix basis_;  ///< N×r; empty when full_
  Matrix core_;   ///< r×r (the dense matrix itself when full_)
  mutable Matrix dense_cache_;
  mutable bool dense_ready_ = false;
};

}  // namespace mmw::linalg
