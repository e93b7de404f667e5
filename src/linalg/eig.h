// Hermitian eigendecomposition and singular value decomposition.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace mmw::linalg {

/// Result of a Hermitian eigendecomposition A = V diag(λ) Vᴴ.
///
/// Eigenvalues are real (A Hermitian) and sorted in DESCENDING order;
/// `eigenvectors.col(k)` is the unit eigenvector for `eigenvalues[k]`.
struct EigResult {
  std::vector<real> eigenvalues;
  Matrix eigenvectors;

  /// Unit eigenvector for the largest eigenvalue.
  Vector principal_eigenvector() const { return eigenvectors.col(0); }

  /// Fraction of total |λ| mass captured by the top-k eigenvalues; used to
  /// quantify the low-rank concentration of channel covariance matrices.
  real energy_fraction(index_t k) const;
};

/// Eigendecomposition of a Hermitian matrix by Householder reduction to a
/// real symmetric tridiagonal followed by the implicit QL algorithm with
/// Wilkinson shifts (EISPACK tql2 deflation) — a single-pass O(n³) method.
///
/// Preconditions: `a` is square and Hermitian within 1e-8·max(1, ‖A‖_F)
/// per entry. Throws convergence_error if one eigenvalue takes more than 50
/// QL iterations (does not happen for genuinely Hermitian input).
EigResult hermitian_eig(const Matrix& a);

/// Result of a (thin) singular value decomposition A = U diag(σ) Vᴴ with
/// σ sorted descending; U is m×r, V is n×r where r = min(m, n), and both
/// have orthonormal columns.
struct SvdResult {
  Matrix u;
  std::vector<real> singular_values;
  Matrix v;
};

/// Thin SVD. A tall A (a wide one goes through Aᴴ) is reduced to the
/// triangle R of A = QR, and σ, V and U_R come from the top r eigenpairs of
/// the Hermitian dilation [[0, R], [Rᴴ, 0]], whose eigenvalues are ±σ: a
/// 2r-square eigenproblem that does not square the condition number (as a
/// Gram matrix AᴴA would). U = Q·U_R. Both factors are re-orthonormalized
/// in σ order, which also completes the columns for σ ≈ 0.
SvdResult svd(const Matrix& a);

}  // namespace mmw::linalg
