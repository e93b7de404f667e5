// Hermitian eigendecomposition and singular value decomposition.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace mmw::linalg {

/// The Hermitian eigensolver over caller-owned storage: Householder
/// reduction to a real symmetric tridiagonal, then implicit QL with
/// Wilkinson shifts (EISPACK tql2 deflation), a single-pass O(n³) method.
/// Every other eigendecomposition in the library (hermitian_eig, the SVD,
/// the matrix functions, FactoredHermitian::eig) runs this one.
///
/// The accumulated unitary Z is held transposed, so eigenvector k is a
/// contiguous row and each QL rotation updates two rows in place.
/// `decompose` allocates only to grow past every size decomposed before,
/// so a workspace reused at one size makes no heap allocation.
class EigWorkspace {
 public:
  /// Decomposes `a` = V diag(λ) Vᴴ, replacing any earlier result.
  ///
  /// Preconditions: `a` is square and Hermitian within
  /// 1e-8·max(1, ‖A‖_F) per entry. Throws convergence_error if one
  /// eigenvalue takes more than 50 QL iterations (does not happen for
  /// genuinely Hermitian input).
  void decompose(const Matrix& a);

  /// Dimension of the last successful decomposition (0 before one, and
  /// after a throw).
  index_t size() const { return order_.size(); }

  /// The k-th largest eigenvalue (k = 0 is the largest).
  real eigenvalue(index_t k) const { return d_[order_[k]]; }

  /// Unit eigenvector for eigenvalue(k), as a row of the transposed Z.
  std::span<const cx> eigenvector(index_t k) const {
    return zt_.data().subspan(order_[k] * size(), size());
  }

 private:
  void tridiagonalize();
  void tridiagonal_ql();

  Matrix a_;   ///< working copy, reduced to tridiagonal form in place
  Matrix zt_;  ///< Zᵀ: row k is the unsorted eigenvector of d_[k]
  std::vector<real> d_, e_;  ///< tridiagonal diagonal and subdiagonal
  std::vector<cx> u_, p_, w_, acc_;  ///< Householder vectors, Z·u
  std::vector<index_t> order_;       ///< d_ indices, descending
};

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

/// Eigendecomposition of a Hermitian matrix: EigWorkspace::decompose on a
/// workspace of its own, copied out. Same preconditions and throws.
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
