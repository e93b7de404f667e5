// Matrix functions built on the Hermitian eigendecomposition: PSD projection,
// square roots, nuclear-norm proximal operator and numerical rank.
#pragma once

#include "linalg/eig.h"
#include "linalg/matrix.h"

namespace mmw::linalg {

/// Projection of a Hermitian matrix onto the PSD cone: negative eigenvalues
/// are clipped to zero. This is the Euclidean (Frobenius) projection.
Matrix psd_project(const Matrix& a);

/// Hermitian PSD square root: returns S with S·S = A, S Hermitian PSD.
/// Eigenvalues slightly negative from rounding are clipped to zero.
Matrix hermitian_sqrt(const Matrix& a);

/// Proximal operator of μ‖·‖₁ (eigenvalue soft-thresholding) restricted to
/// the PSD cone:  prox(A) = V diag(max(λ − μ, 0)) Vᴴ.
///
/// For Hermitian PSD matrices the nuclear norm equals the trace, and this is
/// exactly the prox of μ‖·‖₁ composed with PSD projection — the update used
/// by the regularized ML covariance solver (paper eq. 23).
Matrix eigenvalue_soft_threshold(const Matrix& a, real mu);

/// eigenvalue_soft_threshold into `out`, decomposing in `ws`: the same
/// result bit for bit, with no heap allocation once `ws` and `out` have
/// held a matrix of a's size.
void eigenvalue_soft_threshold(const Matrix& a, real mu, EigWorkspace& ws,
                               Matrix& out);

/// Numerical rank: number of singular values above `rel_tol · σ_max`.
index_t numerical_rank(const Matrix& a, real rel_tol = 1e-9);

}  // namespace mmw::linalg
