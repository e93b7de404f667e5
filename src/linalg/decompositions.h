// Cholesky, LU and QR factorizations, determinant, least squares.
#pragma once

#include <optional>

#include "linalg/matrix.h"

namespace mmw::linalg {

/// Cholesky factor of a Hermitian positive semi-definite matrix:
/// returns lower-triangular L with A = L Lᴴ.
///
/// Accepts semi-definite input: pivots below `tol * trace(A)/n` are treated
/// as exactly zero (the corresponding column of L is zeroed). Throws
/// precondition_error when a pivot is negative beyond tolerance, i.e. the
/// matrix is not PSD.
Matrix cholesky(const Matrix& a, real tol = 1e-12);

/// LU factorization with partial pivoting, packed in-place.
struct LuResult {
  Matrix lu;                    ///< L (unit diagonal, below) and U (above).
  std::vector<index_t> perm;    ///< row permutation: row i of PA is row perm[i] of A
  int sign = 1;                 ///< permutation sign (determinant parity)
  bool singular = false;        ///< true when a zero pivot was hit
};

/// Computes PA = LU with partial pivoting. Never throws on singular input;
/// check `singular` instead.
LuResult lu_decompose(const Matrix& a);

/// Determinant via LU.
cx determinant(const Matrix& a);

/// Thin QR factorization A = Q R (Householder): for an m×n matrix with
/// m ≥ n, Q is m×n with orthonormal columns and R is n×n upper triangular
/// with real non-negative diagonal.
struct QrResult {
  Matrix q;
  Matrix r;
};

/// Preconditions: a.rows() ≥ a.cols() ≥ 1.
QrResult qr_decompose(const Matrix& a);

/// Least-squares solution of min ‖A x − b‖₂ via QR.
/// Preconditions: A has full column rank (to working precision),
/// a.rows() ≥ a.cols(), b sized to a.rows().
Vector least_squares(const Matrix& a, const Vector& b);

}  // namespace mmw::linalg
