// Dense complex matrix type (row-major).
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "linalg/common.h"
#include "linalg/vector.h"

namespace mmw::linalg {

/// Dense row-major matrix over mmw::cx.
///
/// Sized for the regimes this library works in (antenna arrays up to a few
/// hundred elements), so plain O(n³) loops are used throughout; there is no
/// blocking or expression-template machinery.
class Matrix {
 public:
  Matrix() = default;

  /// Zero matrix of shape rows × cols.
  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cx{0.0, 0.0}) {}

  /// Builds from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<cx>> init);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool is_square() const { return rows_ == cols_; }

  cx& operator()(index_t i, index_t j) { return data_[i * cols_ + j]; }
  const cx& operator()(index_t i, index_t j) const {
    return data_[i * cols_ + j];
  }

  /// Becomes the rows × cols zero matrix. The storage is reused, so this
  /// allocates only to grow past every shape the matrix held before.
  void reset(index_t rows, index_t cols);

  /// Bounds-checked access.
  cx& at(index_t i, index_t j);
  const cx& at(index_t i, index_t j) const;

  std::span<const cx> data() const { return data_; }
  std::span<cx> data() { return data_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(cx scalar);
  Matrix& operator/=(cx scalar);

  /// Conjugate transpose Aᴴ.
  Matrix adjoint() const;

  /// Trace; requires a square matrix.
  cx trace() const;

  /// Frobenius norm ‖A‖_F.
  real frobenius_norm() const;

  /// Largest |a_ij|.
  real max_abs() const;

  /// Copy of column j.
  Vector col(index_t j) const;

  void set_col(index_t j, const Vector& v);

  /// True when ‖A − Aᴴ‖_max ≤ tol (requires square).
  bool is_hermitian(real tol = 1e-10) const;

  static Matrix identity(index_t n);

  /// Diagonal matrix from the given entries.
  static Matrix diagonal(std::span<const real> entries);
  static Matrix diagonal(std::span<const cx> entries);

  /// Rank-one outer product a bᴴ.
  static Matrix outer(const Vector& a, const Vector& b);

  /// In-place scaled rank-one update  A += (a bᴴ)·α  without materializing
  /// the outer product — the allocation-free form of
  /// `A += alpha * Matrix::outer(a, b)`, with bit-identical arithmetic
  /// (each entry accumulates (a_i·conj(b_j))·α exactly as the temporary
  /// route would). Pass α = −c for a subtraction.
  /// Preconditions: a.size() == rows(), b.size() == cols().
  Matrix& add_scaled_outer(cx alpha, const Vector& a, const Vector& b);

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<cx> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, cx scalar);
Matrix operator*(cx scalar, Matrix m);
Matrix operator/(Matrix m, cx scalar);
Matrix operator-(Matrix m);

/// Matrix product A·B. Requires A.cols() == B.rows().
Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix-vector product A·v.
Vector operator*(const Matrix& a, const Vector& v);

/// True when ‖A − B‖_F ≤ tol.
bool approx_equal(const Matrix& a, const Matrix& b, real tol);

/// Hermitian form vᴴ M v, returned as its (real) value. `m` must be square;
/// the imaginary part (zero for Hermitian M up to rounding) is discarded.
real hermitian_form(const Vector& v, const Matrix& m);

}  // namespace mmw::linalg
