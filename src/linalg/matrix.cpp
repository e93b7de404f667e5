#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace mmw::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<cx>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    MMW_REQUIRE_MSG(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::reset(index_t rows, index_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, cx{0.0, 0.0});
}

cx& Matrix::at(index_t i, index_t j) {
  MMW_REQUIRE_MSG(i < rows_ && j < cols_, "matrix index out of range");
  return (*this)(i, j);
}

const cx& Matrix::at(index_t i, index_t j) const {
  MMW_REQUIRE_MSG(i < rows_ && j < cols_, "matrix index out of range");
  return (*this)(i, j);
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  MMW_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (index_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  MMW_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (index_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(cx scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Matrix& Matrix::operator/=(cx scalar) {
  MMW_REQUIRE_MSG(std::abs(scalar) > 0.0, "division by zero");
  for (auto& v : data_) v /= scalar;
  return *this;
}

Matrix Matrix::adjoint() const {
  Matrix out(cols_, rows_);
  for (index_t i = 0; i < rows_; ++i)
    for (index_t j = 0; j < cols_; ++j) out(j, i) = std::conj((*this)(i, j));
  return out;
}

cx Matrix::trace() const {
  MMW_REQUIRE_MSG(is_square(), "trace requires a square matrix");
  cx acc{0.0, 0.0};
  for (index_t i = 0; i < rows_; ++i) acc += (*this)(i, i);
  return acc;
}

real Matrix::frobenius_norm() const {
  real acc = 0.0;
  for (const auto& v : data_) acc += std::norm(v);
  return std::sqrt(acc);
}

real Matrix::max_abs() const {
  real m = 0.0;
  for (const auto& v : data_) m = std::max(m, std::abs(v));
  return m;
}

Vector Matrix::col(index_t j) const {
  MMW_REQUIRE(j < cols_);
  Vector out(rows_);
  for (index_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
  return out;
}

void Matrix::set_col(index_t j, const Vector& v) {
  MMW_REQUIRE(j < cols_ && v.size() == rows_);
  for (index_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

bool Matrix::is_hermitian(real tol) const {
  if (!is_square()) return false;
  // A difference whose parts are both within tol/2 has |d| ≤ tol/√2, so
  // only the other pairs need std::abs (a hypot); the verdict is the same.
  const real half = 0.5 * tol;
  for (index_t i = 0; i < rows_; ++i)
    for (index_t j = i; j < cols_; ++j) {
      const cx d = (*this)(i, j) - std::conj((*this)(j, i));
      if (std::abs(d.real()) <= half && std::abs(d.imag()) <= half) continue;
      if (std::abs(d) > tol) return false;
    }
  return true;
}

Matrix Matrix::identity(index_t n) {
  Matrix out(n, n);
  for (index_t i = 0; i < n; ++i) out(i, i) = cx{1.0, 0.0};
  return out;
}

Matrix Matrix::diagonal(std::span<const real> entries) {
  Matrix out(entries.size(), entries.size());
  for (index_t i = 0; i < entries.size(); ++i)
    out(i, i) = cx{entries[i], 0.0};
  return out;
}

Matrix Matrix::diagonal(std::span<const cx> entries) {
  Matrix out(entries.size(), entries.size());
  for (index_t i = 0; i < entries.size(); ++i) out(i, i) = entries[i];
  return out;
}

Matrix Matrix::outer(const Vector& a, const Vector& b) {
  Matrix out(a.size(), b.size());
  for (index_t i = 0; i < a.size(); ++i)
    for (index_t j = 0; j < b.size(); ++j)
      out(i, j) = a[i] * std::conj(b[j]);
  return out;
}

Matrix& Matrix::add_scaled_outer(cx alpha, const Vector& a, const Vector& b) {
  MMW_REQUIRE_MSG(a.size() == rows_ && b.size() == cols_,
                  "rank-one update shape mismatch");
  cx* out = data_.data();
  for (index_t i = 0; i < rows_; ++i) {
    const cx ai = a[i];
    for (index_t j = 0; j < cols_; ++j)
      out[i * cols_ + j] += (ai * std::conj(b[j])) * alpha;
  }
  return *this;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, cx scalar) { return m *= scalar; }
Matrix operator*(cx scalar, Matrix m) { return m *= scalar; }
Matrix operator/(Matrix m, cx scalar) { return m /= scalar; }

Matrix operator-(Matrix m) {
  for (auto& v : m.data()) v = -v;
  return m;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  MMW_REQUIRE_MSG(a.cols() == b.rows(), "matrix product shape mismatch");
  // ikj order: the inner loop streams contiguous rows of B and OUT, which
  // the compiler can keep in registers / vectorize; raw pointers sidestep
  // the per-access index arithmetic of operator(). Accumulation order is
  // identical to the classical triple loop, so results are bit-stable.
  Matrix out(a.rows(), b.cols());
  const index_t n = b.cols();
  const cx* bp = b.data().data();
  cx* op = out.data().data();
  for (index_t i = 0; i < a.rows(); ++i) {
    cx* out_row = op + i * n;
    for (index_t k = 0; k < a.cols(); ++k) {
      const cx aik = a(i, k);
      if (aik == cx{0.0, 0.0}) continue;
      const cx* b_row = bp + k * n;
      for (index_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
  return out;
}

Vector operator*(const Matrix& a, const Vector& v) {
  MMW_REQUIRE_MSG(a.cols() == v.size(), "matrix-vector shape mismatch");
  Vector out(a.rows());
  const cx* ap = a.data().data();
  const cx* vp = v.data().data();
  for (index_t i = 0; i < a.rows(); ++i) {
    const cx* a_row = ap + i * a.cols();
    cx acc{0.0, 0.0};
    for (index_t j = 0; j < a.cols(); ++j) acc += a_row[j] * vp[j];
    out[i] = acc;
  }
  return out;
}

bool approx_equal(const Matrix& a, const Matrix& b, real tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return (a - b).frobenius_norm() <= tol;
}

real hermitian_form(const Vector& v, const Matrix& m) {
  MMW_REQUIRE(m.is_square());
  MMW_REQUIRE_MSG(m.cols() == v.size(), "matrix-vector shape mismatch");
  // dot(v, m * v) in one pass: each (Mv)_i is summed exactly as operator*
  // sums it and folded into the dot product as dot() folds it.
  const index_t n = v.size();
  const cx* row = m.data().data();
  const cx* vp = v.data().data();
  cx acc{0.0, 0.0};
  for (index_t i = 0; i < n; ++i, row += n) {
    cx mv{0.0, 0.0};
    for (index_t j = 0; j < n; ++j) mv += row[j] * vp[j];
    acc += std::conj(vp[i]) * mv;
  }
  return acc.real();
}

}  // namespace mmw::linalg
