// Dense complex vector type.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "linalg/common.h"

namespace mmw::linalg {

/// Dense column vector over mmw::cx.
///
/// Value type with the usual arithmetic; Hermitian inner products follow the
/// physics convention `dot(a, b) = aᴴ b` (conjugate-linear in the first
/// argument), matching the beamforming expressions `vᴴ H u` in the paper.
class Vector {
 public:
  Vector() = default;

  /// Zero vector of dimension n.
  explicit Vector(index_t n) : data_(n, cx{0.0, 0.0}) {}

  Vector(std::initializer_list<cx> init) : data_(init) {}

  /// Copies the span contents.
  explicit Vector(std::span<const cx> values)
      : data_(values.begin(), values.end()) {}

  index_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  cx& operator[](index_t i) { return data_[i]; }
  const cx& operator[](index_t i) const { return data_[i]; }

  /// Bounds-checked access.
  cx& at(index_t i);
  const cx& at(index_t i) const;

  std::span<const cx> data() const { return data_; }
  std::span<cx> data() { return data_; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(cx scalar);
  Vector& operator/=(cx scalar);

  /// Euclidean norm ‖v‖₂.
  real norm() const;

  /// Squared Euclidean norm.
  real squared_norm() const;

  /// Returns v / ‖v‖₂. Precondition: ‖v‖₂ > 0.
  Vector normalized() const;

  /// Standard basis vector e_i of dimension n.
  static Vector basis(index_t n, index_t i);

 private:
  std::vector<cx> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector v, cx scalar);
Vector operator*(cx scalar, Vector v);
Vector operator/(Vector v, cx scalar);
Vector operator-(Vector v);

/// Hermitian inner product aᴴ b (conjugate-linear in `a`).
cx dot(const Vector& a, const Vector& b);

/// True when ‖a − b‖₂ ≤ tol.
bool approx_equal(const Vector& a, const Vector& b, real tol);

}  // namespace mmw::linalg
