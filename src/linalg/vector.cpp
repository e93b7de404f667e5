#include "linalg/vector.h"

#include <cmath>

namespace mmw::linalg {

cx& Vector::at(index_t i) {
  MMW_REQUIRE_MSG(i < size(), "vector index out of range");
  return data_[i];
}

const cx& Vector::at(index_t i) const {
  MMW_REQUIRE_MSG(i < size(), "vector index out of range");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  MMW_REQUIRE(size() == rhs.size());
  for (index_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  MMW_REQUIRE(size() == rhs.size());
  for (index_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(cx scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Vector& Vector::operator/=(cx scalar) {
  MMW_REQUIRE_MSG(std::abs(scalar) > 0.0, "division by zero");
  for (auto& v : data_) v /= scalar;
  return *this;
}

real Vector::norm() const { return std::sqrt(squared_norm()); }

real Vector::squared_norm() const {
  real acc = 0.0;
  for (const auto& v : data_) acc += std::norm(v);
  return acc;
}

Vector Vector::normalized() const {
  const real n = norm();
  MMW_REQUIRE_MSG(n > 0.0, "cannot normalize the zero vector");
  Vector out = *this;
  out /= cx{n, 0.0};
  return out;
}

Vector Vector::basis(index_t n, index_t i) {
  MMW_REQUIRE(i < n);
  Vector out(n);
  out[i] = cx{1.0, 0.0};
  return out;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector v, cx scalar) { return v *= scalar; }
Vector operator*(cx scalar, Vector v) { return v *= scalar; }
Vector operator/(Vector v, cx scalar) { return v /= scalar; }

Vector operator-(Vector v) {
  for (auto& x : v) x = -x;
  return v;
}

cx dot(const Vector& a, const Vector& b) {
  MMW_REQUIRE(a.size() == b.size());
  cx acc{0.0, 0.0};
  for (index_t i = 0; i < a.size(); ++i) acc += std::conj(a[i]) * b[i];
  return acc;
}

bool approx_equal(const Vector& a, const Vector& b, real tol) {
  if (a.size() != b.size()) return false;
  return (a - b).norm() <= tol;
}

}  // namespace mmw::linalg
