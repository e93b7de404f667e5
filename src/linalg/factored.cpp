#include "linalg/factored.h"

namespace mmw::linalg {

FactoredHermitian::FactoredHermitian(Matrix basis, Matrix core)
    : dim_(basis.rows()),
      full_(false),
      basis_(std::move(basis)),
      core_(std::move(core)) {
  MMW_REQUIRE_MSG(core_.is_square(), "factored core must be square");
  MMW_REQUIRE_MSG(core_.rows() == basis_.cols(),
                  "factored core/basis width mismatch");
  MMW_REQUIRE_MSG(basis_.cols() <= basis_.rows(),
                  "factored basis must be tall (r <= N)");
}

FactoredHermitian FactoredHermitian::from_dense(Matrix q) {
  MMW_REQUIRE_MSG(q.is_square(), "dense covariance must be square");
  FactoredHermitian out;
  out.dim_ = q.rows();
  out.full_ = true;
  out.core_ = std::move(q);
  return out;
}

const Matrix& FactoredHermitian::basis() const {
  MMW_REQUIRE_MSG(!full_, "identity basis is implicit; check is_full()");
  return basis_;
}

Vector FactoredHermitian::project(const Vector& v) const {
  MMW_REQUIRE(v.size() == dim_);
  if (full_) return v;
  const index_t r = basis_.cols();
  Vector p(r);
  for (index_t k = 0; k < r; ++k) {
    cx acc{0.0, 0.0};
    for (index_t i = 0; i < dim_; ++i)
      acc += std::conj(basis_(i, k)) * v[i];
    p[k] = acc;
  }
  return p;
}

real FactoredHermitian::rayleigh(const Vector& v) const {
  // Full mode must remain bit-identical to hermitian_form(v, dense), so it
  // takes exactly that code path; the factored mode scores through Bᴴv.
  if (full_) return hermitian_form(v, core_);
  return rayleigh_projected(project(v));
}

real FactoredHermitian::rayleigh_projected(const Vector& p) const {
  return hermitian_form(p, core_);
}

Vector FactoredHermitian::apply(const Vector& v) const {
  if (full_) return core_ * v;
  const Vector t = core_ * project(v);
  Vector out(dim_);
  for (index_t i = 0; i < dim_; ++i) {
    cx acc{0.0, 0.0};
    for (index_t k = 0; k < basis_.cols(); ++k) acc += basis_(i, k) * t[k];
    out[i] = acc;
  }
  return out;
}

EigResult FactoredHermitian::eig() const {
  EigResult core_eig = hermitian_eig(core_);
  if (full_) return core_eig;
  // Lift the r eigenvectors: column k of B·U. The remaining N−r eigenvalues
  // of Q are exactly zero (Q vanishes off the basis span) and are omitted.
  core_eig.eigenvectors = basis_ * core_eig.eigenvectors;
  return core_eig;
}

const Matrix& FactoredHermitian::dense() const {
  if (dense_ready_) return dense_cache_;
  if (full_) {
    dense_cache_ = core_;
  } else {
    // Lift Q = B Q_r Bᴴ. Loop order and arithmetic deliberately mirror the
    // historical estimator lift so cached dense results stay bit-identical
    // to the pre-factored pipeline (golden figure CSVs depend on it).
    const index_t r = core_.rows();
    Matrix q(dim_, dim_);
    for (index_t a = 0; a < r; ++a) {
      for (index_t b = 0; b < r; ++b) {
        const cx qab = core_(a, b);
        if (qab == cx{0.0, 0.0}) continue;
        for (index_t i = 0; i < dim_; ++i) {
          const cx scaled = qab * basis_(i, a);
          for (index_t j = 0; j < dim_; ++j)
            q(i, j) += scaled * std::conj(basis_(j, b));
        }
      }
    }
    dense_cache_ = std::move(q);
  }
  dense_ready_ = true;
  return dense_cache_;
}

}  // namespace mmw::linalg
