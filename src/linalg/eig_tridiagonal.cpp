// The Hermitian eigensolver: Householder tridiagonalization + implicit QL.
//
// Pipeline: A (complex Hermitian)
//   → Householder similarity to complex-Hermitian tridiagonal
//   → diagonal phase similarity making the off-diagonal real non-negative
//   → implicit QL with Wilkinson shifts on the real tridiagonal,
// with all transforms accumulated into a complex unitary Z, so finally
// A = Z diag(λ) Zᴴ. Z is stored transposed (zt_ = Zᵀ): every update below
// that the textbook writes on a column of Z runs on a contiguous row of
// zt_, with the same operations in the same order.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/eig.h"
#include "obs/metrics.h"

namespace mmw::linalg {

/// Householder reduction of Hermitian a_ (modified in place) to
/// tridiagonal form; zt_ accumulates the unitary similarity.
/// Afterwards only a_'s diagonal and first off-diagonal are meaningful.
void EigWorkspace::tridiagonalize() {
  Matrix& a = a_;
  const index_t n = a.rows();

  for (index_t k = 0; k + 2 < n; ++k) {
    // x = a[k+1 .. n-1, k]; reflect it onto ±e1.
    real xnorm_sq = 0.0;
    for (index_t i = k + 1; i < n; ++i) xnorm_sq += std::norm(a(i, k));
    const real xnorm = std::sqrt(xnorm_sq);
    if (xnorm == 0.0) continue;

    const cx x1 = a(k + 1, k);
    // alpha = −e^{i·arg(x1)}·‖x‖ so that v = x − α·e1 never cancels.
    const cx phase = (x1 == cx{0.0, 0.0}) ? cx{1.0, 0.0} : x1 / std::abs(x1);
    const cx alpha = -phase * xnorm;

    // u = (x − α e1) normalized.
    real unorm_sq = 0.0;
    for (index_t i = k + 1; i < n; ++i) {
      u_[i] = a(i, k) - ((i == k + 1) ? alpha : cx{0.0, 0.0});
      unorm_sq += std::norm(u_[i]);
    }
    if (unorm_sq == 0.0) continue;
    const real inv_unorm = 1.0 / std::sqrt(unorm_sq);
    for (index_t i = k + 1; i < n; ++i) u_[i] *= inv_unorm;

    // p = A u on the trailing block.
    for (index_t i = k + 1; i < n; ++i) {
      cx acc{0.0, 0.0};
      for (index_t j = k + 1; j < n; ++j) acc += a(i, j) * u_[j];
      p_[i] = acc;
    }
    // c = uᴴ p (real for Hermitian A); w = 2p − 2c·u.
    cx c{0.0, 0.0};
    for (index_t i = k + 1; i < n; ++i) c += std::conj(u_[i]) * p_[i];
    for (index_t i = k + 1; i < n; ++i)
      w_[i] = 2.0 * p_[i] - 2.0 * c * u_[i];

    // Trailing block: A ← A − u wᴴ − w uᴴ.
    for (index_t i = k + 1; i < n; ++i)
      for (index_t j = k + 1; j < n; ++j)
        a(i, j) -= u_[i] * std::conj(w_[j]) + w_[i] * std::conj(u_[j]);

    // Column k: x ← α e1 (and the Hermitian mirror row).
    a(k + 1, k) = alpha;
    a(k, k + 1) = std::conj(alpha);
    for (index_t i = k + 2; i < n; ++i) {
      a(i, k) = cx{0.0, 0.0};
      a(k, i) = cx{0.0, 0.0};
    }

    // Accumulate Z ← Z (I − 2uuᴴ): row r of Z takes 2·(Z u)_r·uᴴ on its
    // entries k+1.., i.e. rows k+1.. of Zᵀ take acc·conj(u_j). acc_[r]
    // sums z(r, j)·u_j over ascending j, as a row-wise dot product would.
    std::fill(acc_.begin(), acc_.end(), cx{0.0, 0.0});
    for (index_t j = k + 1; j < n; ++j) {
      const cx* zj = &zt_(j, 0);
      for (index_t r = 0; r < n; ++r) acc_[r] += zj[r] * u_[j];
    }
    for (index_t r = 0; r < n; ++r) acc_[r] *= 2.0;
    for (index_t j = k + 1; j < n; ++j) {
      cx* zj = &zt_(j, 0);
      for (index_t r = 0; r < n; ++r) zj[r] -= acc_[r] * std::conj(u_[j]);
    }
  }
}

/// Implicit QL with Wilkinson shifts on the real symmetric tridiagonal
/// (d_ = diagonal, e_ = subdiagonal, e_[n-1] unused), rotations
/// accumulated into rows of zt_. Numerical-Recipes tqli structure.
///
/// A subdiagonal entry is negligible when it is small against its two
/// diagonal neighbours, or — EISPACK tql2's test — when it vanishes
/// against tst1, the largest |d_l| + |e_l| seen so far. The second exit is
/// what deflates inside a cluster of (near-)zero eigenvalues, where the
/// neighbour-relative test never fires.
void EigWorkspace::tridiagonal_ql() {
  std::vector<real>& d = d_;
  std::vector<real>& e = e_;
  const index_t n = d.size();
  if (n == 0) return;
  e[n - 1] = 0.0;

  real tst1 = 0.0;
  for (index_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    int iterations = 0;
    index_t m;
    do {
      // Find the first negligible subdiagonal at or above l.
      for (m = l; m + 1 < n; ++m) {
        const real dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd || tst1 + std::abs(e[m]) == tst1)
          break;
      }
      if (m == l) break;
      if (++iterations > 50)
        throw convergence_error("hermitian_eig: QL iteration stalled");

      // Wilkinson shift.
      real g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      real r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      real s = 1.0, c = 1.0, p = 0.0;

      bool underflow = false;
      for (index_t i = m; i-- > l;) {
        real f = s * e[i];
        const real b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Rotation annihilated early: restart the sweep for this l.
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        // Accumulate the rotation into columns i, i+1 of Z: rows of Zᵀ.
        cx* z0 = &zt_(i, 0);
        cx* z1 = &zt_(i + 1, 0);
        for (index_t k = 0; k < n; ++k) {
          const cx zk1 = z1[k];
          const cx zk0 = z0[k];
          z1[k] = s * zk0 + c * zk1;
          z0[k] = c * zk0 - s * zk1;
        }
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    } while (m != l);
  }
}

void EigWorkspace::decompose(const Matrix& a_in) {
  MMW_REQUIRE_MSG(a_in.is_square(), "hermitian_eig requires a square matrix");
  const real scale = std::max(a_in.frobenius_norm(), 1e-300);
  MMW_REQUIRE_MSG(a_in.is_hermitian(1e-8 * std::max(1.0, scale)),
                  "hermitian_eig requires a Hermitian matrix");

  if (obs::enabled()) {
    static const obs::Counter calls =
        obs::Registry::global().counter("linalg.eig.ql_calls");
    calls.add();
  }

  const index_t n = a_in.rows();
  // Every buffer is written in full here before any step reads it, and the
  // result is empty until the sort below, so a throw leaves nothing stale.
  order_.clear();
  a_.reset(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      a_(i, j) = (a_in(i, j) + std::conj(a_in(j, i))) * cx{0.5, 0.0};
  zt_.reset(n, n);
  for (index_t i = 0; i < n; ++i) zt_(i, i) = cx{1.0, 0.0};
  for (std::vector<cx>* v : {&u_, &p_, &w_, &acc_})
    v->assign(n, cx{0.0, 0.0});
  tridiagonalize();

  // Phase similarity: make the (complex) subdiagonal real non-negative.
  // With D = diag(e^{iψ_0}, …), (Dᴴ T D)_{i+1,i} = e^{-iψ_{i+1}} t e^{iψ_i};
  // choose ψ cumulatively and fold D into Z (columns scale by e^{iψ_j}).
  d_.assign(n, 0.0);
  e_.assign(n, 0.0);
  cx psi{1.0, 0.0};  // e^{iψ_j}, built incrementally
  for (index_t i = 0; i < n; ++i) {
    d_[i] = a_(i, i).real();
    cx next_psi = psi;
    if (i + 1 < n) {
      const cx t = a_(i + 1, i);
      const real mag = std::abs(t);
      // e^{iψ_{i+1}} = e^{iψ_i} · t/|t| makes the transformed entry |t|.
      if (mag != 0.0) next_psi = psi * (t / mag);
      e_[i] = mag;
    }
    // Fold the phase into Z's column i (current ψ) now.
    cx* zi = &zt_(i, 0);
    for (index_t r = 0; r < n; ++r) zi[r] *= psi;
    psi = next_psi;
  }

  tridiagonal_ql();

  // Sort eigenpairs descending.
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), index_t{0});
  std::sort(order_.begin(), order_.end(),
            [&](index_t x, index_t y) { return d_[x] > d_[y]; });
}

EigResult hermitian_eig(const Matrix& a) {
  EigWorkspace ws;
  ws.decompose(a);
  const index_t n = ws.size();
  EigResult result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (index_t k = 0; k < n; ++k) {
    result.eigenvalues[k] = ws.eigenvalue(k);
    const std::span<const cx> v = ws.eigenvector(k);
    for (index_t i = 0; i < n; ++i) result.eigenvectors(i, k) = v[i];
  }
  return result;
}

}  // namespace mmw::linalg
