// Scalar tier, workspace, and runtime dispatch for the batched scoring kernels.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/linalg/CMakeLists.txt): the bit-exactness contract between tiers
// forbids the compiler from fusing the kernels' separate multiply and add
// steps into FMAs that round differently.
#include "linalg/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mmw::linalg::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier
// ---------------------------------------------------------------------------
//
// Each kernel blocks the batch (column) dimension so the per-block
// accumulators live in registers across the whole reduction. Blocking never
// changes results: every output element still accumulates its own terms in
// ascending reduction order, one rounded sum per term — exactly the
// std::complex arithmetic of the historical per-codeword path.

constexpr index_t kBlock = 8;

/// out-rows k of Aᴴ·X for one column block [c0, c0+width).
template <index_t kWidth>
void adjoint_gemm_block(const Matrix& a, const SoAConstView& x, SoAView& out,
                        index_t k, index_t c0) {
  const index_t n = a.rows();
  const index_t v = x.cols;
  double acc_re[kWidth] = {};
  double acc_im[kWidth] = {};
  for (index_t i = 0; i < n; ++i) {
    const cx b = a(i, k);
    const double br = b.real();
    const double bi = b.imag();
    const double* xr = x.re + i * v + c0;
    const double* xi = x.im + i * v + c0;
    for (index_t c = 0; c < kWidth; ++c) {
      // conj(b)·x: re = br·xr + bi·xi, im = br·xi − bi·xr; each product
      // rounded individually, then ONE rounded sum per component, then the
      // accumulator add — the same three roundings std::conj(b) * x does.
      const double t1 = br * xr[c];
      const double t2 = bi * xi[c];
      const double t3 = br * xi[c];
      const double t4 = bi * xr[c];
      acc_re[c] += t1 + t2;
      acc_im[c] += t3 - t4;
    }
  }
  for (index_t c = 0; c < kWidth; ++c) {
    out.re[k * v + c0 + c] = acc_re[c];
    out.im[k * v + c0 + c] = acc_im[c];
  }
}

void adjoint_gemm_scalar_tail(const Matrix& a, const SoAConstView& x,
                              SoAView& out, index_t k, index_t c0) {
  const index_t n = a.rows();
  const index_t v = x.cols;
  for (index_t c = c0; c < v; ++c) {
    double acc_re = 0.0;
    double acc_im = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const cx b = a(i, k);
      const double t1 = b.real() * x.re[i * v + c];
      const double t2 = b.imag() * x.im[i * v + c];
      const double t3 = b.real() * x.im[i * v + c];
      const double t4 = b.imag() * x.re[i * v + c];
      acc_re += t1 + t2;
      acc_im += t3 - t4;
    }
    out.re[k * v + c] = acc_re;
    out.im[k * v + c] = acc_im;
  }
}

void adjoint_gemm_scalar(const Matrix& a, SoAConstView x, SoAView out) {
  const index_t r = a.cols();
  const index_t v = x.cols;
  const index_t main = v - v % kBlock;
  for (index_t k = 0; k < r; ++k) {
    for (index_t c0 = 0; c0 < main; c0 += kBlock)
      adjoint_gemm_block<kBlock>(a, x, out, k, c0);
    adjoint_gemm_scalar_tail(a, x, out, k, main);
  }
}

template <index_t kWidth>
void gemm_block(const Matrix& a, const SoAConstView& x, SoAView& out,
                index_t i, index_t c0) {
  const index_t n = a.cols();
  const index_t v = x.cols;
  double acc_re[kWidth] = {};
  double acc_im[kWidth] = {};
  for (index_t j = 0; j < n; ++j) {
    const cx aij = a(i, j);
    const double ar = aij.real();
    const double ai = aij.imag();
    const double* xr = x.re + j * v + c0;
    const double* xi = x.im + j * v + c0;
    for (index_t c = 0; c < kWidth; ++c) {
      // a·x: re = ar·xr − ai·xi, im = ar·xi + ai·xr.
      const double t1 = ar * xr[c];
      const double t2 = ai * xi[c];
      const double t3 = ar * xi[c];
      const double t4 = ai * xr[c];
      acc_re[c] += t1 - t2;
      acc_im[c] += t3 + t4;
    }
  }
  for (index_t c = 0; c < kWidth; ++c) {
    out.re[i * v + c0 + c] = acc_re[c];
    out.im[i * v + c0 + c] = acc_im[c];
  }
}

void gemm_scalar_tail(const Matrix& a, const SoAConstView& x, SoAView& out,
                      index_t i, index_t c0) {
  const index_t n = a.cols();
  const index_t v = x.cols;
  for (index_t c = c0; c < v; ++c) {
    double acc_re = 0.0;
    double acc_im = 0.0;
    for (index_t j = 0; j < n; ++j) {
      const cx aij = a(i, j);
      const double t1 = aij.real() * x.re[j * v + c];
      const double t2 = aij.imag() * x.im[j * v + c];
      const double t3 = aij.real() * x.im[j * v + c];
      const double t4 = aij.imag() * x.re[j * v + c];
      acc_re += t1 - t2;
      acc_im += t3 + t4;
    }
    out.re[i * v + c] = acc_re;
    out.im[i * v + c] = acc_im;
  }
}

void gemm_scalar(const Matrix& a, SoAConstView x, SoAView out) {
  const index_t m = a.rows();
  const index_t v = x.cols;
  const index_t main = v - v % kBlock;
  for (index_t i = 0; i < m; ++i) {
    for (index_t c0 = 0; c0 < main; c0 += kBlock)
      gemm_block<kBlock>(a, x, out, i, c0);
    gemm_scalar_tail(a, x, out, i, main);
  }
}

void inner_scalar(SoAConstView p, SoAConstView t, std::span<real> out) {
  const index_t r = p.rows;
  const index_t v = p.cols;
  for (index_t c = 0; c < v; ++c) out[c] = 0.0;
  for (index_t k = 0; k < r; ++k) {
    const double* pr = p.re + k * v;
    const double* pi = p.im + k * v;
    const double* tr = t.re + k * v;
    const double* ti = t.im + k * v;
    for (index_t c = 0; c < v; ++c) {
      // Re(conj(p)·t) = pr·tr + pi·ti, one rounded sum per term — the real
      // component of linalg::dot's accumulation.
      const double t1 = pr[c] * tr[c];
      const double t2 = pi[c] * ti[c];
      out[c] += t1 + t2;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

struct KernelTable {
  void (*adjoint_gemm)(const Matrix&, SoAConstView, SoAView);
  void (*gemm)(const Matrix&, SoAConstView, SoAView);
  void (*inner)(SoAConstView, SoAConstView, std::span<real>);
  Tier tier;
};

}  // namespace

#if defined(MMW_HAVE_AVX2_TU)
// Defined in kernels_avx2.cpp (compiled with -mavx2 -ffp-contract=off).
namespace detail {
void adjoint_gemm_avx2(const Matrix& a, SoAConstView x, SoAView out);
void gemm_avx2(const Matrix& a, SoAConstView x, SoAView out);
void inner_avx2(SoAConstView p, SoAConstView t, std::span<real> out);
}  // namespace detail
#endif

namespace {

KernelTable make_table(Tier tier) {
#if defined(MMW_HAVE_AVX2_TU)
  if (tier == Tier::kAvx2)
    return {detail::adjoint_gemm_avx2, detail::gemm_avx2, detail::inner_avx2,
            Tier::kAvx2};
#endif
  return {adjoint_gemm_scalar, gemm_scalar, inner_scalar, Tier::kScalar};
}

KernelTable init_table() {
  Tier want = cpu_supports_avx2() ? Tier::kAvx2 : Tier::kScalar;
  if (const char* env = std::getenv("MMW_KERNELS")) {
    if (std::strcmp(env, "scalar") == 0) {
      want = Tier::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      if (cpu_supports_avx2()) {
        want = Tier::kAvx2;
      } else {
        std::fprintf(stderr,
                     "note: MMW_KERNELS=avx2 requested but this CPU/build "
                     "has no AVX2 tier; using scalar kernels\n");
        want = Tier::kScalar;
      }
    } else if (std::strcmp(env, "auto") != 0 && env[0] != '\0') {
      std::fprintf(stderr,
                   "note: unknown MMW_KERNELS value '%s' (expected scalar, "
                   "avx2, or auto); using auto dispatch\n",
                   env);
    }
  }
  return make_table(want);
}

KernelTable& table() {
  static KernelTable t = init_table();
  return t;
}

std::atomic<std::size_t> g_workspace_high_water{0};

/// The calling thread's scoring workspace, at least `n` doubles long. It
/// grows to the largest pass the thread runs and is never shrunk.
double* workspace(std::size_t n) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < n) {
    buffer.resize(n);
    std::size_t seen = g_workspace_high_water.load(std::memory_order_relaxed);
    while (n * sizeof(double) > seen &&
           !g_workspace_high_water.compare_exchange_weak(
               seen, n * sizeof(double), std::memory_order_relaxed)) {
    }
  }
  return buffer.data();
}

}  // namespace

Tier active_tier() { return table().tier; }

std::string_view tier_name(Tier tier) {
  switch (tier) {
    case Tier::kAvx2: return "avx2";
    case Tier::kScalar: break;
  }
  return "scalar";
}

std::string_view active_tier_name() { return tier_name(active_tier()); }

bool cpu_supports_avx2() {
#if defined(MMW_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

void force_tier_for_testing(Tier tier) {
  MMW_REQUIRE_MSG(tier == Tier::kScalar || cpu_supports_avx2(),
                  "forcing a tier this CPU/build cannot run");
  table() = make_table(tier);
}

void reset_tier_for_testing() { table() = init_table(); }

std::size_t arena_high_water_bytes() {
  return g_workspace_high_water.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// SoAComplex
// ---------------------------------------------------------------------------

SoAComplex SoAComplex::pack_columns(std::span<const Vector> columns) {
  if (columns.empty()) return {};
  const index_t rows = columns.front().size();
  SoAComplex out(rows, columns.size());
  for (index_t j = 0; j < columns.size(); ++j) {
    MMW_REQUIRE_MSG(columns[j].size() == rows,
                    "packed columns must share one dimension");
    for (index_t i = 0; i < rows; ++i) out.set(i, j, columns[j][i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

void adjoint_gemm_batch(const Matrix& a, SoAConstView x, SoAView out) {
  MMW_REQUIRE_MSG(a.rows() == x.rows && a.cols() == out.rows &&
                      x.cols == out.cols,
                  "adjoint_gemm_batch shape mismatch");
  table().adjoint_gemm(a, x, out);
}

void gemm_batch(const Matrix& a, SoAConstView x, SoAView out) {
  MMW_REQUIRE_MSG(a.cols() == x.rows && a.rows() == out.rows &&
                      x.cols == out.cols,
                  "gemm_batch shape mismatch");
  table().gemm(a, x, out);
}

void hermitian_inner_batch(SoAConstView p, SoAConstView t,
                           std::span<real> out) {
  MMW_REQUIRE_MSG(p.rows == t.rows && p.cols == t.cols && out.size() == p.cols,
                  "hermitian_inner_batch shape mismatch");
  table().inner(p, t, out);
}

void factored_scores(const Matrix& basis, const Matrix& core,
                     const SoAComplex& codewords, std::span<real> out) {
  const index_t n = codewords.rows();
  const index_t v = codewords.cols();
  const index_t r = core.rows();
  MMW_REQUIRE_MSG(basis.rows() == n && basis.cols() == r && core.is_square() &&
                      out.size() == v,
                  "factored_scores shape mismatch");
  double* w = workspace(4 * r * v);
  SoAView p{w, w + r * v, r, v};
  SoAView t{w + 2 * r * v, w + 3 * r * v, r, v};
  adjoint_gemm_batch(basis, codewords.view(), p);
  const SoAConstView pc{p.re, p.im, r, v};
  gemm_batch(core, pc, t);
  hermitian_inner_batch(pc, {t.re, t.im, r, v}, out);
}

void dense_scores(const Matrix& q, const SoAComplex& codewords,
                  std::span<real> out) {
  const index_t n = codewords.rows();
  const index_t v = codewords.cols();
  MMW_REQUIRE_MSG(q.is_square() && q.rows() == n && out.size() == v,
                  "dense_scores shape mismatch");
  double* w = workspace(2 * n * v);
  SoAView t{w, w + n * v, n, v};
  gemm_batch(q, codewords.view(), t);
  hermitian_inner_batch(codewords.view(), {t.re, t.im, n, v}, out);
}

}  // namespace mmw::linalg::kernels
