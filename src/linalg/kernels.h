// Batched structure-of-arrays scoring kernels with runtime SIMD dispatch.
//
// The per-slot hot path of every alignment strategy is "score all |V|
// codewords against one covariance estimate". Done codeword-by-codeword
// through Vector temporaries (the pre-PR-7 path) that is a chain of short
// dot products the compiler cannot batch. This layer restructures the pass
// into split-complex (separate real/imaginary planes) structure-of-arrays
// form so one kernel sweep produces every codeword's score, vectorizing
// ACROSS codewords — each score's own reduction keeps the exact sequential
// accumulation order of the scalar code, which is what makes the tiers
// bit-identical (see "Numeric equivalence" below and DESIGN.md §12).
//
// Dispatch: the implementation tier (AVX2 or portable scalar) is decided
// once, at first use, from CPUID plus the MMW_KERNELS environment override
// (`scalar` | `avx2` | `auto`), and recorded in run manifests. There is no
// per-call branching beyond one indirect call.
//
// Numeric equivalence policy (test-enforced, tests/linalg/kernels_test.cpp):
//  - scalar tier ≡ AVX2 tier, BIT-EXACT. Both tiers perform, per output
//    element, the same IEEE-754 double operations in the same order; SIMD
//    lanes hold DIFFERENT output elements (codewords), never partial sums
//    of one reduction, and FMA contraction is disabled in both translation
//    units (-ffp-contract=off).
//  - batched kernels ≡ the historical per-codeword formulas
//    (FactoredHermitian::rayleigh / hermitian_form), BIT-EXACT: complex
//    multiplies decompose into the same four products and two rounded
//    sums as std::complex arithmetic, and reductions run in the same
//    element order. Golden figure CSVs therefore do not move.
//
// Thread-safety: all kernel entry points are safe to call concurrently —
// they touch only their arguments and the calling thread's workspace.
// force_tier_for_testing() is the one exception (see its comment).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "linalg/common.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mmw::linalg::kernels {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Implementation tiers, ordered from most portable to most specialized.
enum class Tier {
  kScalar,  ///< portable C++; the reference semantics
  kAvx2,    ///< 4-wide double AVX2 (x86-64), bit-identical to kScalar
};

/// The tier every kernel call routes through. Decided once at first use:
/// the MMW_KERNELS environment variable (`scalar` | `avx2` | `auto`) wins;
/// otherwise the best tier the CPU supports. Requesting `avx2` on a CPU
/// without it falls back to scalar with a note on stderr.
Tier active_tier();

/// Stable lower-case name ("scalar", "avx2") — recorded in run manifests.
std::string_view tier_name(Tier tier);
std::string_view active_tier_name();

/// True when the CPU (and this build) can run the AVX2 tier.
bool cpu_supports_avx2();

/// TEST/BENCH ONLY: rebinds the dispatch table to `tier`. Not thread-safe
/// against concurrent kernel calls — callers must quiesce all scoring
/// threads first. Production code must never call this; the equivalence
/// suite and the A/B micro-benchmarks are the intended users.
/// Precondition: tier is supported (kAvx2 requires cpu_supports_avx2()).
void force_tier_for_testing(Tier tier);

/// TEST/BENCH ONLY: undoes force_tier_for_testing by re-running the normal
/// dispatch decision (MMW_KERNELS, then CPUID). Same thread-safety caveat.
void reset_tier_for_testing();

// ---------------------------------------------------------------------------
// Scoring workspace
// ---------------------------------------------------------------------------

/// Largest per-thread scoring workspace observed process-wide, in bytes —
/// recorded in run manifests as `kernels.arena_high_water_bytes`. Each
/// thread's workspace grows to its largest scoring pass and is never
/// shrunk, so steady-state scoring performs zero heap allocations.
std::size_t arena_high_water_bytes();

// ---------------------------------------------------------------------------
// Split-complex structure-of-arrays storage
// ---------------------------------------------------------------------------

/// Non-owning mutable view of a rows × cols split-complex matrix: two
/// row-major double planes (re, im), each rows·cols long, row i starting at
/// offset i·cols. The batch dimension is ALWAYS the column index — kernels
/// vectorize along it. `re`/`im` must not alias each other or any other
/// kernel argument.
struct SoAView {
  double* re = nullptr;
  double* im = nullptr;
  index_t rows = 0;
  index_t cols = 0;
};

/// Const counterpart of SoAView; same layout and aliasing rules.
struct SoAConstView {
  const double* re = nullptr;
  const double* im = nullptr;
  index_t rows = 0;
  index_t cols = 0;
};

/// Owning split-complex matrix, used for long-lived packed operands (the
/// codebook's codeword panel). Column j of a packed panel is codeword j;
/// row i holds element i of every codeword contiguously — the stream a
/// batched kernel reads.
///
/// Thread-safety: immutable after construction; share freely across
/// threads.
class SoAComplex {
 public:
  SoAComplex() = default;
  SoAComplex(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), re_(rows * cols, 0.0),
        im_(rows * cols, 0.0) {}

  /// Packs `columns` (all of equal dimension) as the columns of the panel.
  /// Precondition: all vectors share one size (rows() = that size).
  static SoAComplex pack_columns(std::span<const Vector> columns);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  bool empty() const { return re_.empty(); }

  cx at(index_t i, index_t j) const {
    return {re_[i * cols_ + j], im_[i * cols_ + j]};
  }
  void set(index_t i, index_t j, cx v) {
    re_[i * cols_ + j] = v.real();
    im_[i * cols_ + j] = v.imag();
  }

  SoAConstView view() const { return {re_.data(), im_.data(), rows_, cols_}; }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double> re_, im_;
};

// ---------------------------------------------------------------------------
// Batched primitives (runtime-dispatched)
// ---------------------------------------------------------------------------
//
// Shape preconditions are checked with MMW_REQUIRE. Output views must not
// alias any input view.

/// out = Aᴴ · X.  A is an n × r Matrix (interleaved complex, broadcast per
/// scalar), X an n × V panel, out an r × V panel. Per output element the
/// reduction over i runs in ascending order — bit-identical to
/// FactoredHermitian::project on each column.
void adjoint_gemm_batch(const Matrix& a, SoAConstView x, SoAView out);

/// out = A · X.  A is an m × n Matrix, X an n × V panel, out an m × V
/// panel. Reduction over j ascending — bit-identical to Matrix·Vector on
/// each column.
void gemm_batch(const Matrix& a, SoAConstView x, SoAView out);

/// out[v] = Re Σ_k conj(P[k][v]) · T[k][v] — the batched form of
/// Re(dot(p, t)) per column, k ascending. P and T are r × V panels,
/// out.size() == V.
void hermitian_inner_batch(SoAConstView p, SoAConstView t,
                           std::span<real> out);

// ---------------------------------------------------------------------------
// Composed scoring passes (workspace-backed)
// ---------------------------------------------------------------------------

/// out[v] = c_vᴴ (B Q_r Bᴴ) c_v for every column c_v of `codewords`:
/// P = Bᴴ C, T = Q_r P, then the Hermitian inner product — the factored
/// Rayleigh scoring pass in O(|V|·N·r + |V|·r²) with all workspace in the
/// calling thread's scoring workspace. Bit-identical to per-codeword
/// FactoredHermitian::rayleigh. Preconditions: basis is N×r with
/// codewords.rows() == N, core is r×r, out.size() == codewords.cols().
void factored_scores(const Matrix& basis, const Matrix& core,
                     const SoAComplex& codewords, std::span<real> out);

/// out[v] = c_vᴴ Q c_v (dense pass, O(|V|·N²)): T = Q C then the Hermitian
/// inner product. Bit-identical to per-codeword hermitian_form.
/// Preconditions: q is N×N with codewords.rows() == N, out sized to cols.
void dense_scores(const Matrix& q, const SoAComplex& codewords,
                  std::span<real> out);

}  // namespace mmw::linalg::kernels
