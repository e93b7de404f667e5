// The covariance-ML solve allocates per solve, never per iteration, and
// the eigensolver allocates nothing once its workspace is sized. Counted
// with replacements of the global allocation functions, which is why this
// is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "antenna/codebook.h"
#include "estimation/beamspace.h"
#include "estimation/covariance_ml.h"
#include "linalg/eig.h"
#include "linalg/functions.h"
#include "randgen/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mmw::estimation {
namespace {

using linalg::Matrix;

/// Allocations and iterations of one warm solve shaped like a serving
/// alignment slot (RX 4×4 angular grid, J = 8, γ = 1000, r = 8), capped at
/// `max_iterations`.
struct Counted {
  std::uint64_t allocations = 0;
  int iterations = 0;
};

Counted warm_solve(int max_iterations) {
  const auto cb = antenna::Codebook::angular_grid(
      antenna::ArrayGeometry::upa(4, 4), 4, 4);
  const std::vector<BeamComponent> resident{{5, 2.0}, {6, 0.5}};
  const std::vector<BeamComponent> truth{{6, 2.5}, {10, 0.7}};
  const linalg::FactoredHermitian prior = expand_beam_space(resident, cb);
  const linalg::FactoredHermitian q = expand_beam_space(truth, cb);
  randgen::Rng rng(7);
  std::vector<BeamMeasurement> ms;
  for (index_t k = 0; k < 8; ++k) {
    const linalg::Vector& v = cb.codeword(2 * k);
    ms.push_back({v, rng.exponential(expected_energy(q, v, 1000.0))});
  }
  CovarianceMlOptions opts;
  opts.gamma = 1000.0;
  opts.max_iterations = max_iterations;
  opts.tolerance = 1e-4;

  const std::uint64_t before = g_allocations.load();
  const CovarianceMlResult r = estimate_covariance_ml_warm(16, ms, opts, prior);
  return {g_allocations.load() - before, r.iterations};
}

TEST(MlAllocations, SolveAllocatesPerSolveNotPerIteration) {
  warm_solve(40);  // sizes this thread's solver workspace
  const Counted short_solve = warm_solve(2);
  const Counted long_solve = warm_solve(40);
  ASSERT_EQ(short_solve.iterations, 2);
  ASSERT_GT(long_solve.iterations, 20);
  EXPECT_GT(short_solve.allocations, 0u);  // the counter is live
  EXPECT_EQ(long_solve.allocations, short_solve.allocations)
      << short_solve.iterations << " iterations: " << short_solve.allocations
      << " allocations; " << long_solve.iterations
      << " iterations: " << long_solve.allocations;
}

TEST(MlAllocations, SizedEigWorkspaceAllocatesNothing) {
  randgen::Rng rng(3);
  const Matrix g = rng.complex_gaussian_matrix(8, 8);
  const Matrix a = (g + g.adjoint()) * cx{0.5, 0.0};
  const Matrix h = rng.complex_gaussian_matrix(8, 8);
  const Matrix b = (h + h.adjoint()) * cx{0.5, 0.0};
  linalg::EigWorkspace ws;
  Matrix out;
  linalg::eigenvalue_soft_threshold(a, 0.1, ws, out);  // sizes ws and out

  const std::uint64_t before = g_allocations.load();
  ws.decompose(b);
  linalg::eigenvalue_soft_threshold(b, 0.1, ws, out);
  ws.decompose(a);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(ws.size(), 8u);
}

}  // namespace
}  // namespace mmw::estimation
