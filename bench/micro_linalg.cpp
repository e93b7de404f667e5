// P1: micro-benchmarks of the numerical substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "antenna/codebook.h"
#include "antenna/steering.h"
#include "estimation/beamspace.h"
#include "estimation/covariance_ml.h"
#include "linalg/decompositions.h"
#include "linalg/eig.h"
#include "linalg/functions.h"
#include "obs/obs.h"
#include "randgen/rng.h"

namespace {

using namespace mmw;
using linalg::Matrix;
using linalg::Vector;

Matrix random_hermitian(randgen::Rng& rng, index_t n) {
  const Matrix g = rng.complex_gaussian_matrix(n, n);
  return (g + g.adjoint()) * cx{0.5, 0.0};
}

void BM_MatrixMultiply(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  randgen::Rng rng(1);
  const Matrix a = rng.complex_gaussian_matrix(n, n);
  const Matrix b = rng.complex_gaussian_matrix(n, n);
  for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_MatrixMultiply)->Arg(16)->Arg(64);

void BM_HermitianEig(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  randgen::Rng rng(2);
  const Matrix a = random_hermitian(rng, n);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::hermitian_eig(a));
}
BENCHMARK(BM_HermitianEig)->Arg(8)->Arg(16)->Arg(64);

// Shapes as the callers pass them: 64×16 is the rx 8×8 × tx 4×4 channel of
// E3/E5 (phy/capacity, phy/hybrid); 64×64 a covariance in numerical_rank.
void BM_Svd(benchmark::State& state) {
  const index_t m = static_cast<index_t>(state.range(0));
  const index_t n = static_cast<index_t>(state.range(1));
  randgen::Rng rng(3);
  const Matrix a = rng.complex_gaussian_matrix(m, n);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::svd(a));
}
BENCHMARK(BM_Svd)
    ->Args({8, 8})
    ->Args({16, 16})
    ->Args({64, 16})
    ->Args({16, 64})
    ->Args({64, 64});

void BM_Cholesky(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  randgen::Rng rng(4);
  const Matrix g = rng.complex_gaussian_matrix(n, n);
  const Matrix a = g * g.adjoint() + Matrix::identity(n) * cx{0.1, 0.0};
  for (auto _ : state) benchmark::DoNotOptimize(linalg::cholesky(a));
}
BENCHMARK(BM_Cholesky)->Arg(16)->Arg(64);

void BM_SteeringVector(benchmark::State& state) {
  const auto upa = antenna::ArrayGeometry::upa(8, 8);
  for (auto _ : state)
    benchmark::DoNotOptimize(antenna::steering_vector(upa, {0.3, 0.1}));
}
BENCHMARK(BM_SteeringVector);

void BM_CovarianceScores(benchmark::State& state) {
  randgen::Rng rng(5);
  const auto upa = antenna::ArrayGeometry::upa(8, 8);
  const auto cb = antenna::Codebook::dft(upa);
  const Matrix q = random_hermitian(rng, 64);
  for (auto _ : state) benchmark::DoNotOptimize(cb.covariance_scores(q));
}
BENCHMARK(BM_CovarianceScores);

void BM_CovarianceMlEstimate(benchmark::State& state) {
  // The estimator as the alignment loop calls it: N = 64, J measurements
  // (subspace-reduced to an r ≤ J problem internally).
  const index_t j = static_cast<index_t>(state.range(0));
  randgen::Rng rng(6);
  const Vector x = rng.random_unit_vector(64);
  const Matrix q = Matrix::outer(x, x) * cx{256.0, 0.0};
  const Matrix root = linalg::hermitian_sqrt(q);
  std::vector<estimation::BeamMeasurement> ms;
  for (index_t k = 0; k < j; ++k) {
    estimation::BeamMeasurement m;
    m.beam = rng.random_unit_vector(64);
    const Vector h = root * rng.complex_gaussian_vector(64);
    m.energy = std::norm(linalg::dot(m.beam, h) + rng.complex_normal(0.01));
    ms.push_back(std::move(m));
  }
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(estimation::estimate_covariance_ml(64, ms, opts));
}
BENCHMARK(BM_CovarianceMlEstimate)->Arg(5)->Arg(10)->Arg(20);

void BM_MlSolveWarm(benchmark::State& state) {
  // The warm solve of serve_realign_ml's alignment slots: RX 4×4
  // angular-grid codebook (N = 16), J = 8 probes of 4 fades each, γ = 1000,
  // fold_warm_ml's options, warm-started from a resident beam-space
  // estimate. The beam span reduces it to r = 8.
  const auto cb = antenna::Codebook::angular_grid(
      antenna::ArrayGeometry::upa(4, 4), 4, 4);
  const std::vector<estimation::BeamComponent> resident{{5, 2.0}, {6, 0.5}};
  const std::vector<estimation::BeamComponent> truth{{6, 2.5}, {10, 0.7}};
  const linalg::FactoredHermitian prior =
      estimation::expand_beam_space(resident, cb);
  const linalg::FactoredHermitian q = estimation::expand_beam_space(truth, cb);
  randgen::Rng rng(7);
  std::vector<estimation::BeamMeasurement> ms;
  for (index_t k = 0; k < 8; ++k) {
    const Vector& v = cb.codeword(2 * k);
    const real lambda = estimation::expected_energy(q, v, 1000.0);
    real energy = 0.0;
    for (int f = 0; f < 4; ++f) energy += rng.exponential(lambda);
    ms.push_back({v, energy / 4.0});
  }
  estimation::CovarianceMlOptions opts;
  opts.gamma = 1000.0;
  opts.max_iterations = 40;
  opts.tolerance = 1e-4;
  int iterations = 0;
  for (auto _ : state) {
    const estimation::CovarianceMlResult r =
        estimation::estimate_covariance_ml_warm(16, ms, opts, prior);
    iterations = r.iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["solve_iterations"] = iterations;
}
BENCHMARK(BM_MlSolveWarm);

// ---- Factored vs dense covariance plumbing ---------------------------------
//
// The alignment loop's per-slot hot path is: estimate Q̂ from the slot's J
// energies, then score every RX codeword against Q̂ (probe selection for the
// next slot plus the step-3 beam ranking). The dense variants below lift the
// factored estimate to N×N and score with the O(|V|·N²) dense kernels — the
// pre-factored behaviour; the factored variants keep {B, Q_r} and score via
// Bᴴv projections in O(|V|·(N·r + r²)).

antenna::ArrayGeometry geometry_for(index_t n) {
  switch (n) {
    case 16: return antenna::ArrayGeometry::upa(4, 4);
    case 64: return antenna::ArrayGeometry::upa(8, 8);
    default: return antenna::ArrayGeometry::upa(16, 8);  // 128
  }
}

std::vector<estimation::BeamMeasurement> slot_energies(
    randgen::Rng& rng, const antenna::Codebook& cb, index_t n, index_t j) {
  const Vector x = rng.random_unit_vector(n);
  const Matrix q = Matrix::outer(x, x) * cx{static_cast<real>(4 * n), 0.0};
  const Matrix root = linalg::hermitian_sqrt(q);
  std::vector<estimation::BeamMeasurement> ms;
  for (index_t k = 0; k < j; ++k) {
    estimation::BeamMeasurement m;
    m.beam = cb.codeword((k * 7) % cb.size());
    const Vector h = root * rng.complex_gaussian_vector(n);
    m.energy = std::norm(linalg::dot(m.beam, h) + rng.complex_normal(0.01));
    ms.push_back(std::move(m));
  }
  return ms;
}

void BM_FactoredScores(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(7);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimation::estimate_covariance_ml(n, ms, opts);
  for (auto _ : state) benchmark::DoNotOptimize(cb.covariance_scores(res.q));
}
BENCHMARK(BM_FactoredScores)
    ->ArgsProduct({{16, 64, 128}, {4, 8, 16}});

void BM_DenseScores(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(7);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const Matrix q = estimation::estimate_covariance_ml(n, ms, opts).q.dense();
  for (auto _ : state) benchmark::DoNotOptimize(cb.covariance_scores(q));
}
BENCHMARK(BM_DenseScores)
    ->ArgsProduct({{16, 64, 128}, {4, 8, 16}});

// Per-slot score+rank cycle: the calls core::ProposedAlignment makes every
// slot. It scores every RX codeword under the previous slot's estimate and
// ranks the J − 1 probes, then scores under this slot's estimate and ranks
// the J-th pick among the beams not yet probed, all into buffers hoisted out
// of the slot loop. Here one estimate stands in for both. Both arms consume
// the SAME factored estimator output (the reduced-space proximal solve is
// bit-identical shared machinery in either arm; it is measured separately by
// BM_SlotCycleWithSolver* and BM_CovarianceMlEstimate).

/// The strategy's per-run buffers: one score per codeword, the probed set
/// the admit test reads, and the slot's picks.
struct SlotBuffers {
  explicit SlotBuffers(index_t size) : scores(size), probed(size) {
    picks.reserve(size);
  }
  std::vector<real> scores;
  std::vector<std::uint8_t> probed;
  std::vector<index_t> picks;
};

template <typename Q>
void score_and_rank_slot(const antenna::Codebook& cb, const Q& q, index_t j,
                         SlotBuffers& b) {
  const auto unprobed = [&](index_t v) { return b.probed[v] == 0; };
  b.picks.clear();
  cb.covariance_scores_into(q, b.scores);
  antenna::rank_beams(b.scores, antenna::kNoFloor, j - 1, unprobed, b.picks);
  for (const index_t v : b.picks) b.probed[v] = 1;
  cb.covariance_scores_into(q, b.scores);
  antenna::rank_beams(b.scores, antenna::kNoFloor, 1, unprobed, b.picks);
  for (const index_t v : b.picks) b.probed[v] = 0;
  benchmark::DoNotOptimize(b.picks.data());
}

// Dense baseline: the pre-factored behaviour — eagerly lift Q̂ to N×N
// (`lift_from_beam_span`, O(r²N²)), then both per-slot scoring passes
// through the dense O(|V|·N²) Hermitian-form kernel.
void BM_SlotCycleDense(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(8);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimation::estimate_covariance_ml(n, ms, opts);
  const bool full = res.q.is_full();  // r = N (e.g. 16/16): nothing to lift
  SlotBuffers buffers(cb.size());
  for (auto _ : state) {
    // Rebuild the factor pair so each iteration pays the lift, exactly as
    // the old code did once per slot (the cache would otherwise hide it).
    const linalg::FactoredHermitian f =
        full ? res.q
             : linalg::FactoredHermitian(res.q.basis(), res.q.core());
    score_and_rank_slot(cb, f.dense(), j, buffers);
  }
}
BENCHMARK(BM_SlotCycleDense)
    ->ArgsProduct({{16, 64, 128}, {4, 8, 16}});

// Factored path: no N×N matrix is ever formed; both passes score via Bᴴv
// projections in O(|V|·(N·r + r²)).
void BM_SlotCycleFactored(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(8);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimation::estimate_covariance_ml(n, ms, opts);
  const bool full = res.q.is_full();
  SlotBuffers buffers(cb.size());
  for (auto _ : state) {
    const linalg::FactoredHermitian f =
        full ? res.q
             : linalg::FactoredHermitian(res.q.basis(), res.q.core());
    score_and_rank_slot(cb, f, j, buffers);
  }
}
BENCHMARK(BM_SlotCycleFactored)
    ->ArgsProduct({{16, 64, 128}, {4, 8, 16}});

// End-to-end slot including the shared reduced-space ML solve. The solve is
// identical work in both arms, so the ratio here brackets the deployable
// per-slot win from below (solver-bound at small N, scoring-bound at large N).
void BM_SlotCycleWithSolverDense(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(8);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  SlotBuffers buffers(cb.size());
  for (auto _ : state) {
    const Matrix q = estimation::estimate_covariance_ml(n, ms, opts).q.dense();
    score_and_rank_slot(cb, q, j, buffers);
  }
}
BENCHMARK(BM_SlotCycleWithSolverDense)->Args({64, 8})->Args({128, 8});

void BM_SlotCycleWithSolverFactored(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(8);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  SlotBuffers buffers(cb.size());
  for (auto _ : state) {
    const auto res = estimation::estimate_covariance_ml(n, ms, opts);
    score_and_rank_slot(cb, res.q, j, buffers);
  }
}
BENCHMARK(BM_SlotCycleWithSolverFactored)->Args({64, 8})->Args({128, 8});

// ---- Random streams (DESIGN.md §7) ------------------------------------------
//
// Open a keyed stream and make k uniform draws: the serving engine opens one
// per (site, user, epoch) and the tracking step draws ~21 values from it.
// BM_RngStream opens it with Rng::stream, on the lazy mt19937_64 engine;
// BM_RngStreamStd runs the same loop on a std::mt19937_64. Both draw through
// the distribution call Rng::uniform makes, inlined into the loop, so the
// A/B shares one build and times the engines. The std side's seed is one
// SplitMix64 finalization of the key where Rng::stream chains three, a few
// nanoseconds apart. Not gated.

template <typename Engine>
void draw_uniforms(Engine& engine, std::int64_t draws) {
  real sum = 0.0;
  for (std::int64_t i = 0; i < draws; ++i)
    sum += std::uniform_real_distribution<real>(0.0, 1.0)(engine);
  benchmark::DoNotOptimize(sum);
}

void BM_RngStream(benchmark::State& state) {
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    randgen::Rng rng = randgen::Rng::stream(1001, 2, 3, ++epoch);
    draw_uniforms(rng.engine(), state.range(0));
  }
}
BENCHMARK(BM_RngStream)->Arg(1)->Arg(21)->Arg(156)->Arg(312)->Arg(4096);

void BM_RngStreamStd(benchmark::State& state) {
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    std::uint64_t z = 1001 + (++epoch) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    std::mt19937_64 engine(z ^ (z >> 31));
    draw_uniforms(engine, state.range(0));
  }
}
BENCHMARK(BM_RngStreamStd)->Arg(1)->Arg(21)->Arg(156)->Arg(312)->Arg(4096);

// ---- Batched scoring kernel tiers (DESIGN.md §12) --------------------------
//
// A/B of the runtime-dispatched SoA kernels: identical inputs, tier forced
// per benchmark. Both arms produce bit-identical scores (the kernel layer's
// equivalence contract); the ratio is pure SIMD throughput. Scoring goes
// through covariance_scores_into with a reused buffer, so no allocation is
// timed — only kernel work on the thread's reused scoring workspace.

void BM_BatchedScoresScalar(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(8);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimation::estimate_covariance_ml(n, ms, opts);
  std::vector<real> scores(cb.size());
  linalg::kernels::force_tier_for_testing(linalg::kernels::Tier::kScalar);
  for (auto _ : state) {
    cb.covariance_scores_into(res.q, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  linalg::kernels::reset_tier_for_testing();
}
BENCHMARK(BM_BatchedScoresScalar)->ArgsProduct({{16, 64, 128}, {8}});

void BM_BatchedScoresAvx2(benchmark::State& state) {
  if (!linalg::kernels::cpu_supports_avx2()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const index_t n = static_cast<index_t>(state.range(0));
  const index_t j = static_cast<index_t>(state.range(1));
  randgen::Rng rng(8);
  const auto cb = antenna::Codebook::dft(geometry_for(n));
  const auto ms = slot_energies(rng, cb, n, j);
  estimation::CovarianceMlOptions opts;
  opts.gamma = 100.0;
  const auto res = estimation::estimate_covariance_ml(n, ms, opts);
  std::vector<real> scores(cb.size());
  linalg::kernels::force_tier_for_testing(linalg::kernels::Tier::kAvx2);
  for (auto _ : state) {
    cb.covariance_scores_into(res.q, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  linalg::kernels::reset_tier_for_testing();
}
BENCHMARK(BM_BatchedScoresAvx2)->ArgsProduct({{16, 64, 128}, {8}});

void BM_AddScaledOuter(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  randgen::Rng rng(9);
  const Vector a = rng.complex_gaussian_vector(n);
  Matrix m(n, n);
  for (auto _ : state) {
    m.add_scaled_outer(cx{1e-3, 0.0}, a, a);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_AddScaledOuter)->Arg(16)->Arg(64)->Arg(128);

void BM_OuterTemporaryAdd(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  randgen::Rng rng(9);
  const Vector a = rng.complex_gaussian_vector(n);
  Matrix m(n, n);
  for (auto _ : state) {
    m += cx{1e-3, 0.0} * Matrix::outer(a, a);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_OuterTemporaryAdd)->Arg(16)->Arg(64)->Arg(128);

}  // namespace

// Expanded BENCHMARK_MAIN() so MMW_OBS / MMW_FLIGHT take effect: the
// obs-overhead CI gate A/B-compares this binary with the flight recorder
// armed (default) vs MMW_FLIGHT=off, so the env must be applied before any
// TraceScope runs.
int main(int argc, char** argv) {
  mmw::obs::init_from_env(false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
