// Seeded random number generation for reproducible Monte-Carlo simulation.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mmw::randgen {

/// Deterministic random source. Every stochastic component in the library
/// takes an Rng& explicitly — there is no hidden global state — so any
/// simulation is reproducible from its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives an independent child stream by drawing from this engine; the
  /// child is reproducible but the *parent* advances, so fork() chains are
  /// inherently sequential. For parallel work use stream() instead.
  Rng fork();

  /// Derives stream `stream_index` of `master_seed` without any shared
  /// state: the seed is a SplitMix64 finalization of
  /// master_seed + (stream_index+1)·golden-gamma, so any (seed, index)
  /// pair maps to the same engine no matter which thread asks, in what
  /// order, or how many streams exist. This is what gives the Monte-Carlo
  /// drivers bit-exact results independent of thread count (DESIGN.md §7).
  static Rng stream(std::uint64_t master_seed, std::uint64_t stream_index);

  /// Three-key variant for the multi-cell engine: an independent stream per
  /// (key_a, key_b, key_c) — typically (cell, user, trial) — derived by
  /// chaining one SplitMix64 finalization per key. Like the single-key
  /// overload it needs no shared state, so any shard can rebuild any other
  /// shard's stream; the chaining makes the map injective in practice
  /// (each step is a bijection of the running state, keys enter one at a
  /// time), and distinct from every single-key stream of the same seed.
  static Rng stream(std::uint64_t master_seed, std::uint64_t key_a,
                    std::uint64_t key_b, std::uint64_t key_c);

  /// Uniform real in [lo, hi).
  real uniform(real lo = 0.0, real hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// N(mean, stddev²) real Gaussian.
  real normal(real mean = 0.0, real stddev = 1.0);

  /// Circularly-symmetric complex Gaussian CN(0, variance):
  /// real and imaginary parts are each N(0, variance/2), so E|x|² = variance.
  cx complex_normal(real variance = 1.0);

  /// Exponential with the given mean.
  real exponential(real mean);

  /// Poisson with the given mean.
  std::uint64_t poisson(real mean);

  /// Lognormal: exp(N(mu, sigma²)).
  real lognormal(real mu, real sigma);

  /// Uniform angle in [0, 2π).
  real angle();

  /// Vector of iid CN(0, variance) entries.
  linalg::Vector complex_gaussian_vector(index_t n, real variance = 1.0);

  /// Matrix of iid CN(0, variance) entries.
  linalg::Matrix complex_gaussian_matrix(index_t rows, index_t cols,
                                         real variance = 1.0);

  /// Random unit-norm complex vector (Haar-uniform on the sphere).
  linalg::Vector random_unit_vector(index_t n);

  /// Uniformly random k-subset of {0, …, n−1}, in random order.
  /// Precondition: k ≤ n.
  std::vector<index_t> sample_without_replacement(index_t n, index_t k);

  /// Random permutation of {0, …, n−1}.
  std::vector<index_t> permutation(index_t n);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mmw::randgen
