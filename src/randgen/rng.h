// Seeded random number generation for reproducible Monte-Carlo simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mmw::randgen {

/// std::mt19937_64 ([rand.eng.mers]: w=64, n=312, m=156, r=31, its
/// single-value seeding and its tempering), seeded and twisted lazily.
///
/// It returns the standard engine's sequence for every seed, but a fresh
/// engine only does the work its draws need. Draw k of the first
/// generation twists state words k, k+1 and k+156, so for k < 156 it needs
/// the seed words up to k+156 and a twist of word k alone: a stream that
/// makes k draws costs 156+k seeding steps and k twists, where the
/// standard engine runs 312 of each before its first value. By draw 156
/// every seed word exists; the engine then twists the rest of the
/// generation, and every later generation, in one block, as the standard
/// engine does. The standard engine also twists its words in place in
/// ascending order, so after every draw the state here is its state.
///
/// Words past the seeded prefix are never read: a copy copies that prefix
/// and the counters only.
class MersenneTwister64 {
 public:
  using result_type = std::uint64_t;

  explicit MersenneTwister64(result_type seed);
  MersenneTwister64(const MersenneTwister64& other) { *this = other; }
  MersenneTwister64& operator=(const MersenneTwister64& other);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ == ready_) {
      if (p_ < kM)
        twist_next();
      else
        twist_block();
    }
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;  ///< state words
  static constexpr std::size_t kM = 156;  ///< twist offset (also n − m)

  /// Seed word i from word i−1 (the standard's initialization sequence).
  static result_type seed_word(result_type prev, std::size_t i) {
    return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  /// New value of a word from its old value, its successor's and the word
  /// m positions on: the upper 33 bits of the first with the lower 31 of
  /// the second, shifted and conditionally xored with the twist matrix.
  static result_type twist(result_type word, result_type next,
                           result_type far) {
    const result_type y =
        (word & 0xFFFFFFFF80000000ULL) | (next & 0x7FFFFFFFULL);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
  }

  /// First generation, draw p_ < m: seeds word p_+m, twists word p_.
  void twist_next() {
    x_[p_ + kM] = seed_word(x_[p_ + kM - 1], p_ + kM);
    x_[p_] = twist(x_[p_], x_[p_ + 1], x_[p_ + kM]);
    ready_ = p_ + 1;
  }
  /// Twists the rest of the first generation from draw m on, or the whole
  /// of every later one; out of line.
  void twist_block();

  std::size_t p_ = 0;      ///< next word to return
  std::size_t ready_ = 0;  ///< words [0, ready_) of this generation twisted
  result_type x_[kN];      ///< seeded: [0, min(n, ready_ + m))
};

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

  MersenneTwister64& engine() { return engine_; }

 private:
  MersenneTwister64 engine_;
};

}  // namespace mmw::randgen
