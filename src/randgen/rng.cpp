#include "randgen/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

namespace mmw::randgen {

MersenneTwister64::MersenneTwister64(result_type seed) {
  // Words [0, m): draw k seeds word k+m just before it needs it.
  x_[0] = seed;
  for (std::size_t i = 1; i < kM; ++i) x_[i] = seed_word(x_[i - 1], i);
}

MersenneTwister64& MersenneTwister64::operator=(
    const MersenneTwister64& other) {
  if (this != &other) {
    p_ = other.p_;
    ready_ = other.ready_;
    std::copy_n(other.x_, std::min(kN, ready_ + kM), x_);
  }
  return *this;
}

void MersenneTwister64::twist_block() {
  // p_ is m in the first generation (draws [0, m) have seeded every word
  // and twisted words [0, m)) and n at the end of any generation.
  std::size_t k = p_ == kN ? 0 : p_;
  p_ = k;
  for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
  x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  ready_ = kN;
}

Rng Rng::fork() {
  // A fresh 64-bit draw seeds an independent child engine; mt19937_64
  // streams seeded from distinct values are statistically independent for
  // simulation purposes.
  return Rng(engine_());
}

namespace {

/// SplitMix64 step (Steele, Lea & Flood 2014): advance the state by the
/// golden gamma scaled by (key+1), then run the mixing finalizer. The
/// finalizer is a bijection with strong avalanche, so nearby (state, key)
/// pairs yield unrelated outputs. Key is offset by 1 so key 0 is not a
/// plain finalization of the state itself.
std::uint64_t splitmix_step(std::uint64_t state, std::uint64_t key) {
  std::uint64_t z = state + (key + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

}  // namespace

Rng Rng::stream(std::uint64_t master_seed, std::uint64_t stream_index) {
  return Rng(splitmix_step(master_seed, stream_index));
}

Rng Rng::stream(std::uint64_t master_seed, std::uint64_t key_a,
                std::uint64_t key_b, std::uint64_t key_c) {
  // One chained step per key: each key perturbs the running state through
  // the full avalanche before the next enters, so (a, b, c) and any
  // permutation or prefix of it land on unrelated engines. The extra mixing
  // rounds also keep three-key streams disjoint from single-key ones.
  return Rng(splitmix_step(
      splitmix_step(splitmix_step(master_seed, key_a), key_b), key_c));
}

real Rng::uniform(real lo, real hi) {
  MMW_REQUIRE(lo <= hi);
  return std::uniform_real_distribution<real>(lo, hi)(engine_);
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  MMW_REQUIRE(lo <= hi);
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

real Rng::normal(real mean, real stddev) {
  MMW_REQUIRE(stddev >= 0.0);
  // std::normal_distribution requires stddev > 0, so draw N(0, 1) and scale:
  // the same expression libstdc++ evaluates, so values and draws match.
  return std::normal_distribution<real>(0.0, 1.0)(engine_) * stddev + mean;
}

cx Rng::complex_normal(real variance) {
  MMW_REQUIRE(variance >= 0.0);
  const real s = std::sqrt(variance / 2.0);
  return cx{normal(0.0, s), normal(0.0, s)};
}

real Rng::exponential(real mean) {
  MMW_REQUIRE(mean > 0.0);
  return std::exponential_distribution<real>(1.0 / mean)(engine_);
}

std::uint64_t Rng::poisson(real mean) {
  MMW_REQUIRE(mean > 0.0);
  return std::poisson_distribution<std::uint64_t>(mean)(engine_);
}

real Rng::angle() { return uniform(0.0, 2.0 * M_PI); }

linalg::Vector Rng::complex_gaussian_vector(index_t n, real variance) {
  linalg::Vector v(n);
  for (index_t i = 0; i < n; ++i) v[i] = complex_normal(variance);
  return v;
}

linalg::Matrix Rng::complex_gaussian_matrix(index_t rows, index_t cols,
                                            real variance) {
  linalg::Matrix m(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) m(i, j) = complex_normal(variance);
  return m;
}

linalg::Vector Rng::random_unit_vector(index_t n) {
  MMW_REQUIRE(n > 0);
  linalg::Vector v = complex_gaussian_vector(n);
  while (v.norm() == 0.0) v = complex_gaussian_vector(n);
  return v.normalized();
}

std::vector<index_t> Rng::sample_without_replacement(index_t n, index_t k) {
  MMW_REQUIRE(k <= n);
  // Partial Fisher-Yates: only the first k positions are needed.
  std::vector<index_t> pool(n);
  std::iota(pool.begin(), pool.end(), index_t{0});
  for (index_t i = 0; i < k; ++i) {
    const index_t j = static_cast<index_t>(uniform_int(i, n - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::vector<index_t> Rng::permutation(index_t n) {
  return sample_without_replacement(n, n);
}

}  // namespace mmw::randgen
