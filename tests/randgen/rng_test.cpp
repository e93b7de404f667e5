#include "randgen/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <random>
#include <set>

namespace mmw::randgen {
namespace {

// -- the lazy mt19937_64 engine, against std::mt19937_64 as the oracle -----

static_assert(std::uniform_random_bit_generator<MersenneTwister64>);
static_assert(MersenneTwister64::min() == std::mt19937_64::min());
static_assert(MersenneTwister64::max() == std::mt19937_64::max());

/// Stream lengths on both sides of every boundary of the lazy engine: the
/// end of the lazy first generation (156), the first and second full
/// generations (312, 624) and a long stream.
const std::vector<int> kLengths{0,   1,   155, 156, 157, 311,
                                312, 313, 624, 625, 5000};

/// Seeds: the edges of the 64-bit range, then SplitMix64 outputs (the
/// kind of seed Rng::stream derives), 1,030 in all.
std::vector<std::uint64_t> oracle_seeds() {
  std::vector<std::uint64_t> seeds{0,
                                   1,
                                   2,
                                   std::mt19937_64::default_seed,
                                   std::uint64_t{1} << 63,
                                   std::numeric_limits<std::uint64_t>::max()};
  std::uint64_t state = 2016;
  while (seeds.size() < 1030) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    seeds.push_back(z ^ (z >> 31));
  }
  return seeds;
}

TEST(MersenneTwister64Test, RawDrawsEqualStdMt19937_64) {
  // 625 draws cross the lazy first generation, its block tail at 156 and
  // the first full twist at 312, for every seed.
  for (const std::uint64_t seed : oracle_seeds()) {
    MersenneTwister64 lazy(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 625; ++i)
      ASSERT_EQ(lazy(), oracle()) << seed << " " << i;
  }
  for (const std::uint64_t seed : {0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    MersenneTwister64 lazy(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 5000; ++i)
      ASSERT_EQ(lazy(), oracle()) << seed << " " << i;
  }
}

TEST(MersenneTwister64Test, TenThousandthDrawIsTheStandardsConstant) {
  // [rand.predef]: the 10,000th invocation of a default-constructed
  // mt19937_64 (seed 5489) returns 9981545732273789042.
  MersenneTwister64 lazy(std::mt19937_64::default_seed);
  for (int i = 1; i < 10000; ++i) lazy();
  EXPECT_EQ(lazy(), 9981545732273789042ULL);
}

TEST(MersenneTwister64Test, CopyAfterAnyStreamLengthContinuesLikeItsSource) {
  // A copy carries the seeded prefix and the counters only; from any point
  // of the stream, source and copy must go on with the oracle's draws.
  const std::vector<std::uint64_t> seeds = oracle_seeds();
  for (std::size_t s = 0; s < seeds.size(); s += 103) {
    for (const int length : kLengths) {
      MersenneTwister64 source(seeds[s]);
      std::mt19937_64 oracle(seeds[s]);
      for (int i = 0; i < length; ++i) ASSERT_EQ(source(), oracle());
      MersenneTwister64 copy(source);
      // Assignment over an engine deep in another stream: its stale words
      // past the copied prefix must never be read.
      MersenneTwister64 assigned(~seeds[s]);
      for (int i = 0; i < 700; ++i) assigned();
      assigned = source;
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t expected = oracle();
        ASSERT_EQ(source(), expected) << length << " " << i;
        ASSERT_EQ(copy(), expected) << length << " " << i;
        ASSERT_EQ(assigned(), expected) << length << " " << i;
      }
    }
  }
}

TEST(MersenneTwister64Test, RngCopyContinuesLikeItsSource) {
  for (const int length : kLengths) {
    Rng source = Rng::stream(1001, 2, 3, 4);
    for (int i = 0; i < length; ++i) source.uniform();
    Rng copy = source;
    for (int i = 0; i < 400; ++i) ASSERT_EQ(copy.normal(), source.normal());
  }
}

TEST(MersenneTwister64Test, DistributionsEqualStdOnMt19937_64) {
  // Rng's draws are the libstdc++ distributions run on the engine, so on
  // any seed they must equal the same calls on std::mt19937_64, through
  // every boundary of the lazy engine (each round draws ~10 words).
  for (const std::uint64_t seed :
       {0ULL, 1ULL, 5489ULL, 0xFFFFFFFFFFFFFFFFULL, 0x243F6A8885A308D3ULL}) {
    Rng rng(seed);
    std::mt19937_64 g(seed);
    for (int round = 0; round < 600; ++round) {
      ASSERT_EQ(rng.normal(0.5, 2.0),
                std::normal_distribution<real>(0.0, 1.0)(g) * 2.0 + 0.5);
      ASSERT_EQ(rng.uniform(-1.0, 3.0),
                std::uniform_real_distribution<real>(-1.0, 3.0)(g));
      ASSERT_EQ(rng.uniform_int(3, 1000),
                std::uniform_int_distribution<std::uint64_t>(3, 1000)(g));
      ASSERT_EQ(rng.exponential(0.25),
                std::exponential_distribution<real>(4.0)(g));
      ASSERT_EQ(rng.poisson(1.8),
                std::poisson_distribution<std::uint64_t>(1.8)(g));
      ASSERT_EQ(rng.poisson(40.0),
                std::poisson_distribution<std::uint64_t>(40.0)(g));
    }
  }
}

// -- Rng -------------------------------------------------------------------

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkProducesIndependentButDeterministicStreams) {
  Rng parent1(77), parent2(77);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1.uniform(), child2.uniform());
  // Child differs from a fresh same-seed parent stream.
  Rng parent3(77);
  Rng child3 = parent3.fork();
  EXPECT_NE(child3.uniform(), Rng(77).uniform());
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const real x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), precondition_error);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 7u);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  const int n = 20000;
  real sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const real x = rng.normal(1.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  const real mean = sum / n;
  const real var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, NormalWithZeroStddevReturnsMeanAndKeepsStream) {
  // A zero spread is legal (stddev >= 0): it returns the mean exactly and
  // consumes the same engine draws as a unit-spread sample, so a zero
  // angular spread does not shift any later draw of the stream.
  Rng zero(8), unit(8);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(zero.normal(1.25, 0.0), 1.25);
    unit.normal(1.25, 1.0);
  }
  EXPECT_EQ(zero.uniform(), unit.uniform());
  EXPECT_EQ(zero.complex_normal(0.0), (cx{0.0, 0.0}));
}

TEST(RngTest, ComplexNormalVarianceSplit) {
  Rng rng(4);
  const int n = 20000;
  real pw = 0.0, re = 0.0, im = 0.0;
  for (int i = 0; i < n; ++i) {
    const cx z = rng.complex_normal(3.0);
    pw += std::norm(z);
    re += z.real() * z.real();
    im += z.imag() * z.imag();
  }
  EXPECT_NEAR(pw / n, 3.0, 0.15);
  EXPECT_NEAR(re / n, 1.5, 0.1);
  EXPECT_NEAR(im / n, 1.5, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(6);
  const int n = 20000;
  real sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
  EXPECT_THROW(rng.exponential(0.0), precondition_error);
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  const int n = 20000;
  real sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<real>(rng.poisson(1.8));
  EXPECT_NEAR(sum / n, 1.8, 0.1);
}

TEST(RngTest, AngleRange) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const real a = rng.angle();
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 2.0 * M_PI);
  }
}

TEST(RngTest, GaussianVectorPower) {
  Rng rng(10);
  const auto v = rng.complex_gaussian_vector(5000, 2.0);
  EXPECT_NEAR(v.squared_norm() / 5000.0, 2.0, 0.15);
}

TEST(RngTest, GaussianMatrixShape) {
  Rng rng(11);
  const auto m = rng.complex_gaussian_matrix(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
}

TEST(RngTest, RandomUnitVectorHasUnitNorm) {
  Rng rng(12);
  for (int i = 0; i < 20; ++i)
    EXPECT_NEAR(rng.random_unit_vector(8).norm(), 1.0, 1e-12);
}

TEST(RngTest, SampleWithoutReplacementProperties) {
  Rng rng(13);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<index_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : s) EXPECT_LT(i, 100u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), precondition_error);
}

TEST(RngTest, SampleCoversFullRangeOverTrials) {
  Rng rng(14);
  std::set<index_t> seen;
  for (int t = 0; t < 200; ++t) {
    for (const auto i : rng.sample_without_replacement(10, 3)) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);  // every index reachable
}

TEST(RngTest, ThreeKeyStreamIsDeterministic) {
  Rng a = Rng::stream(42, 3, 1, 7);
  Rng b = Rng::stream(42, 3, 1, 7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, ThreeKeyStreamSeparatesEveryKey) {
  // Changing any single key — or permuting them — must land on a
  // different stream: the multi-cell engine partitions its entire key
  // space through this property (serving vs cross vs beam draws).
  const Rng base = Rng::stream(42, 3, 1, 7);
  auto first = [](Rng r) { return r.uniform(); };
  EXPECT_NE(first(base), first(Rng::stream(43, 3, 1, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 4, 1, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 3, 2, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 3, 1, 8)));
  EXPECT_NE(first(base), first(Rng::stream(42, 1, 3, 7)));
  EXPECT_NE(first(base), first(Rng::stream(42, 7, 1, 3)));
}

TEST(RngTest, ThreeKeyStreamsLookIndependent) {
  // Adjacent keys in each position produce streams with no pairwise
  // collisions over a short horizon (SplitMix64 finalization per key).
  std::set<double> seen;
  int draws = 0;
  for (std::uint64_t a = 0; a < 4; ++a)
    for (std::uint64_t b = 0; b < 4; ++b)
      for (std::uint64_t c = 0; c < 4; ++c) {
        Rng r = Rng::stream(2016, a, b, c);
        for (int i = 0; i < 8; ++i) {
          seen.insert(r.uniform());
          ++draws;
        }
      }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(draws));
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(15);
  const auto p = rng.permutation(50);
  EXPECT_EQ(p.size(), 50u);
  std::set<index_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50u);
}

}  // namespace
}  // namespace mmw::randgen
