// Property sweeps over obs::QuantileDigest — the fixed-memory loss and
// latency quantiles of the serving and tracking telemetry — across seeded
// hostile sample streams (NaN, ±∞, denormals, −0.0, ties and ±DBL_MAX),
// fed to one digest and split over shard digests folded with merge():
//
//   count          every finite sample is counted, every non-finite one
//                  dropped;
//   exact range    min_value() and max_value() are the finite extremes,
//                  bit for bit;
//   finite         every quantile is a finite number, also when the
//                  samples sit at ±DBL_MAX, where sums of them overflow;
//   bounded        every quantile lies in [min_value(), max_value()];
//   monotone       quantile(q) never decreases as q grows by more than the
//                  rounding of a centroid mean: Σ(mean·weight)/weight over
//                  a cluster of tied samples can round one ulp past them
//                  (0.2 + 2^-54 tied k times clusters to a mean of 0.2),
//                  so a cluster can sit one ulp out of order. Keeping those
//                  bits is the digest's contract for every input whose sums
//                  are finite; the tied stream below shows the ulp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/digest.h"
#include "randgen/rng.h"

namespace mmw::obs {
namespace {

constexpr real kInf = std::numeric_limits<real>::infinity();
constexpr real kNaN = std::numeric_limits<real>::quiet_NaN();
constexpr real kDenormal = std::numeric_limits<real>::denorm_min();

/// How a case's samples are drawn.
enum class Stream {
  kSaturated,    ///< every sample DBL_MAX
  kAlternating,  ///< +DBL_MAX, −DBL_MAX, +DBL_MAX, ...
  kHostile,      ///< NaN, ±∞, denormals, ±0.0, ±DBL_MAX and ordinary values
  kTied,         ///< a few tied levels around zero, −0.0 and denormals
};

struct DigestCase {
  std::uint64_t seed;
  Stream stream;
  index_t n;            ///< samples drawn, non-finite ones included
  index_t compression;  ///< digest compression (8 is the floor)
  index_t shards;       ///< digests the stream is dealt to, then merged
};

void PrintTo(const DigestCase& c, std::ostream* os) {
  const char* names[] = {"saturated", "alternating", "hostile", "tied"};
  *os << names[static_cast<int>(c.stream)] << "_seed" << c.seed << "_n"
      << c.n << "_k" << c.compression << "_shards" << c.shards;
}

std::vector<DigestCase> make_cases() {
  std::vector<DigestCase> cases;
  const Stream streams[] = {Stream::kSaturated, Stream::kAlternating,
                            Stream::kHostile, Stream::kTied};
  const index_t sizes[] = {1, 7, 1000, 5000};
  for (const Stream s : streams)
    for (const index_t n : sizes)
      for (const index_t k : {index_t{8}, index_t{256}})
        cases.push_back({n * 7919 + k, s, n, k, 1 + (n + k) % 5});
  return cases;
}

std::vector<real> draw(const DigestCase& c) {
  randgen::Rng rng(c.seed);
  std::vector<real> out(c.n);
  for (index_t i = 0; i < c.n; ++i) {
    switch (c.stream) {
      case Stream::kSaturated: out[i] = DBL_MAX; break;
      case Stream::kAlternating:
        out[i] = i % 2 == 0 ? DBL_MAX : -DBL_MAX;
        break;
      case Stream::kHostile: {
        const real sign = rng.uniform_int(0, 1) == 0 ? 1.0 : -1.0;
        switch (rng.uniform_int(0, 9)) {
          case 0: out[i] = kNaN; break;
          case 1: out[i] = sign * kInf; break;
          case 2: out[i] = sign * kDenormal; break;
          case 3: out[i] = sign * 0.0; break;
          case 4: out[i] = DBL_MAX; break;
          case 5: out[i] = -DBL_MAX; break;
          case 6: out[i] = DBL_MIN; break;
          default: out[i] = rng.normal(0.0, 1e3);
        }
        break;
      }
      case Stream::kTied:
        switch (rng.uniform_int(0, 5)) {
          case 0: out[i] = -0.0; break;
          case 1: out[i] = kDenormal; break;
          default:
            out[i] = 0.1 * static_cast<real>(rng.uniform_int(0, 3)) - 0.1;
        }
        break;
    }
  }
  return out;
}

/// Checks the five properties of `d` against the samples it absorbed.
void expect_sound(QuantileDigest& d, const std::vector<real>& samples) {
  std::vector<real> finite;
  for (const real x : samples)
    if (std::isfinite(x)) finite.push_back(x);
  ASSERT_EQ(d.count(), finite.size());
  if (finite.empty()) return;
  const auto [lo, hi] = std::minmax_element(finite.begin(), finite.end());
  EXPECT_EQ(d.min_value(), *lo);
  EXPECT_EQ(d.max_value(), *hi);

  real previous = -kInf;
  const real qs[] = {0.0,  1e-4, 0.001, 0.01, 0.1,   0.25, 0.5,
                     0.75, 0.9,  0.99,  0.999, 0.9999, 1.0};
  for (const real q : qs) {
    const real v = d.quantile(q);
    ASSERT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_GE(v, d.min_value()) << "q=" << q;
    EXPECT_LE(v, d.max_value()) << "q=" << q;
    const real rounding = 2.0 * DBL_EPSILON * std::abs(previous);
    EXPECT_GE(v, previous - rounding) << "q=" << q;
    previous = v;
  }
}

class DigestHostileProperty : public ::testing::TestWithParam<DigestCase> {};

TEST_P(DigestHostileProperty, OneDigestStaysSound) {
  const DigestCase& c = GetParam();
  const std::vector<real> samples = draw(c);
  QuantileDigest d(c.compression);
  for (const real x : samples) d.add(x);
  expect_sound(d, samples);
}

TEST_P(DigestHostileProperty, MergedShardsStaySound) {
  const DigestCase& c = GetParam();
  const std::vector<real> samples = draw(c);
  std::vector<QuantileDigest> shards(c.shards, QuantileDigest(c.compression));
  for (index_t i = 0; i < samples.size(); ++i)
    shards[i % c.shards].add(samples[i]);
  // Flush every other shard, so merge folds both clustered centroids and
  // raw buffered samples.
  for (index_t s = 0; s < shards.size(); s += 2) shards[s].flush();
  QuantileDigest total(c.compression);
  for (const QuantileDigest& s : shards) total.merge(s);
  expect_sound(total, samples);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DigestHostileProperty,
                         ::testing::ValuesIn(make_cases()));

TEST(DigestHostileTest, SaturatedSamplesReadTheirValue) {
  QuantileDigest d;
  for (int i = 0; i < 1000; ++i) d.add(DBL_MAX);
  EXPECT_EQ(d.quantile(0.5), DBL_MAX);
  EXPECT_EQ(d.quantile(0.99), DBL_MAX);
}

TEST(DigestHostileTest, AlternatingExtremesReadFiniteQuantiles) {
  QuantileDigest d;
  for (int i = 0; i < 1000; ++i) d.add(i % 2 == 0 ? DBL_MAX : -DBL_MAX);
  EXPECT_TRUE(std::isfinite(d.quantile(0.5)));
  EXPECT_EQ(d.quantile(0.99), DBL_MAX);
  EXPECT_EQ(d.quantile(0.01), -DBL_MAX);
}

}  // namespace
}  // namespace mmw::obs
