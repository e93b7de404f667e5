// Property sweeps over track::append_covariance_probes — the top-(J−1)
// covariance-directed pick the serving engine and the warm-ML tracker
// share — across seeded hostile score tables:
//
//   appends only         the caller's prefix of `out` is left untouched;
//   no duplicates        never an index twice, never one already in `out`;
//   positive mass only   zero, negative and NaN scores are never picked;
//   greedy order         picks come highest score first, ties to the
//                        lowest index — the order a (score desc, index
//                        asc) sort of the eligible indices gives;
//   bounded count        min(count, eligible) picks: at most the requested
//                        count, and it stops once positive mass runs out.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "randgen/rng.h"
#include "track/policy.h"

namespace mmw::track {
namespace {

struct PickCase {
  std::uint64_t seed;
  index_t n;      ///< score table size (codebook size)
  index_t count;  ///< requested picks (J − 1)
  index_t levels; ///< distinct positive values: few levels force ties
};

void PrintTo(const PickCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n << "_count" << c.count << "_levels"
      << c.levels;
}

std::vector<PickCase> make_cases() {
  std::vector<PickCase> cases;
  const index_t sizes[] = {1, 4, 16, 64};
  const index_t levels[] = {2, 1000};
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    for (const index_t n : sizes)
      for (const index_t l : levels)
        cases.push_back({seed * 104729 + n, n, 1 + (seed * 5) % (n + 2), l});
  return cases;
}

class ProbePickProperty : public ::testing::TestWithParam<PickCase> {};

TEST_P(ProbePickProperty, PicksAreTheGreedyPositiveTopCount) {
  const PickCase& c = GetParam();
  randgen::Rng rng(c.seed);
  for (int round = 0; round < 20; ++round) {
    // Scores: a quarter each of zero, negative, NaN and quantized positive.
    std::vector<real> scores(c.n);
    for (real& s : scores) {
      switch (rng.uniform_int(0, 3)) {
        case 0: s = 0.0; break;
        case 1: s = -rng.uniform(0.0, 5.0); break;
        case 2: s = std::numeric_limits<real>::quiet_NaN(); break;
        default:
          s = static_cast<real>(1 + rng.uniform_int(0, c.levels - 1));
      }
    }
    // A random prefix the caller already chose.
    std::vector<index_t> out =
        rng.sample_without_replacement(c.n, rng.uniform_int(0, c.n / 2));
    const std::vector<index_t> prefix = out;

    append_covariance_probes(scores, c.count, out);

    ASSERT_GE(out.size(), prefix.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    const std::vector<index_t> picked(out.begin() + prefix.size(), out.end());

    std::vector<index_t> eligible;
    for (index_t v = 0; v < c.n; ++v)
      if (scores[v] > 0.0 &&
          std::find(prefix.begin(), prefix.end(), v) == prefix.end())
        eligible.push_back(v);
    std::stable_sort(eligible.begin(), eligible.end(),
                     [&](index_t a, index_t b) { return scores[a] > scores[b]; });
    eligible.resize(std::min(eligible.size(), c.count));
    EXPECT_EQ(picked, eligible);

    std::vector<index_t> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    for (const index_t v : picked) {
      ASSERT_LT(v, c.n);
      EXPECT_GT(scores[v], 0.0) << v;  // false for NaN as well
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProbePickProperty,
                         ::testing::ValuesIn(make_cases()));

TEST(ProbePickTest, TiesGoToTheLowestIndex) {
  const std::vector<real> scores{1.0, 3.0, 0.0, 3.0, 2.0, 3.0};
  std::vector<index_t> out{3};
  append_covariance_probes(scores, 3, out);
  EXPECT_EQ(out, (std::vector<index_t>{3, 1, 5, 4}));
}

TEST(ProbePickTest, StopsWhenPositiveMassRunsOut) {
  const std::vector<real> scores{
      0.0, -1.0, std::numeric_limits<real>::quiet_NaN(), 0.5};
  std::vector<index_t> out;
  append_covariance_probes(scores, 4, out);
  EXPECT_EQ(out, (std::vector<index_t>{3}));
  out.clear();
  append_covariance_probes(scores, 0, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace mmw::track
