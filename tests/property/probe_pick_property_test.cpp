// Property sweeps over antenna::rank_beams — the one beam-ranking rule
// behind Algorithm 1's probe picks, the tracking slot's covariance probes,
// the bandit's pulls and the beam-space codec — across seeded hostile score
// tables (zero, negative, NaN, ±∞, denormal and tied scores) at the floors
// its callers use (−∞, 0 and a positive beam floor):
//
//   appends only      the caller's prefix of `out` is left untouched;
//   admitted only     never an index admit() rejects, never one twice;
//   above the floor   every pick scores strictly above the floor, so NaN
//                     never ranks;
//   greedy order      picks come highest score first, ties to the lowest
//                     index — the order a (score desc, index asc) sort of
//                     the qualifying indices gives;
//   bounded count     min(count, qualifying) picks, also when count is at
//                     or above the qualifying count;
//   one rule          the count == 1 scan picks the head of the sort path.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "antenna/codebook.h"
#include "randgen/rng.h"

namespace mmw::antenna {
namespace {

constexpr real kInf = std::numeric_limits<real>::infinity();
constexpr real kNaN = std::numeric_limits<real>::quiet_NaN();
constexpr real kDenormal = std::numeric_limits<real>::denorm_min();

struct PickCase {
  std::uint64_t seed;
  index_t n;       ///< score table size (codebook size)
  index_t count;   ///< requested picks
  index_t levels;  ///< distinct positive values: few levels force ties
  real floor;
};

void PrintTo(const PickCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n << "_count" << c.count << "_levels"
      << c.levels;
  if (c.floor == -kInf)
    *os << "_nofloor";
  else if (c.floor != 0.0)
    *os << "_floor" << c.floor;
}

std::vector<PickCase> make_cases(real floor) {
  std::vector<PickCase> cases;
  const index_t sizes[] = {1, 4, 16, 64};
  const index_t levels[] = {2, 1000};
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    for (const index_t n : sizes)
      for (const index_t l : levels)
        cases.push_back(
            {seed * 104729 + n, n, 1 + (seed * 5) % (n + 2), l, floor});
  return cases;
}

/// The reference ranking: every qualifying index, stable-sorted by score
/// descending (so ties keep ascending index order), cut to `count`.
std::vector<index_t> sort_oracle(const std::vector<real>& scores, real floor,
                                 index_t count,
                                 const std::vector<bool>& admitted) {
  std::vector<index_t> eligible;
  for (index_t v = 0; v < scores.size(); ++v)
    if (scores[v] > floor && admitted[v]) eligible.push_back(v);
  std::stable_sort(eligible.begin(), eligible.end(),
                   [&](index_t a, index_t b) { return scores[a] > scores[b]; });
  eligible.resize(std::min(eligible.size(), count));
  return eligible;
}

void expect_greedy_top_count(const PickCase& c) {
  randgen::Rng rng(c.seed);
  for (int round = 0; round < 20; ++round) {
    // Scores: zero, negative, NaN, ±∞, denormal and quantized positive.
    std::vector<real> scores(c.n);
    for (real& s : scores) {
      switch (rng.uniform_int(0, 6)) {
        case 0: s = 0.0; break;
        case 1: s = -rng.uniform(0.0, 5.0); break;
        case 2: s = kNaN; break;
        case 3: s = rng.uniform_int(0, 1) == 0 ? kInf : -kInf; break;
        case 4: s = kDenormal; break;
        default:
          s = static_cast<real>(1 + rng.uniform_int(0, c.levels - 1));
      }
    }
    // A random prefix the caller already chose, which admit() rejects.
    std::vector<index_t> out =
        rng.sample_without_replacement(c.n, rng.uniform_int(0, c.n / 2));
    const std::vector<index_t> prefix = out;
    std::vector<bool> admitted(c.n, true);
    for (const index_t v : prefix) admitted[v] = false;
    const auto admit = [&](index_t v) { return admitted[v]; };

    rank_beams(scores, c.floor, c.count, admit, out);

    ASSERT_GE(out.size(), prefix.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    const std::vector<index_t> picked(out.begin() + prefix.size(), out.end());
    EXPECT_EQ(picked, sort_oracle(scores, c.floor, c.count, admitted));

    std::vector<index_t> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    for (const index_t v : picked) {
      ASSERT_LT(v, c.n);
      EXPECT_GT(scores[v], c.floor) << v;  // false for NaN as well
    }

    // The count == 1 scan and the partial-sort path agree on the head.
    std::vector<index_t> head;
    rank_beams(scores, c.floor, 1, admit, head);
    std::vector<index_t> ranked;
    rank_beams(scores, c.floor, std::max<index_t>(c.count, 2), admit, ranked);
    ASSERT_EQ(head.empty(), ranked.empty());
    if (!head.empty()) {
      EXPECT_EQ(head.front(), ranked.front());
    }
  }
}

// Floor 0: the tracking slot's and the codec's positive-mass rule.
class ProbePickProperty : public ::testing::TestWithParam<PickCase> {};

TEST_P(ProbePickProperty, PicksAreTheGreedyPositiveTopCount) {
  expect_greedy_top_count(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProbePickProperty,
                         ::testing::ValuesIn(make_cases(0.0)));

// No floor (the J-th pick, the bandit) and a positive beam floor (the
// exploration floor of Algorithm 1's J − 1 probes).
class FloorPickProperty : public ::testing::TestWithParam<PickCase> {};

TEST_P(FloorPickProperty, PicksAreTheGreedyTopCountAboveTheFloor) {
  expect_greedy_top_count(GetParam());
}

INSTANTIATE_TEST_SUITE_P(NoFloor, FloorPickProperty,
                         ::testing::ValuesIn(make_cases(kNoFloor)));
INSTANTIATE_TEST_SUITE_P(BeamFloor, FloorPickProperty,
                         ::testing::ValuesIn(make_cases(2.5)));

TEST(ProbePickTest, TiesGoToTheLowestIndex) {
  const std::vector<real> scores{1.0, 3.0, 0.0, 3.0, 2.0, 3.0};
  std::vector<index_t> out{3};
  rank_beams(scores, 0.0, 3, [&](index_t v) { return v != 3; }, out);
  EXPECT_EQ(out, (std::vector<index_t>{3, 1, 5, 4}));
}

TEST(ProbePickTest, StopsWhenPositiveMassRunsOut) {
  const std::vector<real> scores{0.0, -1.0, kNaN, 0.5};
  std::vector<index_t> out;
  rank_beams(scores, 0.0, 4, out);
  EXPECT_EQ(out, (std::vector<index_t>{3}));
  out.clear();
  rank_beams(scores, 0.0, 0, out);
  EXPECT_TRUE(out.empty());
  // No floor: every non-NaN score ranks, NaN still does not.
  rank_beams(scores, kNoFloor, 4, out);
  EXPECT_EQ(out, (std::vector<index_t>{3, 0, 1}));
}

TEST(ProbePickTest, AllEqualScoresRankInIndexOrder) {
  const std::vector<real> scores(9, 0.25);
  for (const index_t count :
       {index_t{1}, index_t{4}, index_t{9}, index_t{12}}) {
    std::vector<index_t> out;
    rank_beams(scores, 0.0, count, out);
    ASSERT_EQ(out.size(), std::min<index_t>(count, scores.size()));
    for (index_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
  }
}

TEST(ProbePickTest, InfinitiesRankAtTheEnds) {
  const std::vector<real> scores{1.0, -kInf, kInf, kDenormal, kInf, kNaN};
  std::vector<index_t> out;
  rank_beams(scores, kNoFloor, 6, out);
  // −∞ is not above the −∞ floor.
  EXPECT_EQ(out, (std::vector<index_t>{2, 4, 0, 3}));
  out.clear();
  rank_beams(scores, 0.0, 6, out);
  EXPECT_EQ(out, (std::vector<index_t>{2, 4, 0, 3}));  // a denormal is > 0
  out.clear();
  rank_beams(scores, kInf, 6, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace mmw::antenna
