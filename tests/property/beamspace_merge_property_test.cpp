// Property sweeps over estimation::merge_beam_space — the beam-space
// codec's tracking update, run on every aligning slot of the serving engine
// and the trackers — across seeded hostile component lists (zero,
// negative, NaN, ±∞, denormal, tied and saturated weights) at forgetting
// 0, ½ and 1:
//
//   canonical     beams come out strictly ascending;
//   bounded       at most max_components entries;
//   sane weights  no NaN, no weight ≤ 0 (+∞ may survive: a saturated sum);
//   the rule      the output equals the documented update — an input
//                 component whose weight is not positive is absent (as in
//                 expand_beam_space), out(b) = forgetting·prior(b) +
//                 update(b) over the union with the prior dropped outright
//                 at forgetting 0, non-positive totals dropped, and the
//                 heaviest max_components kept with ties to the lowest
//                 beam.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "estimation/beamspace.h"
#include "randgen/rng.h"

namespace mmw::estimation {
namespace {

constexpr real kInf = std::numeric_limits<real>::infinity();
constexpr real kNaN = std::numeric_limits<real>::quiet_NaN();
constexpr real kDenormal = std::numeric_limits<real>::denorm_min();
constexpr real kMax = std::numeric_limits<real>::max();

struct MergeCase {
  std::uint64_t seed;
  index_t n;               ///< beams drawn from [0, n)
  index_t max_components;
  index_t levels;          ///< distinct positive values: few levels force ties
  real forgetting;
};

void PrintTo(const MergeCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_n" << c.n << "_k" << c.max_components
      << "_levels" << c.levels << "_forgetting" << c.forgetting;
}

std::vector<MergeCase> make_cases(real forgetting) {
  std::vector<MergeCase> cases;
  const index_t sizes[] = {1, 4, 16, 64};
  const index_t levels[] = {2, 1000};
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    for (const index_t n : sizes)
      for (const index_t l : levels)
        cases.push_back(
            {seed * 7919 + n, n, 1 + (seed * 3) % 8, l, forgetting});
  return cases;
}

/// A hostile weight: zero, negative, NaN, ±∞, denormal, saturated or a
/// quantized positive level.
real hostile_weight(randgen::Rng& rng, index_t levels) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return 0.0;
    case 1: return -rng.uniform(0.0, 5.0);
    case 2: return kNaN;
    case 3: return rng.uniform_int(0, 1) == 0 ? kInf : -kInf;
    case 4: return kDenormal;
    case 5: return kMax;
    default: return static_cast<real>(1 + rng.uniform_int(0, levels - 1));
  }
}

/// A canonical list: a random subset of [0, n) in ascending order.
std::vector<BeamComponent> hostile_list(randgen::Rng& rng,
                                        const MergeCase& c) {
  std::vector<index_t> beams =
      rng.sample_without_replacement(c.n, rng.uniform_int(0, c.n));
  std::sort(beams.begin(), beams.end());
  std::vector<BeamComponent> out;
  for (const index_t b : beams)
    out.push_back({b, hostile_weight(rng, c.levels)});
  return out;
}

/// The documented update, computed over a dense per-beam table.
std::vector<BeamComponent> reference_merge(
    const std::vector<BeamComponent>& prior, real forgetting,
    const std::vector<BeamComponent>& update, index_t n,
    index_t max_components) {
  std::vector<std::optional<real>> total(n);
  const auto add = [&](index_t beam, real w) {
    total[beam] = total[beam] ? *total[beam] + w : w;
  };
  for (const BeamComponent& c : prior)
    if (c.weight > 0.0 && forgetting > 0.0) add(c.beam, forgetting * c.weight);
  for (const BeamComponent& c : update)
    if (c.weight > 0.0) add(c.beam, c.weight);
  std::vector<BeamComponent> kept;
  for (index_t b = 0; b < n; ++b)
    if (total[b] && *total[b] > 0.0) kept.push_back({b, *total[b]});
  std::stable_sort(kept.begin(), kept.end(),
                   [](const BeamComponent& a, const BeamComponent& b) {
                     return a.weight > b.weight;
                   });
  kept.resize(std::min(kept.size(), max_components));
  std::sort(kept.begin(), kept.end(),
            [](const BeamComponent& a, const BeamComponent& b) {
              return a.beam < b.beam;
            });
  return kept;
}

class MergeProperty : public ::testing::TestWithParam<MergeCase> {};

TEST_P(MergeProperty, OutputIsTheCanonicalSaneHeaviestUnion) {
  const MergeCase& c = GetParam();
  randgen::Rng rng(c.seed);
  for (int round = 0; round < 20; ++round) {
    const std::vector<BeamComponent> prior = hostile_list(rng, c);
    const std::vector<BeamComponent> update = hostile_list(rng, c);
    const std::vector<BeamComponent> out =
        merge_beam_space(prior, c.forgetting, update, c.max_components);

    EXPECT_LE(out.size(), c.max_components);
    for (index_t i = 0; i < out.size(); ++i) {
      ASSERT_LT(out[i].beam, c.n);
      if (i > 0) {
        EXPECT_LT(out[i - 1].beam, out[i].beam);
      }
      EXPECT_FALSE(std::isnan(out[i].weight)) << "beam " << out[i].beam;
      EXPECT_GT(out[i].weight, 0.0) << "beam " << out[i].beam;
    }

    const std::vector<BeamComponent> want = reference_merge(
        prior, c.forgetting, update, c.n, c.max_components);
    ASSERT_EQ(out.size(), want.size()) << "round " << round;
    for (index_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].beam, want[i].beam) << "round " << round;
      EXPECT_EQ(out[i].weight, want[i].weight) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ForgetAll, MergeProperty,
                         ::testing::ValuesIn(make_cases(0.0)));
INSTANTIATE_TEST_SUITE_P(ForgetHalf, MergeProperty,
                         ::testing::ValuesIn(make_cases(0.5)));
INSTANTIATE_TEST_SUITE_P(KeepAll, MergeProperty,
                         ::testing::ValuesIn(make_cases(1.0)));

TEST(MergeHostileTest, ForgettingZeroDropsAnInfinitePrior) {
  // 0·∞ is NaN: the prior must be dropped, not multiplied, or the beam's
  // update is lost with it.
  const std::vector<BeamComponent> prior{{2, kInf}, {5, kNaN}};
  const std::vector<BeamComponent> update{{2, 1.5}, {5, 0.25}};
  const std::vector<BeamComponent> out =
      merge_beam_space(prior, 0.0, update, 4);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].beam, 2u);
  EXPECT_EQ(out[0].weight, 1.5);
  EXPECT_EQ(out[1].beam, 5u);
  EXPECT_EQ(out[1].weight, 0.25);
}

TEST(MergeHostileTest, NonPositivePriorNeverCancelsAnUpdate) {
  const std::vector<BeamComponent> prior{{1, -4.0}, {3, kNaN}, {6, -kInf}};
  const std::vector<BeamComponent> update{{1, 2.0}, {3, 1.0}, {6, 0.5}};
  const std::vector<BeamComponent> out =
      merge_beam_space(prior, 1.0, update, 4);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].weight, 2.0);
  EXPECT_EQ(out[1].weight, 1.0);
  EXPECT_EQ(out[2].weight, 0.5);
}

TEST(MergeHostileTest, SaturatedSumsTieAtInfinityToTheLowestBeam) {
  const std::vector<BeamComponent> prior{{4, kMax}, {7, kMax}, {9, 1.0}};
  const std::vector<BeamComponent> update{{4, kMax}, {7, kMax}, {9, kInf}};
  const std::vector<BeamComponent> out =
      merge_beam_space(prior, 1.0, update, 2);
  ASSERT_EQ(out.size(), 2u);  // three +∞ totals; the two lowest beams stay
  EXPECT_EQ(out[0].beam, 4u);
  EXPECT_EQ(out[1].beam, 7u);
  EXPECT_EQ(out[0].weight, kInf);
}

TEST(MergeHostileTest, RepeatedBeamIsRejectedWhereverItSits) {
  // The repeat is caught also where the other list names the same beam.
  const std::vector<BeamComponent> prior{{1, 1.0}, {1, 2.0}};
  const std::vector<BeamComponent> update{{1, 3.0}};
  EXPECT_THROW(merge_beam_space(prior, 0.5, update, 4), precondition_error);
  EXPECT_THROW(merge_beam_space(update, 0.5, prior, 4), precondition_error);
}

}  // namespace
}  // namespace mmw::estimation
