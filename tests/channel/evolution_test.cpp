// channel::LinkEvolution — the epoch-scale large-scale evolution the
// tracking layer rides on. The seek() determinism contract (state at epoch
// e is a pure function of the stream keys, independent of the visit order)
// is what makes mid-run handover re-entry exact, so it gets the heaviest
// coverage here; distributional properties live in
// tests/property/temporal_property_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "channel/temporal.h"
#include "randgen/keylanes.h"

namespace mmw::channel {
namespace {

using antenna::ArrayGeometry;

std::vector<Path> base_paths() {
  return {Path{0.3, {0.3, 0.1}, {-0.2, 0.0}},
          Path{0.6, {-0.5, 0.0}, {0.4, 0.1}},
          Path{0.1, {0.1, -0.1}, {0.0, 0.2}}};
}

EvolutionConfig walking_config() {
  EvolutionConfig c;
  c.epoch_seconds = 0.5;
  c.speed_mps = 1.4;
  c.shadow_sigma_db = 2.0;
  c.blockage_onset_per_epoch = 0.1;
  c.blockage_clear_probability = 0.3;
  return c;
}

LinkEvolution make_evolution(const EvolutionConfig& config,
                             std::uint64_t user = 7) {
  return LinkEvolution(ArrayGeometry::upa(2, 2), ArrayGeometry::upa(4, 4),
                       base_paths(), config, 20160610,
                       randgen::lanes::temporal_lane(0), user);
}

bool links_identical(const Link& a, const Link& b) {
  if (a.paths().size() != b.paths().size()) return false;
  for (index_t l = 0; l < a.paths().size(); ++l) {
    const Path& p = a.paths()[l];
    const Path& q = b.paths()[l];
    if (p.power != q.power) return false;
    if (p.aod.azimuth != q.aod.azimuth) return false;
    if (p.aod.elevation != q.aod.elevation) return false;
    if (p.aoa.azimuth != q.aoa.azimuth) return false;
    if (p.aoa.elevation != q.aoa.elevation) return false;
  }
  return true;
}

TEST(LinkEvolutionTest, EpochZeroIsTheBaseLink) {
  LinkEvolution evo = make_evolution(walking_config());
  EXPECT_EQ(evo.epoch(), 0u);
  EXPECT_FALSE(evo.blocked());
  const Link link = evo.current();
  const std::vector<Path> base = base_paths();
  ASSERT_EQ(link.paths().size(), base.size());
  for (index_t l = 0; l < base.size(); ++l) {
    EXPECT_DOUBLE_EQ(link.paths()[l].power, base[l].power);
    EXPECT_DOUBLE_EQ(link.paths()[l].aoa.azimuth, base[l].aoa.azimuth);
    EXPECT_DOUBLE_EQ(link.paths()[l].aod.azimuth, base[l].aod.azimuth);
  }
}

TEST(LinkEvolutionTest, DominantPathIsLargestPowerTieLowest) {
  LinkEvolution evo = make_evolution(walking_config());
  EXPECT_EQ(evo.dominant_path(), 1u);  // powers 0.3, 0.6, 0.1

  LinkEvolution tied(ArrayGeometry::upa(2, 2), ArrayGeometry::upa(4, 4),
                     {Path{0.5, {0.1, 0.0}, {0.0, 0.0}},
                      Path{0.5, {0.2, 0.0}, {0.0, 0.0}}},
                     walking_config(), 1, 0, 0);
  EXPECT_EQ(tied.dominant_path(), 0u);
}

TEST(LinkEvolutionTest, SeekForwardEqualsStepwise) {
  LinkEvolution direct = make_evolution(walking_config());
  LinkEvolution stepwise = make_evolution(walking_config());
  direct.seek(17);
  for (index_t e = 1; e <= 17; ++e) stepwise.seek(e);
  EXPECT_TRUE(links_identical(direct.current(), stepwise.current()));
  EXPECT_EQ(direct.blocked(), stepwise.blocked());
}

TEST(LinkEvolutionTest, SeekBackwardReplaysExactly) {
  LinkEvolution evo = make_evolution(walking_config());
  evo.seek(9);
  const Link at9 = evo.current();
  const bool blocked9 = evo.blocked();
  evo.seek(23);
  evo.seek(9);  // backward: replay from base
  EXPECT_TRUE(links_identical(evo.current(), at9));
  EXPECT_EQ(evo.blocked(), blocked9);
  evo.seek(0);
  EXPECT_TRUE(links_identical(evo.current(), make_evolution(walking_config()).current()));
}

TEST(LinkEvolutionTest, FreshInstanceMatchesSoughtInstance) {
  // The handover contract: constructing at a site and seeking to e lands
  // on the identical state as any other visit history with the same keys.
  LinkEvolution wanderer = make_evolution(walking_config());
  wanderer.seek(5);
  wanderer.seek(12);
  wanderer.seek(3);
  wanderer.seek(30);

  LinkEvolution fresh = make_evolution(walking_config());
  fresh.seek(30);
  EXPECT_TRUE(links_identical(wanderer.current(), fresh.current()));
}

TEST(LinkEvolutionTest, DistinctUsersEvolveIndependently) {
  LinkEvolution a = make_evolution(walking_config(), 7);
  LinkEvolution b = make_evolution(walking_config(), 8);
  a.seek(4);
  b.seek(4);
  EXPECT_FALSE(links_identical(a.current(), b.current()));
}

TEST(LinkEvolutionTest, BlockageSuppressesOnlyDominantPath) {
  EvolutionConfig c = walking_config();
  c.blockage_onset_per_epoch = 1.0;  // blocks at epoch 1 with certainty
  c.blockage_clear_probability = 0.0;
  c.shadow_sigma_db = 0.0;
  c.drift_rad_per_meter = 0.0;
  LinkEvolution evo = make_evolution(c);
  evo.seek(1);
  ASSERT_TRUE(evo.blocked());
  const Link link = evo.current();
  const std::vector<Path> base = base_paths();
  for (index_t l = 0; l < base.size(); ++l) {
    const real expected =
        l == evo.dominant_path() ? base[l].power * c.blockage_gain
                                 : base[l].power;
    EXPECT_NEAR(link.paths()[l].power, expected, 1e-15) << "path " << l;
  }
}

TEST(LinkEvolutionTest, BlockageClearsWithCertainClearProbability) {
  EvolutionConfig c = walking_config();
  c.blockage_onset_per_epoch = 1.0;
  c.blockage_clear_probability = 1.0;
  LinkEvolution evo = make_evolution(c);
  evo.seek(1);
  EXPECT_TRUE(evo.blocked());
  evo.seek(2);  // clears with certainty, then the same uniform can't re-arm
  EXPECT_FALSE(evo.blocked());
  evo.seek(3);
  EXPECT_TRUE(evo.blocked());  // unblocked again → onset fires again
}

TEST(LinkEvolutionTest, ZeroRatesFreezeTheLink) {
  EvolutionConfig c;
  c.drift_rad_per_meter = 0.0;
  c.shadow_sigma_db = 0.0;
  c.blockage_onset_per_epoch = 0.0;
  c.blockage_onset_per_meter = 0.0;
  LinkEvolution evo = make_evolution(c);
  evo.seek(40);
  EXPECT_FALSE(evo.blocked());
  EXPECT_TRUE(links_identical(evo.current(),
                              make_evolution(c).current()));
}

TEST(LinkEvolutionTest, ShadowScalesMeanPowerInDb) {
  EvolutionConfig c = walking_config();
  c.drift_rad_per_meter = 0.0;
  c.blockage_onset_per_epoch = 0.0;
  LinkEvolution evo = make_evolution(c);
  evo.seek(6);
  const Link link = evo.current();
  const std::vector<Path> base = base_paths();
  for (index_t l = 0; l < base.size(); ++l) {
    const real expected =
        base[l].power * std::pow(10.0, evo.shadow_db(l) / 10.0);
    EXPECT_NEAR(link.paths()[l].power, expected,
                1e-12 * (1.0 + expected));
  }
}

TEST(LinkEvolutionTest, DriftAddsToBaseAngles) {
  EvolutionConfig c = walking_config();
  c.shadow_sigma_db = 0.0;
  c.blockage_onset_per_epoch = 0.0;
  LinkEvolution evo = make_evolution(c);
  evo.seek(11);
  const Link link = evo.current();
  const std::vector<Path> base = base_paths();
  for (index_t l = 0; l < base.size(); ++l)
    EXPECT_NEAR(link.paths()[l].aoa.azimuth,
                base[l].aoa.azimuth + evo.aoa_azimuth_drift(l), 1e-12);
}

TEST(LinkEvolutionTest, ConfigValidation) {
  EvolutionConfig bad = walking_config();
  bad.blockage_clear_probability = 1.5;
  EXPECT_THROW(make_evolution(bad), precondition_error);
  bad = walking_config();
  bad.blockage_gain = 0.0;
  EXPECT_THROW(make_evolution(bad), precondition_error);
  bad = walking_config();
  bad.speed_mps = -1.0;
  EXPECT_THROW(make_evolution(bad), precondition_error);
  EXPECT_THROW(LinkEvolution(antenna::ArrayGeometry::upa(2, 2),
                             antenna::ArrayGeometry::upa(4, 4), {},
                             walking_config(), 1, 0, 0),
               precondition_error);
}

TEST(EvolutionConfigTest, DerivedQuantities) {
  EvolutionConfig c = walking_config();
  EXPECT_DOUBLE_EQ(c.meters_per_epoch(), 0.7);
  EXPECT_DOUBLE_EQ(c.drift_std_rad(), 0.004 * 0.7);
  EXPECT_NEAR(c.shadow_correlation(), std::exp(-0.7 / 15.0), 1e-12);
  // Onset clamps to [0, 1].
  c.blockage_onset_per_epoch = 0.9;
  c.blockage_onset_per_meter = 1.0;
  EXPECT_DOUBLE_EQ(c.onset_probability(), 1.0);
}

}  // namespace
}  // namespace mmw::channel
