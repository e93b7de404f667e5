// Property sweeps over channel::LinkEvolution — the distributional and
// purity contracts the tracking layer (src/track/) rests on, checked
// across a grid of seeded cases:
//
//   drift ∝ speed         realized angular RMS drift scales linearly with
//                         terminal speed (the per-meter parameterization);
//   blockage duty cycle   the two-state Markov chain's blocked fraction
//                         matches onset/(onset + clear) stationarity;
//   bit-identical replay  two instances with the same keys agree exactly,
//                         epoch by epoch;
//   epoch-order freedom   seeking in any order lands on the same state as
//                         a monotone walk (the handover re-entry contract).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "channel/temporal.h"
#include "randgen/keylanes.h"

namespace mmw::channel {
namespace {

using antenna::ArrayGeometry;

struct EvolutionCase {
  std::uint64_t seed;
  std::uint64_t user;
  real speed_mps;
  real onset;  ///< per-epoch blockage onset probability
  real clear;  ///< per-epoch clear probability
};

void PrintTo(const EvolutionCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_user" << c.user << "_v" << c.speed_mps
      << "_on" << c.onset << "_off" << c.clear;
}

std::vector<EvolutionCase> make_cases() {
  // 50 cases × 4 properties ≈ 200 seeded property checks.
  std::vector<EvolutionCase> cases;
  const real speeds[] = {0.7, 1.4, 5.0, 13.9, 33.3};
  const real onsets[] = {0.05, 0.15};
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    for (const real v : speeds)
      for (const real on : onsets)
        cases.push_back({seed * 7919, seed * 13 + static_cast<std::uint64_t>(
                                                      v * 10.0),
                         v, on, 0.25});
  return cases;
}

std::vector<Path> base_paths() {
  return {Path{0.5, {0.2, 0.1}, {-0.3, 0.0}},
          Path{0.5, {-0.4, 0.0}, {0.3, -0.1}}};
}

class EvolutionProperty : public ::testing::TestWithParam<EvolutionCase> {
 protected:
  EvolutionConfig config() const {
    const EvolutionCase& c = GetParam();
    EvolutionConfig cfg;
    cfg.epoch_seconds = 0.5;
    cfg.speed_mps = c.speed_mps;
    cfg.shadow_sigma_db = 1.5;
    cfg.blockage_onset_per_epoch = c.onset;
    cfg.blockage_clear_probability = c.clear;
    return cfg;
  }

  LinkEvolution make(const EvolutionConfig& cfg) const {
    const EvolutionCase& c = GetParam();
    return LinkEvolution(ArrayGeometry::upa(2, 2),
                         ArrayGeometry::upa(4, 4), base_paths(), cfg,
                         c.seed, randgen::lanes::temporal_lane(1), c.user);
  }
};

TEST_P(EvolutionProperty, DriftRmsScalesLinearlyWithSpeed) {
  // After E epochs the cumulative drift is N(0, E·σ²) with σ =
  // drift_rad_per_meter·v·τ — doubling v must double the realized RMS.
  // Same stream keys at both speeds → identical standard normals, so the
  // ratio is EXACT (the scaling is deterministic given the draws).
  EvolutionConfig cfg = config();
  cfg.blockage_onset_per_epoch = 0.0;
  LinkEvolution evo = make(cfg);
  EvolutionConfig doubled = cfg;
  doubled.speed_mps = 2.0 * cfg.speed_mps;
  LinkEvolution evo2 = make(doubled);
  const index_t epochs = 32;
  evo.seek(epochs);
  evo2.seek(epochs);
  real sum = 0.0, sum2 = 0.0;
  for (index_t l = 0; l < base_paths().size(); ++l) {
    sum += evo.aoa_azimuth_drift(l) * evo.aoa_azimuth_drift(l);
    sum2 += evo2.aoa_azimuth_drift(l) * evo2.aoa_azimuth_drift(l);
  }
  const real rms = std::sqrt(sum), rms2 = std::sqrt(sum2);
  if (rms > 0.0) {
    EXPECT_NEAR(rms2 / rms, 2.0, 1e-9);
  }
  // And the magnitude is in statistical range: |drift| ≤ 6σ√E.
  const real bound = 6.0 * cfg.drift_std_rad() * std::sqrt(
                               static_cast<real>(epochs));
  EXPECT_LE(rms, bound * std::sqrt(2.0));
}

TEST_P(EvolutionProperty, BlockageDutyCycleMatchesStationaryChain) {
  // Long-run blocked fraction of the on/off chain → p_on/(p_on + p_off).
  const EvolutionCase& c = GetParam();
  EvolutionConfig cfg = config();
  LinkEvolution evo = make(cfg);
  const index_t epochs = 4000;
  index_t blocked = 0;
  for (index_t e = 1; e <= epochs; ++e) {
    evo.seek(e);
    if (evo.blocked()) ++blocked;
  }
  const real duty = static_cast<real>(blocked) / static_cast<real>(epochs);
  const real expected = c.onset / (c.onset + c.clear);
  // Binomial-ish tolerance with correlated samples: generous 5σ of an
  // effective sample count epochs·(onset + clear)/2.
  const real eff = static_cast<real>(epochs) * (c.onset + c.clear) / 2.0;
  const real tol =
      5.0 * std::sqrt(expected * (1.0 - expected) / eff) + 0.01;
  EXPECT_NEAR(duty, expected, tol);
}

TEST_P(EvolutionProperty, ReplayIsBitIdentical) {
  LinkEvolution a = make(config());
  LinkEvolution b = make(config());
  for (index_t e = 1; e <= 24; ++e) {
    a.seek(e);
    b.seek(e);
    ASSERT_EQ(a.blocked(), b.blocked()) << "epoch " << e;
    const Link la = a.current(), lb = b.current();
    for (index_t l = 0; l < la.paths().size(); ++l) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(la.paths()[l].power, lb.paths()[l].power);
      ASSERT_EQ(la.paths()[l].aoa.azimuth, lb.paths()[l].aoa.azimuth);
      ASSERT_EQ(la.paths()[l].aoa.elevation, lb.paths()[l].aoa.elevation);
      ASSERT_EQ(la.paths()[l].aod.azimuth, lb.paths()[l].aod.azimuth);
      ASSERT_EQ(la.paths()[l].aod.elevation, lb.paths()[l].aod.elevation);
    }
  }
}

TEST_P(EvolutionProperty, SeekOrderIndependence) {
  // Visiting epochs in a scrambled order must land each visit on the same
  // state as a fresh monotone instance — backward seeks replay exactly.
  const index_t visits[] = {12, 3, 20, 20, 7, 15, 1, 18, 0, 9};
  LinkEvolution scrambled = make(config());
  for (const index_t e : visits) {
    scrambled.seek(e);
    LinkEvolution fresh = make(config());
    fresh.seek(e);
    ASSERT_EQ(scrambled.blocked(), fresh.blocked()) << "epoch " << e;
    const Link ls = scrambled.current(), lf = fresh.current();
    for (index_t l = 0; l < ls.paths().size(); ++l) {
      ASSERT_EQ(ls.paths()[l].power, lf.paths()[l].power) << "epoch " << e;
      ASSERT_EQ(ls.paths()[l].aoa.azimuth, lf.paths()[l].aoa.azimuth);
      ASSERT_EQ(ls.paths()[l].aod.azimuth, lf.paths()[l].aod.azimuth);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvolutionProperty,
                         ::testing::ValuesIn(make_cases()));

}  // namespace
}  // namespace mmw::channel
