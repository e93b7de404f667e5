#include "channel/pathloss.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mmw::channel {
namespace {

using randgen::Rng;

TEST(NycPathLossTest, NlosExceedsLosOnAverage) {
  Rng rng(1);
  const auto p = NycPathLossParams::nyc_28ghz();
  real los = 0.0, nlos = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    los += nyc_path_loss_db(p, LinkState::kLos, 100.0, rng);
    nlos += nyc_path_loss_db(p, LinkState::kNlos, 100.0, rng);
  }
  EXPECT_GT(nlos / n, los / n + 10.0);
}

TEST(NycPathLossTest, MeanMatchesInterceptAndSlope) {
  Rng rng(2);
  const auto p = NycPathLossParams::nyc_28ghz();
  real acc = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    acc += nyc_path_loss_db(p, LinkState::kLos, 100.0, rng);
  // α + β·10·log10(100) = 61.4 + 2·20 = 101.4
  EXPECT_NEAR(acc / n, 101.4, 0.5);
}

TEST(NycPathLossTest, OutageIsInfinite) {
  Rng rng(3);
  const auto p = NycPathLossParams::nyc_28ghz();
  EXPECT_TRUE(std::isinf(
      nyc_path_loss_db(p, LinkState::kOutage, 100.0, rng)));
}

TEST(LinkStateTest, ShortLinksAreMostlyLos) {
  Rng rng(5);
  const auto p = NycPathLossParams::nyc_28ghz();
  int los = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i)
    if (sample_link_state(p, 20.0, rng) == LinkState::kLos) ++los;
  EXPECT_GT(los, n / 2);
}

TEST(LinkStateTest, LongLinksAreRarelyLos) {
  Rng rng(6);
  const auto p = NycPathLossParams::nyc_28ghz();
  int los = 0, outage = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const LinkState s = sample_link_state(p, 400.0, rng);
    if (s == LinkState::kLos) ++los;
    if (s == LinkState::kOutage) ++outage;
  }
  EXPECT_LT(los, n / 20);
  EXPECT_GT(outage, n / 2);  // a_out·400 − b_out ≈ 8.1 → p_out ≈ 1
}

TEST(LinkStateTest, InvalidDistanceThrows) {
  Rng rng(7);
  const auto p = NycPathLossParams::nyc_28ghz();
  EXPECT_THROW(sample_link_state(p, 0.0, rng), precondition_error);
  EXPECT_THROW(nyc_path_loss_db(p, LinkState::kLos, -1.0, rng),
               precondition_error);
}

TEST(LinkBudgetTest, NoiseFloorFormula) {
  // The fixed radio: 1 GHz of bandwidth and a 7 dB noise figure.
  const LinkBudget b;
  EXPECT_NEAR(b.noise_power_dbm(), -174.0 + 90.0 + 7.0, 1e-9);
}

TEST(LinkBudgetTest, SnrChainsCorrectly) {
  // 30 dBm into the fixed radio's -77 dBm noise floor.
  LinkBudget b;
  b.path_loss_db = 100.0;
  EXPECT_NEAR(b.snr_db(), 30.0 - 100.0 - (-77.0), 1e-9);
  EXPECT_NEAR(b.snr_linear(), std::pow(10.0, b.snr_db() / 10.0), 1e-9);
}

}  // namespace
}  // namespace mmw::channel
