#include "core/standard_sweep.h"

#include <gtest/gtest.h>

#include <cmath>

#include "antenna/steering.h"
#include "channel/models.h"
#include "core/oracle.h"

namespace mmw::core {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using randgen::Rng;

struct Fixture {
  ArrayGeometry tx = ArrayGeometry::upa(4, 4);
  ArrayGeometry rx = ArrayGeometry::upa(8, 8);
  channel::AngularSector sector;
  Codebook tx_cb;
  Codebook rx_cb;

  Fixture()
      : tx_cb(Codebook::angular_grid(tx, 4, 4, sector.az_min, sector.az_max,
                                     sector.el_min, sector.el_max)),
        rx_cb(Codebook::angular_grid(rx, 8, 8, sector.az_min, sector.az_max,
                                     sector.el_min, sector.el_max)) {}
};

TEST(SubarrayRestrictionTest, KeepsOnlyActiveElements) {
  const auto geo = ArrayGeometry::upa(4, 4);
  const auto w = antenna::steering_vector(geo, {0.3, 0.1});
  const auto wide = antenna::subarray_restriction(geo, w, 2, 2);
  EXPECT_NEAR(wide.norm(), 1.0, 1e-12);
  for (index_t ix = 0; ix < 4; ++ix)
    for (index_t iy = 0; iy < 4; ++iy) {
      const cx v = wide[ix * 4 + iy];
      if (ix < 2 && iy < 2)
        EXPECT_GT(std::abs(v), 0.0);
      else
        EXPECT_EQ(v, (cx{0, 0}));
    }
}

TEST(SubarrayRestrictionTest, WideBeamHasWiderMainLobe) {
  const auto geo = ArrayGeometry::upa(8, 8);
  const antenna::Direction boresight{0.0, 0.0};
  const auto narrow = antenna::steering_vector(geo, boresight);
  const auto wide = antenna::subarray_restriction(geo, narrow, 2, 2);
  // Relative gain at a 15° offset: the wide beam keeps much more of it.
  const antenna::Direction off{15.0 * M_PI / 180.0, 0.0};
  const real narrow_rel = antenna::beam_gain(geo, narrow, off) /
                          antenna::beam_gain(geo, narrow, boresight);
  const real wide_rel = antenna::beam_gain(geo, wide, off) /
                        antenna::beam_gain(geo, wide, boresight);
  EXPECT_GT(wide_rel, 4.0 * narrow_rel);
}

TEST(SubarrayRestrictionTest, Validation) {
  const auto geo = ArrayGeometry::upa(4, 4);
  const auto w = antenna::steering_vector(geo, {0.0, 0.0});
  EXPECT_THROW(antenna::subarray_restriction(geo, w, 0, 2),
               precondition_error);
  EXPECT_THROW(antenna::subarray_restriction(geo, w, 5, 2),
               precondition_error);
  EXPECT_THROW(
      antenna::subarray_restriction(geo, linalg::Vector(8), 2, 2),
      precondition_error);
}

TEST(StandardSweepTest, MeasurementCountMatchesProtocol) {
  Fixture f;
  Rng rng(5);
  const auto link = channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
  StandardSweepConfig cfg;
  const auto res = run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb,
                                      cfg, rng);
  // Stage 1: (2·2)·(2·2) = 16 sector pairs. Stage 2: TX block 2×2 = 4 fine
  // beams, RX block 4×4 = 16 fine beams → 64 pairs.
  EXPECT_EQ(res.sector_measurements, 16u);
  EXPECT_EQ(res.beam_measurements, 64u);
  EXPECT_EQ(res.total_measurements(), 80u);
}

TEST(StandardSweepTest, FindsGoodPairOnSinglePath) {
  Fixture f;
  Rng rng(6);
  real loss_acc = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const auto link =
        channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
    const PairGainOracle oracle(link, f.tx_cb, f.rx_cb);
    StandardSweepConfig cfg;
    cfg.fades_per_measurement = 16;
    const auto res = run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb,
                                        cfg, rng);
    loss_acc += oracle.loss_db(res.tx_beam, res.rx_beam);
  }
  // 80 of 1024 measurements (≈8%) should land within a few dB on average;
  // sector misdetection occasionally costs more, hence the loose bound.
  EXPECT_LT(loss_acc / trials, 6.0);
}

TEST(StandardSweepTest, SelectedPairLiesInWinningSector) {
  Fixture f;
  Rng rng(7);
  const auto link = channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
  StandardSweepConfig cfg;
  const auto res = run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb,
                                      cfg, rng);
  EXPECT_LT(res.tx_beam, f.tx_cb.size());
  EXPECT_LT(res.rx_beam, f.rx_cb.size());
  EXPECT_GE(res.best_energy, 0.0);
}

TEST(StandardSweepTest, ConfigValidation) {
  Fixture f;
  Rng rng(8);
  const auto link = channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
  StandardSweepConfig cfg;
  // A 3×4 TX grid does not split into the 2×2 sectors (3 % 2 != 0).
  const Codebook odd_tx =
      Codebook::angular_grid(f.tx, 3, 4, f.sector.az_min, f.sector.az_max,
                             f.sector.el_min, f.sector.el_max);
  EXPECT_THROW(
      run_standard_sweep(link, f.tx, f.rx, odd_tx, f.rx_cb, cfg, rng),
      precondition_error);
  StandardSweepConfig bad;
  bad.gamma = 0.0;
  EXPECT_THROW(
      run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb, bad, rng),
      precondition_error);
}

}  // namespace
}  // namespace mmw::core
