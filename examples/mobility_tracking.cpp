// Beam tracking under mobility: the channel geometry drifts between epochs
// (the mobile moves, path angles rotate slowly) and the served beam pair
// must be kept good. The paper's motivation for cheap alignment is exactly
// this — "direction finding may need to be performed constantly before
// transmissions".
//
// One link evolves epoch by epoch (channel::LinkEvolution: angular drift at
// vehicular speed) and two trackers (track::make_tracker) keep a pair on
// it: cold_start re-sweeps every pair each epoch; warm_ml spends one verify
// probe per epoch and, on collapse, re-aligns with covariance-ML slots
// warm-started from its carried beam-space prior. Per epoch it prints the
// probes each tracker spent and the SNR loss of its claimed pair against
// the epoch's best pair.
//
//   ./examples/mobility_tracking [epochs] [seed]
//
// epochs is 1 to 10,000 (default 40), seed any 64-bit integer (default 99);
// any other command line exits with status 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "antenna/codebook.h"
#include "args.h"
#include "channel/models.h"
#include "channel/temporal.h"
#include "core/oracle.h"
#include "randgen/keylanes.h"
#include "track/tracker.h"

int main(int argc, char** argv) {
  using namespace mmw;
  bench::Args args(argc, argv);
  const index_t epochs = args.positional_u64(0, "epochs", 40, 1, 10'000);
  const std::uint64_t seed = args.positional_u64(1, "seed", 99);
  args.reject_unknown();
  randgen::Rng rng(seed);

  const auto tx_array = antenna::ArrayGeometry::upa(4, 4);
  const auto rx_array = antenna::ArrayGeometry::upa(8, 8);
  const channel::AngularSector sector;
  const auto tx_cb = antenna::Codebook::angular_grid(
      tx_array, 4, 4, sector.az_min, sector.az_max, sector.el_min,
      sector.el_max);
  const auto rx_cb = antenna::Codebook::angular_grid(
      rx_array, 8, 8, sector.az_min, sector.az_max, sector.el_min,
      sector.el_max);

  // Initial geometry: one dominant path plus a weak reflection.
  const std::vector<channel::Path> paths = {
      {0.8,
       {rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)},
       {rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)}},
      {0.2,
       {rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3)},
       {rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3)}},
  };
  channel::EvolutionConfig config;
  config.speed_mps = 10.0;  // 5 m per 0.5 s epoch: ~1.1 deg of drift
  channel::LinkEvolution evolution(tx_array, rx_array, paths, config, seed,
                                   randgen::lanes::temporal_lane(0), 0);

  const track::TrackerKind kinds[] = {track::TrackerKind::kColdStart,
                                      track::TrackerKind::kWarmMl};
  std::vector<std::unique_ptr<track::Tracker>> trackers;
  for (const track::TrackerKind kind : kinds)
    trackers.push_back(track::make_tracker(kind));

  std::printf("tracking over %zu epochs, %.1f deg/epoch AoA/AoD drift\n",
              epochs, config.drift_std_rad() * 180 / M_PI);
  std::printf("epoch\tcold_probes\tcold_loss_db\twarm_probes\twarm_loss_db\n");
  index_t total_probes[2] = {0, 0};
  real total_loss_db[2] = {0.0, 0.0};
  for (index_t epoch = 0; epoch < epochs; ++epoch) {
    evolution.seek(epoch);
    const channel::Link link = evolution.current();
    const real best = core::best_mean_pair_gain(link, tx_cb, rx_cb);
    std::printf("%zu", epoch);
    for (index_t k = 0; k < trackers.size(); ++k) {
      randgen::Rng step_rng = randgen::Rng::stream(
          seed,
          randgen::lanes::track_measure_lane(static_cast<std::uint64_t>(
              kinds[k])),
          0, epoch);
      track::TrackerContext ctx;
      ctx.link = &link;
      ctx.tx_codebook = &tx_cb;
      ctx.rx_codebook = &rx_cb;
      ctx.gamma = 1.0;
      ctx.fades = 8;
      ctx.rng = &step_rng;
      const track::TrackerReport report = trackers[k]->step(ctx);
      const real claimed =
          link.mean_pair_gain(tx_cb.codeword(report.tx_beam),
                              rx_cb.codeword(report.rx_beam));
      // Cap the loss at 60 dB (a zero-gain claim would otherwise be -inf).
      const real loss_db =
          10.0 * std::log10(best / std::max(claimed, best * 1e-6));
      total_probes[k] += report.probes;
      total_loss_db[k] += loss_db;
      std::printf("\t%zu\t%.2f", report.probes, loss_db);
    }
    std::printf("\n");
  }
  const real n = static_cast<real>(std::max<index_t>(epochs, 1));
  std::printf(
      "\ntotals: cold_start %zu probes, mean loss %.2f dB; warm_ml %zu "
      "probes, mean loss %.2f dB\n",
      total_probes[0], total_loss_db[0] / n, total_probes[1],
      total_loss_db[1] / n);
  std::printf(
      "warm_ml spends %.1fx fewer probes: it re-aligns only once its verify "
      "probe\nreads %.0f dB below the trained energy, so its loss grows with "
      "the drift until then.\n",
      static_cast<real>(total_probes[0]) /
          static_cast<real>(std::max<index_t>(total_probes[1], 1)),
      track::TrackerOptions::collapse_db);
  return 0;
}
