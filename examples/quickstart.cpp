// Quickstart: align a 16-element base station with a 64-element mobile over
// a single-path mmWave channel using the learning-based scheme, measuring
// only 10% of the beam pairs, and compare against the true optimum.
//
//   ./examples/quickstart [seed]
//
// seed is any 64-bit integer (default 7); any other command line exits
// with status 2.
#include <cstdio>

#include "antenna/codebook.h"
#include "args.h"
#include "channel/models.h"
#include "core/oracle.h"
#include "core/strategy.h"
#include "mac/session.h"

int main(int argc, char** argv) {
  using namespace mmw;
  bench::Args args(argc, argv);
  const std::uint64_t seed = args.positional_u64(0, "seed", 7);
  args.reject_unknown();
  randgen::Rng rng(seed);

  // 1. Arrays: the paper's setup — TX 4×4 λ/2 UPA, RX 8×8 λ/2 UPA.
  const auto tx_array = antenna::ArrayGeometry::upa(4, 4);
  const auto rx_array = antenna::ArrayGeometry::upa(8, 8);

  // 2. Codebooks: one beam per element over a ±60°×±30° sector.
  const channel::AngularSector sector;
  const auto tx_codebook = antenna::Codebook::angular_grid(
      tx_array, 4, 4, sector.az_min, sector.az_max, sector.el_min,
      sector.el_max);
  const auto rx_codebook = antenna::Codebook::angular_grid(
      rx_array, 8, 8, sector.az_min, sector.az_max, sector.el_min,
      sector.el_max);

  // 3. Channel: one dominant specular path at a random direction.
  const channel::Link link =
      channel::make_single_path_link(tx_array, rx_array, rng, sector);
  std::printf("channel: single path, AoD az=%.1f° el=%.1f°, "
              "AoA az=%.1f° el=%.1f°\n",
              link.paths()[0].aod.azimuth * 180 / M_PI,
              link.paths()[0].aod.elevation * 180 / M_PI,
              link.paths()[0].aoa.azimuth * 180 / M_PI,
              link.paths()[0].aoa.elevation * 180 / M_PI);

  // 4. Train: 10% of the 1024 beam pairs, 0 dB pre-beamforming SNR.
  const index_t budget = tx_codebook.size() * rx_codebook.size() / 10;
  mac::Session session(link, tx_codebook, rx_codebook, /*gamma=*/1.0, budget,
                       rng, /*fades_per_measurement=*/8);
  core::ProposedAlignment().run(session);

  // 5. Grade against the oracle (the simulator knows the true gains).
  const core::PairGainOracle oracle(link, tx_codebook, rx_codebook);
  const auto best = session.best_measured();
  const auto [opt_tx, opt_rx] = oracle.optimal_pair();
  std::printf("measured %zu of %zu beam pairs (%.1f%%)\n",
              session.measurements_taken(),
              tx_codebook.size() * rx_codebook.size(),
              100.0 * session.measurements_taken() /
                  (tx_codebook.size() * rx_codebook.size()));
  std::printf("selected pair: TX beam %zu, RX beam %zu (gain %.1f)\n",
              best->tx_beam, best->rx_beam,
              oracle.gain(best->tx_beam, best->rx_beam));
  std::printf("optimal  pair: TX beam %zu, RX beam %zu (gain %.1f)\n",
              opt_tx, opt_rx, oracle.optimal_gain());
  std::printf("SNR loss vs optimum: %.2f dB\n",
              oracle.loss_db(best->tx_beam, best->rx_beam));
  return 0;
}
