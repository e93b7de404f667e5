// Initial cell search in an NYC-style 28 GHz micro-cell (the scenario the
// paper's introduction motivates): a mobile at a random distance from the
// base station must find a beam pair good enough to start communicating.
//
// The physical layer chain is simulated end to end: LOS/NLOS/outage state,
// empirical path loss, link budget → pre-beamforming SNR γ, then beam
// alignment over the NYC multipath cluster channel, and finally a Shannon
// rate estimate with the selected beams.
//
//   ./examples/cell_search [n_mobiles] [seed]
//
// n_mobiles is 1 to 1,000 (default 8), seed any 64-bit integer (default
// 2016); any other command line exits with status 2.
#include <cmath>
#include <cstdio>

#include "antenna/codebook.h"
#include "args.h"
#include "channel/models.h"
#include "channel/pathloss.h"
#include "core/oracle.h"
#include "core/strategy.h"
#include "mac/session.h"

int main(int argc, char** argv) {
  using namespace mmw;
  bench::Args args(argc, argv);
  const int n_mobiles =
      static_cast<int>(args.positional_u64(0, "n_mobiles", 8, 1, 1'000));
  const std::uint64_t seed = args.positional_u64(1, "seed", 2016);
  args.reject_unknown();
  randgen::Rng rng(seed);

  const auto bs_array = antenna::ArrayGeometry::upa(8, 8);   // base station
  const auto ue_array = antenna::ArrayGeometry::upa(4, 4);   // handset
  const channel::AngularSector sector;
  const auto bs_codebook = antenna::Codebook::angular_grid(
      bs_array, 8, 8, sector.az_min, sector.az_max, sector.el_min,
      sector.el_max);
  const auto ue_codebook = antenna::Codebook::angular_grid(
      ue_array, 4, 4, sector.az_min, sector.az_max, sector.el_min,
      sector.el_max);
  const auto pl_params = channel::NycPathLossParams::nyc_28ghz();

  std::printf(
      "28 GHz micro-cell: BS 8x8 UPA (downlink TX), UE 4x4 UPA, 1 GHz "
      "bandwidth, 30 dBm TX power\n");
  std::printf(
      "dist_m\tstate\tPL_dB\tsnr_dB\tsearch%%\tloss_dB\trate_Gbps\n");

  for (int m = 0; m < n_mobiles; ++m) {
    const real distance = rng.uniform(20.0, 200.0);
    const channel::LinkState state =
        channel::sample_link_state(pl_params, distance, rng);
    if (state == channel::LinkState::kOutage) {
      std::printf("%.0f\toutage\t-\t-\t-\t-\t0\n", distance);
      continue;
    }
    const real pl_db =
        channel::nyc_path_loss_db(pl_params, state, distance, rng);
    channel::LinkBudget budget;
    budget.path_loss_db = pl_db;
    const real gamma = budget.snr_linear();

    // Downlink: base station transmits, handset receives. The cluster
    // channel is drawn for this geometry (BS side = TX).
    const channel::Link link =
        channel::make_nyc_multipath_link(bs_array, ue_array, rng);
    const core::PairGainOracle oracle(link, bs_codebook, ue_codebook);

    const index_t pairs = bs_codebook.size() * ue_codebook.size();
    const index_t train_budget = pairs / 10;  // 10% search rate
    mac::Session session(link, bs_codebook, ue_codebook, gamma, train_budget,
                         rng, 8);
    core::ProposedAlignment().run(session);
    const auto best = session.best_measured();
    const real loss_db = oracle.loss_db(best->tx_beam, best->rx_beam);

    // Post-beamforming SNR and single-stream Shannon rate.
    const real post_snr =
        gamma * oracle.gain(best->tx_beam, best->rx_beam);
    const real rate_gbps =
        budget.bandwidth_hz * std::log2(1.0 + post_snr) / 1e9;

    std::printf("%.0f\t%s\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\n", distance,
                state == channel::LinkState::kLos ? "LOS" : "NLOS", pl_db,
                budget.snr_db(),
                100.0 * session.measurements_taken() / pairs, loss_db,
                rate_gbps);
  }
  return 0;
}
