// Multi-cell downlink: several base stations serve their own users on the
// same band. Each BS-UE pair aligns its beams independently with the
// proposed scheme; the narrow beams then provide spatial isolation, so the
// post-alignment SINR stays high even with co-channel interferers — the
// cellular deployment the paper targets (Fig. 1).
//
//   ./examples/multi_cell [n_cells] [seed]
//
// n_cells is 1 to 64 (default 4), seed any 64-bit integer (default 31); any
// other command line exits with status 2.
#include <cmath>
#include <cstdio>
#include <vector>

#include "antenna/codebook.h"
#include "args.h"
#include "channel/models.h"
#include "core/oracle.h"
#include "core/strategy.h"
#include "mac/session.h"

int main(int argc, char** argv) {
  using namespace mmw;
  bench::Args args(argc, argv);
  const int n_cells =
      static_cast<int>(args.positional_u64(0, "n_cells", 4, 1, 64));
  const std::uint64_t seed = args.positional_u64(1, "seed", 31);
  args.reject_unknown();
  randgen::Rng rng(seed);

  const auto bs = antenna::ArrayGeometry::upa(8, 8);
  const auto ue = antenna::ArrayGeometry::upa(4, 4);
  const channel::AngularSector sector;
  const auto bs_cb = antenna::Codebook::angular_grid(
      bs, 8, 8, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const auto ue_cb = antenna::Codebook::angular_grid(
      ue, 4, 4, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const real gamma = 1.0;       // serving-link pre-BF SNR
  const real inr_scale = 0.25;  // interferers arrive weaker (distance)

  // Serving links and the cross links from every other BS to each UE.
  std::vector<channel::Link> serving;
  std::vector<std::vector<channel::Link>> cross(n_cells);
  for (int c = 0; c < n_cells; ++c)
    serving.push_back(channel::make_nyc_multipath_link(bs, ue, rng));
  for (int c = 0; c < n_cells; ++c)
    for (int o = 0; o < n_cells; ++o)
      if (o != c)
        cross[c].push_back(channel::make_nyc_multipath_link(bs, ue, rng));

  // Each cell aligns independently at a 10% search rate.
  std::vector<index_t> tx_beam(n_cells), rx_beam(n_cells);
  const index_t budget = bs_cb.size() * ue_cb.size() / 10;
  for (int c = 0; c < n_cells; ++c) {
    randgen::Rng run_rng = rng.fork();
    mac::Session session(serving[c], bs_cb, ue_cb, gamma, budget, run_rng, 8);
    core::ProposedAlignment().run(session);
    const auto best = session.best_measured();
    tx_beam[c] = best->tx_beam;
    rx_beam[c] = best->rx_beam;
  }

  // Post-alignment SINR: every other cell's BS transmits on its own beam;
  // the UE's RX beam spatially filters the interference.
  std::printf(
      "%d co-channel cells, 10%% search rate each, interferer power %.0f%% "
      "of serving\n",
      n_cells, 100.0 * inr_scale);
  std::printf("cell\tsnr_dB\tsinr_dB\tisolation_dB\n");
  real snr_acc = 0.0, sinr_acc = 0.0;
  for (int c = 0; c < n_cells; ++c) {
    const real signal =
        gamma * serving[c].mean_pair_gain(bs_cb.codeword(tx_beam[c]),
                                          ue_cb.codeword(rx_beam[c]));
    real interference = 0.0;
    int idx = 0;
    for (int o = 0; o < n_cells; ++o) {
      if (o == c) continue;
      interference += inr_scale * gamma *
                      cross[c][idx].mean_pair_gain(
                          bs_cb.codeword(tx_beam[o]),
                          ue_cb.codeword(rx_beam[c]));
      ++idx;
    }
    const real snr_db = 10.0 * std::log10(signal);
    const real sinr_db = 10.0 * std::log10(signal / (1.0 + interference));
    snr_acc += snr_db;
    sinr_acc += sinr_db;
    std::printf("%d\t%.1f\t%.1f\t%.1f\n", c, snr_db, sinr_db,
                snr_db - sinr_db);
  }
  std::printf(
      "\nmean SNR %.1f dB vs mean SINR %.1f dB: spatial filtering by the "
      "narrow aligned\nbeams limits the co-channel penalty to %.1f dB on "
      "average.\n",
      snr_acc / n_cells, sinr_acc / n_cells,
      (snr_acc - sinr_acc) / n_cells);
  return 0;
}
