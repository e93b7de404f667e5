// Ablation A3: channel rank (number of equal-power specular paths).
//
// The proposed scheme's edge comes from exploiting the low-rank covariance;
// as the channel rank grows, the covariance spreads over more directions
// and the advantage over Random should shrink.
#include <cstdio>

#include "channel/models.h"
#include "fig_common.h"
#include "mac/session.h"
#include "sim/evaluation.h"

int main(int argc, char** argv) {
  mmw::bench::Args args(argc, argv);
  mmw::bench::BenchRun run("ablation_rank_sweep", args);
  args.reject_unknown();
  using namespace mmw;
  using antenna::ArrayGeometry;
  using antenna::Codebook;

  run.print_header("Ablation A3", "channel rank (path count) sweep");

  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(8, 8);
  const channel::AngularSector sector;
  const auto tx_cb = Codebook::angular_grid(
      tx, 4, 4, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const auto rx_cb = Codebook::angular_grid(
      rx, 8, 8, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const index_t budget = 102;  // 10% of T

  std::printf(
      "paths\tproposed_loss_db\trandom_loss_db\tadvantage_db (10%% rate, "
      "20 trials)\n");
  for (const index_t paths : {index_t{1}, index_t{2}, index_t{3}, index_t{4},
                              index_t{6}, index_t{8}}) {
    randgen::Rng rng(31);
    real proposed_loss = 0.0, random_loss = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      std::vector<channel::Path> ps;
      for (index_t p = 0; p < paths; ++p) {
        channel::Path path;
        path.power = 1.0 / static_cast<real>(paths);
        path.aod = {rng.uniform(sector.az_min, sector.az_max),
                    rng.uniform(sector.el_min, sector.el_max)};
        path.aoa = {rng.uniform(sector.az_min, sector.az_max),
                    rng.uniform(sector.el_min, sector.el_max)};
        ps.push_back(path);
      }
      const channel::Link link =
          channel::make_fixed_paths_link(tx, rx, std::move(ps));
      const core::PairGainOracle oracle(link, tx_cb, rx_cb);
      {
        randgen::Rng run = rng.fork();
        mac::Session s(link, tx_cb, rx_cb, 1.0, budget, run, 8);
        core::ProposedAlignment().run(s);
        proposed_loss += sim::loss_after(oracle, s.records(), budget);
      }
      {
        randgen::Rng run = rng.fork();
        mac::Session s(link, tx_cb, rx_cb, 1.0, budget, run, 8);
        core::RandomSearch().run(s);
        random_loss += sim::loss_after(oracle, s.records(), budget);
      }
    }
    std::printf("%zu\t%.3f\t%.3f\t%.3f\n", paths, proposed_loss / trials,
                random_loss / trials,
                (random_loss - proposed_loss) / trials);
  }
  run.finish();
  return 0;
}
