// Extension E5: hybrid analog/digital precoding — spectral efficiency of
// n_rf-chain hybrid precoders (OMP over a steering dictionary) between the
// pure-analog single-beam architecture the paper assumes and the
// fully-digital upper bound.
//
// Expected shape: on sparse channels the hybrid curve saturates at the
// digital bound with only a few RF chains (≈ #paths), while one analog
// beam leaves the multiplexing gain on the table.
#include <cstdio>

#include "antenna/steering.h"
#include "channel/models.h"
#include "fig_common.h"
#include "phy/capacity.h"
#include "phy/hybrid.h"

int main(int argc, char** argv) {
  mmw::bench::Args args(argc, argv);
  mmw::bench::BenchRun run("ext_hybrid_beamforming", args);
  args.reject_unknown();
  using namespace mmw;
  using antenna::ArrayGeometry;
  using linalg::Matrix;
  using linalg::Vector;

  run.print_header("Extension E5", "hybrid precoding vs RF chains");

  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(8, 8);
  const channel::AngularSector sector;
  std::vector<Vector> dict;
  for (index_t ia = 0; ia < 9; ++ia)
    for (index_t ie = 0; ie < 5; ++ie)
      dict.push_back(antenna::steering_vector(
          tx, {sector.az_min + (sector.az_max - sector.az_min) * ia / 8.0,
               sector.el_min + (sector.el_max - sector.el_min) * ie / 4.0}));

  const real power = 10.0;  // 10 dB total SNR
  const int trials = 20;
  const index_t n_streams = 2;

  for (const index_t paths : {index_t{2}, index_t{4}, index_t{6}}) {
    randgen::Rng rng(paths);
    real analog = 0.0, digital = 0.0;
    std::map<index_t, real> hybrid;
    const std::vector<index_t> rf_counts{2, 3, 4, 6, 8};
    for (int t = 0; t < trials; ++t) {
      std::vector<channel::Path> ps;
      for (index_t p = 0; p < paths; ++p)
        ps.push_back({1.0 / static_cast<real>(paths),
                      {rng.uniform(sector.az_min, sector.az_max),
                       rng.uniform(sector.el_min, sector.el_max)},
                      {rng.uniform(sector.az_min, sector.az_max),
                       rng.uniform(sector.el_min, sector.el_max)}});
      const Matrix h =
          channel::make_fixed_paths_link(tx, rx, std::move(ps))
              .draw_channel(rng);
      analog += phy::optimal_beamforming_capacity(h, power);
      digital += phy::precoded_spectral_efficiency(
          h, phy::optimal_digital_precoder(h, n_streams), power);
      for (const index_t n_rf : rf_counts) {
        const auto res =
            phy::design_hybrid_precoder(h, n_streams, n_rf, dict);
        hybrid[n_rf] += phy::precoded_spectral_efficiency(
            h, res.f_rf * res.f_bb, power);
      }
    }
    std::printf("%zu-path channel (2 streams, 10 dB, %d trials)\n", paths,
                trials);
    std::printf("architecture\tbit/s/Hz\n");
    std::printf("analog_1beam\t%.3f\n", analog / trials);
    for (const index_t n_rf : rf_counts)
      std::printf("hybrid_%zu_rf\t%.3f\n", n_rf, hybrid[n_rf] / trials);
    std::printf("digital\t%.3f\n\n", digital / trials);
  }
  run.finish();
  return 0;
}
