// Codebook design exploration: beam patterns and quantization loss of the
// two codebook families (angular grid vs DFT) on a uniform planar array.
//
// Prints (a) the beam pattern of the boresight codeword across azimuth,
// (b) the average and worst-case quantization loss when a path falls
// between codebook directions — the numbers that drive codebook-size
// choices for beam alignment.
//
//   ./examples/codebook_design
//
// It takes no arguments; any argument exits with status 2.
#include <cmath>
#include <cstdio>

#include "antenna/codebook.h"
#include "antenna/steering.h"
#include "args.h"
#include "randgen/rng.h"

namespace {

using namespace mmw;

/// Best-codeword gain for a path at `dir`, relative to the full array gain.
real quantization_loss_db(const antenna::ArrayGeometry& array,
                          const antenna::Codebook& cb,
                          const antenna::Direction& dir) {
  const auto a = antenna::steering_vector(array, dir);
  real best = 0.0;
  for (index_t i = 0; i < cb.size(); ++i)
    best = std::max(best, std::norm(linalg::dot(cb.codeword(i), a)));
  return -10.0 * std::log10(std::max(best, 1e-12));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args(argc, argv).reject_unknown();
  const auto array = antenna::ArrayGeometry::upa(8, 8);
  const real az_lim = M_PI / 3, el_lim = M_PI / 6;
  const auto angular = antenna::Codebook::angular_grid(
      array, 8, 8, -az_lim, az_lim, -el_lim, el_lim);
  const auto dft = antenna::Codebook::dft(array);

  // (a) Beam pattern of the codeword nearest boresight, across azimuth.
  const index_t center = angular.best_match(
      antenna::steering_vector(array, {0.0, 0.0}));
  std::printf("boresight codeword pattern (8x8 UPA, angular codebook)\n");
  std::printf("az_deg\tgain_dB\n");
  for (int deg = -60; deg <= 60; deg += 5) {
    const real az = deg * M_PI / 180.0;
    const real g = antenna::beam_gain(array, angular.codeword(center),
                                      {az, 0.0});
    std::printf("%d\t%.1f\n", deg, 10.0 * std::log10(std::max(g, 1e-9)));
  }

  // (b) Quantization loss over random in-sector directions.
  randgen::Rng rng(5);
  real sum_ang = 0.0, worst_ang = 0.0, sum_dft = 0.0, worst_dft = 0.0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    const antenna::Direction dir{rng.uniform(-az_lim, az_lim),
                                 rng.uniform(-el_lim, el_lim)};
    const real la = quantization_loss_db(array, angular, dir);
    const real ld = quantization_loss_db(array, dft, dir);
    sum_ang += la;
    sum_dft += ld;
    worst_ang = std::max(worst_ang, la);
    worst_dft = std::max(worst_dft, ld);
  }
  std::printf("\nquantization loss over %d random in-sector paths\n", trials);
  std::printf("codebook\tmean_dB\tworst_dB\n");
  std::printf("angular_64\t%.2f\t%.2f\n", sum_ang / trials, worst_ang);
  std::printf("dft_64\t%.2f\t%.2f\n", sum_dft / trials, worst_dft);
  std::printf(
      "\nthe angular grid concentrates its codewords on the sector, so its "
      "worst-case\nquantization loss inside the sector is lower than the "
      "full-space DFT's.\n");
  return 0;
}
