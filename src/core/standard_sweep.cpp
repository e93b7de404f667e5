#include "core/standard_sweep.h"

#include <cmath>

#include "antenna/steering.h"

namespace mmw::core {

using antenna::ArrayGeometry;
using antenna::Codebook;
using linalg::Vector;

namespace {

/// One matched-filter energy measurement for arbitrary weight vectors,
/// averaged over the configured fades (same chain as mac::Session but not
/// restricted to codebook entries).
real measure_energy(const channel::Link& link, const Vector& u,
                    const Vector& v, const StandardSweepConfig& cfg,
                    randgen::Rng& rng) {
  real energy = 0.0;
  for (index_t k = 0; k < cfg.fades_per_measurement; ++k) {
    const Vector h = link.draw_effective_channel(u, rng);
    const cx z = linalg::dot(v, h) + rng.complex_normal(1.0 / cfg.gamma);
    energy += std::norm(z);
  }
  return energy / static_cast<real>(cfg.fades_per_measurement);
}

/// Wide sector beam: the fine codeword at the sector's central grid cell,
/// restricted to a small subarray (same pointing direction, much wider
/// main lobe).
Vector sector_beam(const Codebook& fine, const ArrayGeometry& array,
                   index_t sector_x, index_t sector_y, index_t sectors_x,
                   index_t sectors_y, index_t subarray) {
  const index_t block_x = fine.grid_x() / sectors_x;
  const index_t block_y = fine.grid_y() / sectors_y;
  const index_t cx_ = sector_x * block_x + block_x / 2;
  const index_t cy_ = sector_y * block_y + block_y / 2;
  const Vector& center = fine.codeword(cx_ * fine.grid_y() + cy_);
  return antenna::subarray_restriction(array, center,
                                       std::min(subarray, array.grid_x()),
                                       std::min(subarray, array.grid_y()));
}

}  // namespace

StandardSweepResult run_standard_sweep(const channel::Link& link,
                                       const ArrayGeometry& tx_array,
                                       const ArrayGeometry& rx_array,
                                       const Codebook& tx_codebook,
                                       const Codebook& rx_codebook,
                                       const StandardSweepConfig& cfg,
                                       randgen::Rng& rng) {
  MMW_REQUIRE(cfg.gamma > 0.0);
  MMW_REQUIRE(cfg.fades_per_measurement >= 1);
  MMW_REQUIRE(tx_codebook.codeword(0).size() == link.tx_size());
  MMW_REQUIRE(rx_codebook.codeword(0).size() == link.rx_size());
  MMW_REQUIRE_MSG(tx_codebook.grid_x() % cfg.tx_sectors_x == 0 &&
                      tx_codebook.grid_y() % cfg.tx_sectors_y == 0,
                  "TX grid not divisible into sectors");
  MMW_REQUIRE_MSG(rx_codebook.grid_x() % cfg.rx_sectors_x == 0 &&
                      rx_codebook.grid_y() % cfg.rx_sectors_y == 0,
                  "RX grid not divisible into sectors");

  StandardSweepResult result;

  // --- Stage 1: sector-level sweep. ------------------------------------
  index_t best_tx_sector = 0, best_rx_sector = 0;
  real best_sector_energy = -1.0;
  for (index_t ts = 0; ts < cfg.tx_sectors_x * cfg.tx_sectors_y; ++ts) {
    const Vector tx_wide =
        sector_beam(tx_codebook, tx_array, ts / cfg.tx_sectors_y,
                    ts % cfg.tx_sectors_y, cfg.tx_sectors_x,
                    cfg.tx_sectors_y, cfg.sector_subarray);
    for (index_t rs = 0; rs < cfg.rx_sectors_x * cfg.rx_sectors_y; ++rs) {
      const Vector rx_wide =
          sector_beam(rx_codebook, rx_array, rs / cfg.rx_sectors_y,
                      rs % cfg.rx_sectors_y, cfg.rx_sectors_x,
                      cfg.rx_sectors_y, cfg.sector_subarray);
      const real e = measure_energy(link, tx_wide, rx_wide, cfg, rng);
      ++result.sector_measurements;
      if (e > best_sector_energy) {
        best_sector_energy = e;
        best_tx_sector = ts;
        best_rx_sector = rs;
      }
    }
  }

  // --- Stage 2: beam-level sweep inside the winning sectors. -----------
  const index_t tbx = tx_codebook.grid_x() / cfg.tx_sectors_x;
  const index_t tby = tx_codebook.grid_y() / cfg.tx_sectors_y;
  const index_t rbx = rx_codebook.grid_x() / cfg.rx_sectors_x;
  const index_t rby = rx_codebook.grid_y() / cfg.rx_sectors_y;
  const index_t tx0 = (best_tx_sector / cfg.tx_sectors_y) * tbx;
  const index_t ty0 = (best_tx_sector % cfg.tx_sectors_y) * tby;
  const index_t rx0 = (best_rx_sector / cfg.rx_sectors_y) * rbx;
  const index_t ry0 = (best_rx_sector % cfg.rx_sectors_y) * rby;

  real best_energy = -1.0;
  for (index_t tx = tx0; tx < tx0 + tbx; ++tx) {
    for (index_t ty = ty0; ty < ty0 + tby; ++ty) {
      const index_t t = tx * tx_codebook.grid_y() + ty;
      for (index_t rx = rx0; rx < rx0 + rbx; ++rx) {
        for (index_t ry = ry0; ry < ry0 + rby; ++ry) {
          const index_t r = rx * rx_codebook.grid_y() + ry;
          const real e = measure_energy(link, tx_codebook.codeword(t),
                                        rx_codebook.codeword(r), cfg, rng);
          ++result.beam_measurements;
          if (e > best_energy) {
            best_energy = e;
            result.tx_beam = t;
            result.rx_beam = r;
          }
        }
      }
    }
  }
  result.best_energy = best_energy;
  return result;
}

}  // namespace mmw::core
