// IEEE 802.15.3c-style two-stage codebook beamforming protocol — the
// "existing standard" rotational training the paper positions its scheme
// against ([4], [9], [10]).
//
// Stage 1 (sector-level sweep): both ends form WIDE beams by activating a
// small subarray and steering it at the centre of each sector (a block of
// the fine beam grid); every TX-sector × RX-sector pair is measured.
// Stage 2 (beam-level sweep): within the winning sector pair, every fine
// TX beam × fine RX beam is measured; the best fine pair is selected.
//
// Unlike the strategies in core/strategy.h this protocol measures
// off-codebook (sector) patterns, so it runs against the Link directly and
// reports its own measurement count; graded with the same PairGainOracle.
#pragma once

#include "antenna/codebook.h"
#include "channel/link.h"
#include "randgen/rng.h"

namespace mmw::core {

struct StandardSweepConfig {
  /// Sector grid at each end (sectors_x × sectors_y blocks of the fine
  /// beam grid). Grid dimensions must be divisible by the sector counts.
  static constexpr index_t tx_sectors_x = 2, tx_sectors_y = 2;
  static constexpr index_t rx_sectors_x = 2, rx_sectors_y = 2;

  /// Subarray used to form the wide sector beams (elements per axis).
  static constexpr index_t sector_subarray = 2;

  real gamma = 1.0;               ///< pre-beamforming SNR (linear)
  index_t fades_per_measurement = 8;
};

struct StandardSweepResult {
  index_t tx_beam = 0;            ///< selected fine TX codeword
  index_t rx_beam = 0;            ///< selected fine RX codeword
  index_t sector_measurements = 0;
  index_t beam_measurements = 0;
  real best_energy = 0.0;

  index_t total_measurements() const {
    return sector_measurements + beam_measurements;
  }
};

/// Runs the two-stage sweep over a realized link.
///
/// Preconditions: codebook grids divisible by the sector counts; codebook
/// dimensions match the arrays; gamma > 0.
StandardSweepResult run_standard_sweep(const channel::Link& link,
                                       const antenna::ArrayGeometry& tx_array,
                                       const antenna::ArrayGeometry& rx_array,
                                       const antenna::Codebook& tx_codebook,
                                       const antenna::Codebook& rx_codebook,
                                       const StandardSweepConfig& config,
                                       randgen::Rng& rng);

}  // namespace mmw::core
