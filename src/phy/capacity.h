// Link-capacity evaluation: Shannon rates for the beamformed link and the
// full-MIMO upper bounds (waterfilling / equal power) it is compared to.
// Used to quantify how much of a sparse mmWave channel's capacity a single
// analog beam pair captures (cf. the paper's related work [14] on
// diversity/multiplexing with multiple arrays).
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace mmw::phy {

/// Waterfilling power allocation over the eigenmodes of H with unit noise:
/// maximizes Σ log2(1 + p_i σ_i²) s.t. Σ p_i = total_power, p_i ≥ 0.
struct WaterfillingResult {
  std::vector<real> mode_powers;  ///< per singular mode, descending σ order
  real water_level = 0.0;
  real capacity_bps_hz = 0.0;
};

/// Preconditions: non-empty H, total_power > 0.
WaterfillingResult waterfilling_capacity(const linalg::Matrix& h,
                                         real total_power);

/// Equal-power spatial multiplexing (no CSIT): C = Σ log2(1 + P/s·σ_i²)
/// over the s = min(N,M) modes.
real equal_power_capacity(const linalg::Matrix& h, real total_power);

/// The best possible rank-one rate: log2(1 + P·σ_max²) (optimal
/// unconstrained transmit/receive beamformers).
real optimal_beamforming_capacity(const linalg::Matrix& h, real total_power);

}  // namespace mmw::phy
