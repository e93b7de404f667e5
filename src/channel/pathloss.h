// Path-loss model for mmWave links: the empirical NYC 28 GHz model of
// Akdeniz et al. (IEEE JSAC 2014), the channel the paper evaluates on.
#pragma once

#include "linalg/common.h"
#include "randgen/rng.h"

namespace mmw::channel {

/// Link state of the Akdeniz NYC model.
enum class LinkState { kLos, kNlos, kOutage };

/// Parameters of the empirical floating-intercept path-loss law
///   PL(d) [dB] = alpha + beta·10·log10(d) + xi,  xi ~ N(0, sigma²),
/// plus the LOS/NLOS/outage probability law
///   p_outage(d) = max(0, 1 − exp(−a_out·d + b_out)),
///   p_los(d)    = (1 − p_outage(d))·exp(−a_los·d).
struct NycPathLossParams {
  real alpha_los;
  real beta_los;
  real sigma_los_db;
  real alpha_nlos;
  real beta_nlos;
  real sigma_nlos_db;
  real a_los;   ///< 1/m
  real a_out;   ///< 1/m
  real b_out;

  /// Fitted values from the 28 GHz New York City measurement campaign.
  static NycPathLossParams nyc_28ghz();
};

/// Samples the link state at the given distance.
LinkState sample_link_state(const NycPathLossParams& params, real distance_m,
                            randgen::Rng& rng);

/// Path loss in dB for a given realized link state, including lognormal
/// shadowing. Outage returns +infinity (no usable link).
real nyc_path_loss_db(const NycPathLossParams& params, LinkState state,
                      real distance_m, randgen::Rng& rng);

/// Link-budget helper mapping a physical deployment onto the pre-beamforming
/// SNR γ = Es/N0 used by the measurement model (paper eq. 15). The radio is
/// fixed (the 28 GHz micro-cell of the examples); the path loss is the
/// link's.
struct LinkBudget {
  static constexpr real tx_power_dbm = 30.0;    ///< base-station TX power
  static constexpr real bandwidth_hz = 1e9;     ///< system bandwidth
  static constexpr real noise_figure_db = 7.0;  ///< receiver noise figure
  real path_loss_db = 100.0;                    ///< realized path loss

  /// Thermal noise floor: −174 dBm/Hz + 10·log10(BW) + NF.
  real noise_power_dbm() const;

  /// Pre-beamforming SNR in dB (element-to-element, no array gain).
  real snr_db() const;

  /// Pre-beamforming SNR as a linear ratio (the paper's γ).
  real snr_linear() const;
};

}  // namespace mmw::channel
