#include "channel/pathloss.h"

#include <cmath>
#include <limits>

namespace mmw::channel {

NycPathLossParams NycPathLossParams::nyc_28ghz() {
  // Akdeniz et al., "Millimeter wave channel modeling and cellular capacity
  // evaluation," IEEE JSAC 32(6), 2014, Table I (28 GHz).
  return {
      .alpha_los = 61.4,
      .beta_los = 2.0,
      .sigma_los_db = 5.8,
      .alpha_nlos = 72.0,
      .beta_nlos = 2.92,
      .sigma_nlos_db = 8.7,
      .a_los = 1.0 / 67.1,
      .a_out = 1.0 / 30.0,
      .b_out = 5.2,
  };
}

LinkState sample_link_state(const NycPathLossParams& params, real distance_m,
                            randgen::Rng& rng) {
  MMW_REQUIRE(distance_m > 0.0);
  const real p_out =
      std::max(0.0, 1.0 - std::exp(-params.a_out * distance_m + params.b_out));
  const real p_los = (1.0 - p_out) * std::exp(-params.a_los * distance_m);
  const real x = rng.uniform();
  if (x < p_out) return LinkState::kOutage;
  if (x < p_out + p_los) return LinkState::kLos;
  return LinkState::kNlos;
}

real nyc_path_loss_db(const NycPathLossParams& params, LinkState state,
                      real distance_m, randgen::Rng& rng) {
  MMW_REQUIRE(distance_m > 0.0);
  switch (state) {
    case LinkState::kLos:
      return params.alpha_los +
             params.beta_los * 10.0 * std::log10(distance_m) +
             rng.normal(0.0, params.sigma_los_db);
    case LinkState::kNlos:
      return params.alpha_nlos +
             params.beta_nlos * 10.0 * std::log10(distance_m) +
             rng.normal(0.0, params.sigma_nlos_db);
    case LinkState::kOutage:
      return std::numeric_limits<real>::infinity();
  }
  throw precondition_error("nyc_path_loss_db: invalid link state");
}

real LinkBudget::noise_power_dbm() const {
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

real LinkBudget::snr_db() const {
  return tx_power_dbm - path_loss_db - noise_power_dbm();
}

real LinkBudget::snr_linear() const { return std::pow(10.0, snr_db() / 10.0); }

}  // namespace mmw::channel
