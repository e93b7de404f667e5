#include "phy/capacity.h"

#include <cmath>

#include "linalg/eig.h"

namespace mmw::phy {

using linalg::Matrix;

WaterfillingResult waterfilling_capacity(const Matrix& h, real total_power) {
  MMW_REQUIRE_MSG(!h.empty(), "empty channel matrix");
  MMW_REQUIRE_MSG(total_power > 0.0, "power must be positive");

  const auto svd = linalg::svd(h);
  // Mode gains g_i = σ_i²; usable modes have g_i > 0.
  std::vector<real> gains;
  for (const real s : svd.singular_values) {
    const real g = s * s;
    if (g > 1e-14 * svd.singular_values[0] * svd.singular_values[0])
      gains.push_back(g);
  }
  MMW_REQUIRE_MSG(!gains.empty(), "channel is identically zero");

  // Active-set waterfilling: gains are sorted descending (svd order); try
  // the k strongest modes and find the largest k whose water level keeps
  // every active power non-negative.
  WaterfillingResult result;
  result.mode_powers.assign(svd.singular_values.size(), 0.0);
  for (index_t k = gains.size(); k >= 1; --k) {
    real inv_sum = 0.0;
    for (index_t i = 0; i < k; ++i) inv_sum += 1.0 / gains[i];
    const real level = (total_power + inv_sum) / static_cast<real>(k);
    if (level - 1.0 / gains[k - 1] >= 0.0) {
      result.water_level = level;
      for (index_t i = 0; i < k; ++i) {
        const real p = level - 1.0 / gains[i];
        result.mode_powers[i] = p;
        result.capacity_bps_hz += std::log2(1.0 + p * gains[i]);
      }
      return result;
    }
  }
  throw convergence_error("waterfilling: no feasible active set");
}

real equal_power_capacity(const Matrix& h, real total_power) {
  MMW_REQUIRE_MSG(!h.empty(), "empty channel matrix");
  MMW_REQUIRE_MSG(total_power > 0.0, "power must be positive");
  const auto svd = linalg::svd(h);
  const real per_mode =
      total_power / static_cast<real>(svd.singular_values.size());
  real c = 0.0;
  for (const real s : svd.singular_values)
    c += std::log2(1.0 + per_mode * s * s);
  return c;
}

real optimal_beamforming_capacity(const Matrix& h, real total_power) {
  MMW_REQUIRE_MSG(!h.empty(), "empty channel matrix");
  MMW_REQUIRE_MSG(total_power > 0.0, "power must be positive");
  const auto svd = linalg::svd(h);
  const real smax = svd.singular_values[0];
  return std::log2(1.0 + total_power * smax * smax);
}

}  // namespace mmw::phy
