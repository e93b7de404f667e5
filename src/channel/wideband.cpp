#include "channel/wideband.h"

#include <algorithm>
#include <cmath>

namespace mmw::channel {

using linalg::Matrix;
using linalg::Vector;

WidebandLink::WidebandLink(Link link, std::vector<real> delays_s)
    : link_(std::move(link)), delays_(std::move(delays_s)) {
  MMW_REQUIRE_MSG(delays_.size() == link_.paths().size(),
                  "need exactly one delay per path");
  for (const real d : delays_)
    MMW_REQUIRE_MSG(d >= 0.0, "delays must be non-negative");
}

WidebandLink::Realization WidebandLink::draw_realization(
    randgen::Rng& rng) const {
  const real scale =
      std::sqrt(static_cast<real>(link_.tx_size() * link_.rx_size()));
  Realization r;
  r.gains.reserve(delays_.size());
  for (const Path& p : link_.paths())
    r.gains.push_back(rng.complex_normal(p.power) * cx{scale, 0.0});
  return r;
}

cx WidebandLink::pair_response(const Realization& realization,
                               const Vector& u, const Vector& v,
                               real frequency_hz) const {
  MMW_REQUIRE(realization.gains.size() == delays_.size());
  MMW_REQUIRE(u.size() == link_.tx_size() && v.size() == link_.rx_size());
  cx acc{0.0, 0.0};
  for (index_t l = 0; l < delays_.size(); ++l) {
    const real phase = -2.0 * M_PI * frequency_hz * delays_[l];
    acc += realization.gains[l] * cx{std::cos(phase), std::sin(phase)} *
           linalg::dot(v, link_.rx_steering(l)) *
           linalg::dot(link_.tx_steering(l), u);
  }
  return acc;
}

Matrix WidebandLink::frequency_response(const Realization& realization,
                                        real frequency_hz) const {
  MMW_REQUIRE(realization.gains.size() == delays_.size());
  Matrix h(link_.rx_size(), link_.tx_size());
  for (index_t l = 0; l < delays_.size(); ++l) {
    const real phase = -2.0 * M_PI * frequency_hz * delays_[l];
    const cx g = realization.gains[l] * cx{std::cos(phase), std::sin(phase)};
    const Vector& ar = link_.rx_steering(l);
    const Vector& at = link_.tx_steering(l);
    for (index_t i = 0; i < h.rows(); ++i) {
      const cx gi = g * ar[i];
      for (index_t j = 0; j < h.cols(); ++j)
        h(i, j) += gi * std::conj(at[j]);
    }
  }
  return h;
}

namespace {

real weighted_rms_spread(const std::vector<real>& delays,
                         const std::vector<real>& weights) {
  real total = 0.0, mean = 0.0;
  for (index_t l = 0; l < delays.size(); ++l) {
    total += weights[l];
    mean += weights[l] * delays[l];
  }
  if (total <= 0.0) return 0.0;
  mean /= total;
  real var = 0.0;
  for (index_t l = 0; l < delays.size(); ++l)
    var += weights[l] * (delays[l] - mean) * (delays[l] - mean);
  return std::sqrt(var / total);
}

}  // namespace

real WidebandLink::rms_delay_spread_s(const Vector& u,
                                      const Vector& v) const {
  MMW_REQUIRE(u.size() == link_.tx_size() && v.size() == link_.rx_size());
  std::vector<real> weights(delays_.size());
  for (index_t l = 0; l < delays_.size(); ++l)
    weights[l] = link_.paths()[l].power *
                 std::norm(linalg::dot(v, link_.rx_steering(l))) *
                 std::norm(linalg::dot(link_.tx_steering(l), u));
  return weighted_rms_spread(delays_, weights);
}

real WidebandLink::omni_rms_delay_spread_s() const {
  std::vector<real> weights(delays_.size());
  for (index_t l = 0; l < delays_.size(); ++l)
    weights[l] = link_.paths()[l].power;
  return weighted_rms_spread(delays_, weights);
}

WidebandLink make_nyc_wideband_link(const antenna::ArrayGeometry& tx,
                                    const antenna::ArrayGeometry& rx,
                                    randgen::Rng& rng) {
  constexpr WidebandParams params;
  Link link = make_nyc_multipath_link(tx, rx, rng);
  // Paths are cluster-major with a fixed subpath count per cluster (see
  // make_nyc_multipath_link), so cluster boundaries are recoverable.
  const index_t per_cluster = NycClusterParams::subpaths_per_cluster;
  const index_t clusters = link.paths().size() / per_cluster;

  std::vector<real> cluster_delay(clusters);
  for (index_t c = 0; c < clusters; ++c)
    cluster_delay[c] =
        c == 0 ? 0.0 : rng.exponential(params.cluster_delay_scale_s);
  std::sort(cluster_delay.begin(), cluster_delay.end());

  std::vector<real> delays;
  delays.reserve(link.paths().size());
  for (index_t c = 0; c < clusters; ++c)
    for (index_t l = 0; l < per_cluster; ++l)
      delays.push_back(cluster_delay[c] +
                       std::abs(rng.normal(0.0, params.intra_cluster_jitter_s)));
  return WidebandLink(std::move(link), std::move(delays));
}

}  // namespace mmw::channel
