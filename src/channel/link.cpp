#include "channel/link.h"

#include <algorithm>
#include <cmath>

#include "antenna/steering.h"

namespace mmw::channel {

using linalg::Matrix;
using linalg::Vector;

Link::Link(const antenna::ArrayGeometry& tx, const antenna::ArrayGeometry& rx,
           std::vector<Path> paths)
    : m_(tx.size()), n_(rx.size()), paths_(std::move(paths)) {
  MMW_REQUIRE_MSG(!paths_.empty(), "a link needs at least one path");
  tx_steering_.reserve(paths_.size());
  rx_steering_.reserve(paths_.size());
  for (const Path& p : paths_) {
    MMW_REQUIRE_MSG(p.power >= 0.0, "path power must be non-negative");
    tx_steering_.push_back(antenna::steering_vector(tx, p.aod));
    rx_steering_.push_back(antenna::steering_vector(rx, p.aoa));
  }
  amplitude_scale_ = std::sqrt(static_cast<real>(n_ * m_));
}

real Link::total_power() const {
  real acc = 0.0;
  for (const Path& p : paths_) acc += p.power;
  return acc;
}

Link Link::with_scaled_path_powers(std::span<const real> scale) const {
  MMW_REQUIRE_MSG(scale.size() == paths_.size(),
                  "need one power scale per path");
  Link scaled = *this;
  for (index_t l = 0; l < paths_.size(); ++l) {
    MMW_REQUIRE_MSG(scale[l] >= 0.0, "power scale must be non-negative");
    scaled.paths_[l].power *= scale[l];
  }
  return scaled;
}

Matrix Link::rx_covariance() const {
  Matrix q(n_, n_);
  const real nm = static_cast<real>(n_ * m_);
  for (index_t l = 0; l < paths_.size(); ++l)
    q += cx{nm * paths_[l].power, 0.0} *
         Matrix::outer(rx_steering_[l], rx_steering_[l]);
  return q;
}

Matrix Link::rx_covariance_for_beam(const Vector& u) const {
  MMW_REQUIRE(u.size() == m_);
  Matrix q(n_, n_);
  const real nm = static_cast<real>(n_ * m_);
  for (index_t l = 0; l < paths_.size(); ++l) {
    const real coupling = std::norm(linalg::dot(tx_steering_[l], u));
    q += cx{nm * paths_[l].power * coupling, 0.0} *
         Matrix::outer(rx_steering_[l], rx_steering_[l]);
  }
  return q;
}

real Link::mean_pair_gain(const Vector& u, const Vector& v) const {
  MMW_REQUIRE(u.size() == m_ && v.size() == n_);
  const real nm = static_cast<real>(n_ * m_);
  real acc = 0.0;
  for (index_t l = 0; l < paths_.size(); ++l) {
    acc += paths_[l].power * std::norm(linalg::dot(rx_steering_[l], v)) *
           std::norm(linalg::dot(tx_steering_[l], u));
  }
  return nm * acc;
}

Matrix Link::draw_channel(randgen::Rng& rng) const {
  Matrix h(n_, m_);
  for (index_t l = 0; l < paths_.size(); ++l) {
    const cx g = rng.complex_normal(paths_[l].power) *
                 cx{amplitude_scale_, 0.0};
    // h += g · a_rx a_txᴴ
    const Vector& ar = rx_steering_[l];
    const Vector& at = tx_steering_[l];
    for (index_t i = 0; i < n_; ++i) {
      const cx gi = g * ar[i];
      for (index_t j = 0; j < m_; ++j) h(i, j) += gi * std::conj(at[j]);
    }
  }
  return h;
}

Vector Link::draw_effective_channel(const Vector& u, randgen::Rng& rng) const {
  Vector h(n_);
  draw_effective_channel_into(u, rng, h);
  return h;
}

void Link::draw_effective_channel_into(const Vector& u, randgen::Rng& rng,
                                       Vector& h) const {
  MMW_REQUIRE(u.size() == m_);
  MMW_REQUIRE(h.size() == n_);
  std::fill(h.begin(), h.end(), cx{0.0, 0.0});
  for (index_t l = 0; l < paths_.size(); ++l) {
    const cx g = rng.complex_normal(paths_[l].power) *
                 cx{amplitude_scale_, 0.0} *
                 linalg::dot(tx_steering_[l], u);
    for (index_t i = 0; i < n_; ++i) h[i] += g * rx_steering_[l][i];
  }
}

}  // namespace mmw::channel
