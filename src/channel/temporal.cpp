#include "channel/temporal.h"

#include <algorithm>
#include <cmath>

namespace mmw::channel {

real EvolutionConfig::shadow_correlation() const {
  if (shadow_coherence_m <= 0.0) return 0.0;
  return std::exp(-meters_per_epoch() / shadow_coherence_m);
}

real EvolutionConfig::onset_probability() const {
  const real p =
      blockage_onset_per_epoch + blockage_onset_per_meter * meters_per_epoch();
  return std::clamp(p, 0.0, 1.0);
}

LinkEvolution::LinkEvolution(antenna::ArrayGeometry tx,
                             antenna::ArrayGeometry rx,
                             std::vector<Path> base_paths,
                             EvolutionConfig config, std::uint64_t seed,
                             std::uint64_t key_a, std::uint64_t key_b)
    : tx_(std::move(tx)),
      rx_(std::move(rx)),
      base_(std::move(base_paths)),
      config_(config),
      seed_(seed),
      key_a_(key_a),
      key_b_(key_b) {
  MMW_REQUIRE_MSG(!base_.empty(), "evolution needs at least one path");
  MMW_REQUIRE(config.epoch_seconds >= 0.0 && config.speed_mps >= 0.0);
  MMW_REQUIRE(config.drift_rad_per_meter >= 0.0);
  MMW_REQUIRE(config.shadow_sigma_db >= 0.0);
  MMW_REQUIRE(config.blockage_clear_probability >= 0.0 &&
              config.blockage_clear_probability <= 1.0);
  MMW_REQUIRE(config.blockage_onset_per_epoch >= 0.0 &&
              config.blockage_onset_per_epoch <= 1.0);
  MMW_REQUIRE(config.blockage_onset_per_meter >= 0.0);
  MMW_REQUIRE_MSG(config.blockage_gain > 0.0 && config.blockage_gain <= 1.0,
                  "blockage gain must be in (0, 1]");
  for (index_t l = 1; l < base_.size(); ++l)
    if (base_[l].power > base_[dominant_].power) dominant_ = l;
  const index_t n = base_.size();
  daoa_az_.assign(n, 0.0);
  daoa_el_.assign(n, 0.0);
  daod_az_.assign(n, 0.0);
  daod_el_.assign(n, 0.0);
  shadow_db_.assign(n, 0.0);
}

void LinkEvolution::step(index_t epoch) {
  randgen::Rng rng = randgen::Rng::stream(seed_, key_a_, key_b_,
                                          static_cast<std::uint64_t>(epoch));
  const real drift = config_.drift_std_rad();
  const real rho = config_.shadow_correlation();
  const real innovation =
      config_.shadow_sigma_db * std::sqrt(std::max(0.0, 1.0 - rho * rho));
  // Fixed draw order per epoch — per path: AoA az/el, AoD az/el, shadow;
  // then one uniform for the blockage Markov transition. The order is part
  // of the determinism contract (replay / random-access equality).
  for (index_t l = 0; l < base_.size(); ++l) {
    daoa_az_[l] += drift * rng.normal();
    daoa_el_[l] += drift * rng.normal();
    daod_az_[l] += drift * rng.normal();
    daod_el_[l] += drift * rng.normal();
    shadow_db_[l] = rho * shadow_db_[l] + innovation * rng.normal();
  }
  const real u = rng.uniform();
  if (blocked_)
    blocked_ = !(u < config_.blockage_clear_probability);
  else
    blocked_ = u < config_.onset_probability();
}

void LinkEvolution::seek(index_t epoch) {
  if (epoch < epoch_) {
    // Backward seek: replay from the base state. Identical arithmetic to
    // the original forward pass, so the result is bit-identical.
    std::fill(daoa_az_.begin(), daoa_az_.end(), 0.0);
    std::fill(daoa_el_.begin(), daoa_el_.end(), 0.0);
    std::fill(daod_az_.begin(), daod_az_.end(), 0.0);
    std::fill(daod_el_.begin(), daod_el_.end(), 0.0);
    std::fill(shadow_db_.begin(), shadow_db_.end(), 0.0);
    blocked_ = false;
    epoch_ = 0;
  }
  for (index_t e = epoch_ + 1; e <= epoch; ++e) step(e);
  epoch_ = epoch;
}

Link LinkEvolution::current() const {
  std::vector<Path> paths;
  paths.reserve(base_.size());
  for (index_t l = 0; l < base_.size(); ++l) {
    Path p = base_[l];
    p.aoa.azimuth += daoa_az_[l];
    p.aoa.elevation += daoa_el_[l];
    p.aod.azimuth += daod_az_[l];
    p.aod.elevation += daod_el_[l];
    real scale = std::pow(10.0, shadow_db_[l] / 10.0);
    if (blocked_ && l == dominant_) scale *= config_.blockage_gain;
    p.power *= scale;
    paths.push_back(p);
  }
  return Link(tx_, rx_, std::move(paths));
}

Link blocked_link(const Link& link, std::span<const real> per_path_gain) {
  MMW_REQUIRE_MSG(per_path_gain.size() == link.paths().size(),
                  "need one blockage gain per path");
  for (const real g : per_path_gain)
    MMW_REQUIRE_MSG(g > 0.0 && g <= 1.0,
                    "blockage gain must be in (0, 1]");
  return link.with_scaled_path_powers(per_path_gain);
}

}  // namespace mmw::channel
