#include "fault/fault.h"

#include <cmath>

namespace mmw::fault {

namespace {

void require_probability(real p, const char* what) {
  MMW_REQUIRE_MSG(p >= 0.0 && p <= 1.0, what);
}

}  // namespace

FaultPlan FaultPlan::draw(const FaultConfig& config, index_t budget,
                          index_t n_paths, randgen::Rng& rng) {
  require_probability(config.blockage_probability,
                      "blockage probability must be in [0, 1]");
  require_probability(config.outlier_probability,
                      "outlier probability must be in [0, 1]");
  require_probability(config.drop_probability,
                      "drop probability must be in [0, 1]");
  require_probability(config.solver_stress_probability,
                      "solver stress probability must be in [0, 1]");
  MMW_REQUIRE_MSG(budget > 0, "fault plan needs a positive budget");
  MMW_REQUIRE_MSG(n_paths > 0, "fault plan needs at least one path");

  FaultPlan plan;

  // Fixed draw order; every coin is flipped unconditionally so the
  // schedule of one fault type never shifts when another is toggled.
  // 1. Blockage event: onset fraction, per-path shadowing, per-path depth.
  const bool blocked = rng.uniform() < config.blockage_probability;
  const real onset_fraction = rng.uniform();
  std::vector<bool> shadowed(n_paths);
  bool any_shadowed = false;
  for (index_t l = 0; l < n_paths; ++l) {
    shadowed[l] = rng.uniform() < config.blockage_path_probability;
    any_shadowed = any_shadowed || shadowed[l];
  }
  std::vector<real> depth_jitter(n_paths);
  for (index_t l = 0; l < n_paths; ++l)
    depth_jitter[l] = rng.uniform(0.5, 1.5);
  if (blocked) {
    plan.blockage_onset_ =
        static_cast<index_t>(onset_fraction * static_cast<real>(budget));
    if (!any_shadowed) shadowed[0] = true;  // a blocker blocks something
    plan.path_power_scale_.assign(n_paths, 1.0);
    for (index_t l = 0; l < n_paths; ++l)
      if (shadowed[l])
        plan.path_power_scale_[l] = std::pow(
            10.0,
            -config.blockage_attenuation_db * depth_jitter[l] / 10.0);
  }

  // 2. Per-slot faults: drop wins over outlier (a lost slot has no energy
  // to corrupt); both coins are always consumed.
  plan.slots_.resize(budget);
  for (index_t i = 0; i < budget; ++i) {
    const bool dropped = rng.uniform() < config.drop_probability;
    const bool outlier = rng.uniform() < config.outlier_probability;
    const real pareto_u = rng.uniform();
    plan.slots_[i].dropped = dropped;
    if (!dropped && outlier)
      plan.slots_[i].energy_scale =
          config.outlier_scale *
          std::pow(1.0 - pareto_u, -1.0 / config.outlier_shape);
  }

  // 3. Forced solver stress: up to two covariance solves per measurement
  // slot (the proposed scheme's estimate + re-estimate) is a safe bound.
  plan.stressed_solves_.resize(2 * budget);
  for (index_t k = 0; k < plan.stressed_solves_.size(); ++k)
    plan.stressed_solves_[k] =
        rng.uniform() < config.solver_stress_probability;

  return plan;
}

FaultPlan FaultPlan::scripted(std::vector<SlotFault> slots,
                              index_t blockage_onset,
                              std::vector<real> path_power_scale,
                              std::vector<bool> stressed_solves) {
  for (const real s : path_power_scale)
    MMW_REQUIRE_MSG(s > 0.0 && s <= 1.0,
                    "path power scale must be in (0, 1]");
  FaultPlan plan;
  plan.slots_ = std::move(slots);
  plan.blockage_onset_ = blockage_onset;
  plan.path_power_scale_ = std::move(path_power_scale);
  plan.stressed_solves_ = std::move(stressed_solves);
  if (plan.blockage_onset_ != kNeverBlocked)
    MMW_REQUIRE_MSG(!plan.path_power_scale_.empty(),
                    "a blocked plan needs per-path power scales");
  return plan;
}

}  // namespace mmw::fault
