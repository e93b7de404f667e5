#include "channel/models.h"

#include <algorithm>
#include <cmath>

namespace mmw::channel {

namespace {

antenna::Direction random_direction(randgen::Rng& rng,
                                    const AngularSector& s) {
  return {rng.uniform(s.az_min, s.az_max), rng.uniform(s.el_min, s.el_max)};
}

real clamp_to(real x, real lo, real hi) { return std::clamp(x, lo, hi); }

}  // namespace

Link make_single_path_link(const antenna::ArrayGeometry& tx,
                           const antenna::ArrayGeometry& rx,
                           randgen::Rng& rng, const AngularSector& sector) {
  std::vector<Path> paths(1);
  paths[0].power = 1.0;
  paths[0].aod = random_direction(rng, sector);
  paths[0].aoa = random_direction(rng, sector);
  return Link(tx, rx, std::move(paths));
}

Link make_nyc_multipath_link(const antenna::ArrayGeometry& tx,
                             const antenna::ArrayGeometry& rx,
                             randgen::Rng& rng, const AngularSector& s) {
  constexpr NycClusterParams params;
  const index_t k = std::max<index_t>(
      1, static_cast<index_t>(rng.poisson(params.lambda_clusters)));

  // Unnormalized heavy-tailed cluster powers (Akdeniz eq. for γ'_k).
  std::vector<real> gamma(k);
  real total = 0.0;
  for (index_t c = 0; c < k; ++c) {
    const real u = rng.uniform(1e-12, 1.0);
    const real z = rng.normal(0.0, params.zeta_db);
    gamma[c] = std::pow(u, params.r_tau - 1.0) * std::pow(10.0, -0.06 * z);
    total += gamma[c];
  }

  std::vector<Path> paths;
  paths.reserve(k * params.subpaths_per_cluster);
  for (index_t c = 0; c < k; ++c) {
    const real cluster_power = gamma[c] / total;
    const antenna::Direction aod_center = random_direction(rng, s);
    const antenna::Direction aoa_center = random_direction(rng, s);
    const real subpath_power =
        cluster_power / static_cast<real>(params.subpaths_per_cluster);
    for (index_t l = 0; l < params.subpaths_per_cluster; ++l) {
      Path p;
      p.power = subpath_power;
      p.aod = {clamp_to(aod_center.azimuth +
                            rng.normal(0.0, params.aod_az_spread_rad),
                        s.az_min, s.az_max),
               clamp_to(aod_center.elevation +
                            rng.normal(0.0, params.aod_el_spread_rad),
                        s.el_min, s.el_max)};
      p.aoa = {clamp_to(aoa_center.azimuth +
                            rng.normal(0.0, params.aoa_az_spread_rad),
                        s.az_min, s.az_max),
               clamp_to(aoa_center.elevation +
                            rng.normal(0.0, params.aoa_el_spread_rad),
                        s.el_min, s.el_max)};
      paths.push_back(p);
    }
  }
  return Link(tx, rx, std::move(paths));
}

Link make_fixed_paths_link(const antenna::ArrayGeometry& tx,
                           const antenna::ArrayGeometry& rx,
                           std::vector<Path> paths) {
  return Link(tx, rx, std::move(paths));
}

}  // namespace mmw::channel
