#include "sim/topology.h"

#include <cmath>

namespace mmw::sim {

namespace {

/// Hex sites in spiral ring order: the center, then ring k = 1, 2, … walked
/// with the standard six axial directions. Deterministic and prefix-stable:
/// growing `cells` never moves an existing site.
std::vector<CellSite> hex_sites(index_t cells, real isd) {
  // Axial (q, r) to cartesian for a pointy-top hex lattice.
  const auto to_site = [isd](long long q, long long r) {
    return CellSite{isd * (static_cast<real>(q) + 0.5 * static_cast<real>(r)),
                    isd * (std::sqrt(3.0) / 2.0) * static_cast<real>(r)};
  };
  static constexpr long long kDirs[6][2] = {
      {1, 0}, {0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1}};

  std::vector<CellSite> sites;
  sites.reserve(cells);
  sites.push_back(to_site(0, 0));
  for (long long ring = 1; sites.size() < cells; ++ring) {
    long long q = 0, r = -ring;  // start of the ring (dir 4 scaled by k)
    for (int d = 0; d < 6 && sites.size() < cells; ++d) {
      for (long long step = 0; step < ring && sites.size() < cells; ++step) {
        sites.push_back(to_site(q, r));
        q += kDirs[d][0];
        r += kDirs[d][1];
      }
    }
  }
  return sites;
}

}  // namespace

Topology Topology::build(const TopologyConfig& config) {
  MMW_REQUIRE_MSG(config.cells >= 1, "topology needs at least one cell");
  MMW_REQUIRE_MSG(config.users_per_cell >= 1,
                  "topology needs at least one user per cell");
  MMW_REQUIRE_MSG(config.cell_radius_m > config.min_distance_m,
                  "need cell_radius_m > min_distance_m");
  const real isd = std::sqrt(3.0) * config.cell_radius_m;
  return Topology(config, hex_sites(config.cells, isd));
}

const CellSite& Topology::site(index_t cell) const {
  MMW_REQUIRE(cell < sites_.size());
  return sites_[cell];
}

real Topology::distance(index_t cell, const UserPlacement& user) const {
  const CellSite& s = site(cell);
  const real dx = user.x - s.x;
  const real dy = user.y - s.y;
  return std::max(config_.min_distance_m, std::hypot(dx, dy));
}

UserPlacement Topology::place_user(index_t cell, randgen::Rng& rng) const {
  const CellSite& s = site(cell);
  // Uniform on the annulus: area-uniform radius, then a uniform angle —
  // exactly two draws in a fixed order.
  const real r_lo_sq = config_.min_distance_m * config_.min_distance_m;
  const real r_hi_sq = config_.cell_radius_m * config_.cell_radius_m;
  const real radius = std::sqrt(r_lo_sq + rng.uniform() * (r_hi_sq - r_lo_sq));
  const real angle = rng.angle();
  return {s.x + radius * std::cos(angle), s.y + radius * std::sin(angle)};
}

real Topology::pathloss_gain(index_t cell, const UserPlacement& user) const {
  return std::pow(config_.min_distance_m / distance(cell, user),
                  config_.pathloss_exponent);
}

real Topology::coupling(index_t interferer, index_t serving,
                        const UserPlacement& user) const {
  MMW_REQUIRE_MSG(interferer != serving,
                  "a cell does not interfere with itself");
  const real d_serving = distance(serving, user);
  const real d_interferer = distance(interferer, user);
  return std::pow(d_serving / d_interferer, config_.pathloss_exponent);
}

}  // namespace mmw::sim
