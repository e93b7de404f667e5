// Cell-site geometry for the sharded multi-cell engine: the hexagonal
// base-station layout, deterministic per-user placement, and the power-law
// pathloss coupling between an interfering BS and a victim user.
//
// Thread-safety: Topology is immutable after build() — all queries are
// const and safe to share across shards. place_user() draws only from the
// Rng it is handed (exactly two uniform variates), so per-shard streams
// keep user drops reproducible and thread-count-independent.
#pragma once

#include <vector>

#include "linalg/common.h"
#include "randgen/rng.h"

namespace mmw::sim {

/// Deployment knobs. Sites sit on a hexagonal lattice filled in spiral ring
/// order from the center site (ring k holds 6k sites), the classic cellular
/// tessellation. Defaults give the textbook 7-site hex cluster (one center
/// cell plus its first interference ring).
struct TopologyConfig {
  index_t cells = 7;
  index_t users_per_cell = 1;

  /// Maximum BS-to-user drop distance (meters); the inter-site distance is
  /// √3 · cell_radius_m.
  real cell_radius_m = 100.0;

  /// Pathloss exponent of the coupling law (urban mmWave macro ≈ 3).
  static constexpr real pathloss_exponent = 3.0;

  /// Users never drop closer to their BS than this, and no interferer
  /// distance is evaluated below it (keeps the power law finite).
  static constexpr real min_distance_m = 10.0;
};

/// One base-station site (meters, deployment plane).
struct CellSite {
  real x = 0.0;
  real y = 0.0;
};

/// One dropped user (absolute coordinates, meters).
struct UserPlacement {
  real x = 0.0;
  real y = 0.0;
};

/// An immutable realized deployment: site coordinates plus the coupling
/// law. Built once per run and shared read-only by every shard.
class Topology {
 public:
  /// Lays out `config.cells` sites of the hex lattice.
  /// Preconditions: cells ≥ 1, users_per_cell ≥ 1,
  /// cell_radius_m > min_distance_m.
  static Topology build(const TopologyConfig& config);

  const TopologyConfig& config() const { return config_; }
  index_t n_cells() const { return sites_.size(); }
  const CellSite& site(index_t cell) const;

  /// Euclidean distance (meters) between site `cell` and a user position,
  /// clamped below by min_distance_m.
  real distance(index_t cell, const UserPlacement& user) const;

  /// Drops one user uniformly on the annulus
  /// [min_distance_m, cell_radius_m) around its serving site. Consumes
  /// exactly two uniform draws from `rng`, so callers can rely on a fixed
  /// stream offset regardless of the drop's outcome.
  UserPlacement place_user(index_t cell, randgen::Rng& rng) const;

  /// Serving-link pathloss gain of a user relative to the closest possible
  /// drop: (min_distance_m / d)^α ∈ (0, 1], equal to 1 at the min-distance
  /// clamp. The serving engine scales each session's effective SNR by this,
  /// so cell-edge users align against a genuinely lower γ than cell-center
  /// users (the heterogeneity a city-scale run is supposed to have).
  real pathloss_gain(index_t cell, const UserPlacement& user) const;

  /// Relative mean power of interfering site `interferer` at a victim user
  /// served by `serving`: (d_serving / d_interferer)^α with both distances
  /// clamped by min_distance_m. Equals 1 when the interferer is as far as
  /// the serving BS; cell-edge users see couplings near 1, cell-center
  /// users see them fall off by the power law. Precondition:
  /// interferer ≠ serving.
  real coupling(index_t interferer, index_t serving,
                const UserPlacement& user) const;

 private:
  Topology(TopologyConfig config, std::vector<CellSite> sites)
      : config_(config), sites_(std::move(sites)) {}

  TopologyConfig config_;
  std::vector<CellSite> sites_;
};

}  // namespace mmw::sim
