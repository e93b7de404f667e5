// Stochastic link generators: the single-path channel and the NYC-derived
// multipath cluster channel (Akdeniz et al. [3]) the paper evaluates on.
#pragma once

#include "channel/link.h"

namespace mmw::channel {

/// Angular sector the paths are drawn from (base-station style sector):
/// ±60° around boresight in azimuth, ±30° in elevation.
struct AngularSector {
  real az_min = -M_PI / 3;
  real az_max = M_PI / 3;
  real el_min = -M_PI / 6;
  real el_max = M_PI / 6;
};

/// Single-path channel: one dominant specular path with unit power and
/// uniformly random AoD/AoA inside the sector. The covariance Q is exactly
/// rank one — the paper's first evaluation scenario (Fig. 5/7).
Link make_single_path_link(const antenna::ArrayGeometry& tx,
                           const antenna::ArrayGeometry& rx,
                           randgen::Rng& rng,
                           const AngularSector& sector = {});

/// Parameters of the cluster-based NYC statistical channel at the published
/// fit; no figure varies them, so they are constants.
///
/// The paper has no access to raw NYC traces and neither do we; both sample
/// from the statistical model PUBLISHED in Akdeniz et al. 2014:
///  - cluster count   K = max(1, Poisson(lambda_clusters));
///  - cluster power fractions  γ'_k = U_k^{r_tau−1} · 10^{−0.6·Z_k/10},
///    U~U(0,1), Z~N(0,zeta²), normalized to Σγ_k = 1 — a heavy-tailed split
///    that makes 2–3 clusters dominant, the low-rank property the algorithm
///    exploits;
///  - cluster central angles uniform in the sector;
///  - subpath angle offsets: wrapped-Gaussian with per-side rms spreads.
struct NycClusterParams {
  static constexpr real lambda_clusters = 1.8;  ///< E[#clusters], pre-max
  static constexpr index_t subpaths_per_cluster = 10;
  static constexpr real r_tau = 2.8;    ///< power-decay exponent
  static constexpr real zeta_db = 4.0;  ///< per-cluster shadowing (dB)
  /// Per-side rms angular spreads: BS (AoD) and UE (AoA) azimuth and
  /// elevation.
  static constexpr real aod_az_spread_rad = 10.2 * M_PI / 180.0;
  static constexpr real aod_el_spread_rad = 0.0;
  static constexpr real aoa_az_spread_rad = 15.5 * M_PI / 180.0;
  static constexpr real aoa_el_spread_rad = 6.0 * M_PI / 180.0;
};

/// Multipath NYC channel: cluster-structured link with total power 1, its
/// cluster centres drawn inside `sector`.
/// The returned link's RX covariance is approximately low-rank (tests assert
/// the dominant-cluster energy concentration reported in the literature).
Link make_nyc_multipath_link(const antenna::ArrayGeometry& tx,
                             const antenna::ArrayGeometry& rx,
                             randgen::Rng& rng,
                             const AngularSector& sector = {});

/// Deterministic k-path link with the given powers and angles; mainly for
/// tests and controlled ablations (rank sweeps).
Link make_fixed_paths_link(const antenna::ArrayGeometry& tx,
                           const antenna::ArrayGeometry& rx,
                           std::vector<Path> paths);

}  // namespace mmw::channel
