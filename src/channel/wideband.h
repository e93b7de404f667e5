// Wideband (frequency-selective) extension of the link model: every path
// carries an excess delay, so the channel becomes
//   H(f) = √(NM) · Σ_l g_l · e^{−j2πf·τ_l} · a_rx,l a_tx,lᴴ
// across the signal band. Beam alignment itself is a narrowband decision —
// the MEAN pair gain E|vᴴH(f)u|² is frequency-flat because the delay phases
// cancel inside the expectation (tested) — but the realized per-subcarrier
// response is selective, and a well-aligned beam pair filters the channel
// down to one cluster, shrinking the conditional delay spread (the classic
// "beamforming flattens the mmWave channel" effect; see
// bench/ext_wideband_selectivity).
#pragma once

#include "channel/link.h"
#include "channel/models.h"

namespace mmw::channel {

/// A wideband link: a Link plus one excess delay per path (seconds).
class WidebandLink {
 public:
  /// Preconditions: one delay per path of `link`, all non-negative.
  WidebandLink(Link link, std::vector<real> delays_s);

  const Link& narrowband() const { return link_; }
  const std::vector<real>& delays_s() const { return delays_; }

  /// One small-scale realization: the per-path complex gains, including the
  /// √(NM) array factor. Independent across calls.
  struct Realization {
    std::vector<cx> gains;
  };
  Realization draw_realization(randgen::Rng& rng) const;

  /// Scalar channel seen by the pair (u, v) at baseband frequency offset f:
  ///   Σ_l g_l e^{−j2πfτ_l} (vᴴ a_rx,l)(a_tx,lᴴ u).
  cx pair_response(const Realization& realization, const linalg::Vector& u,
                   const linalg::Vector& v, real frequency_hz) const;

  /// Full N×M channel matrix at frequency offset f.
  linalg::Matrix frequency_response(const Realization& realization,
                                    real frequency_hz) const;

  /// Power-weighted RMS delay spread seen THROUGH the pair (u, v): weights
  /// are p_l·|vᴴa_rx,l|²·|a_tx,lᴴu|². Narrow beams select one cluster and
  /// shrink this relative to the omni (all-paths) spread.
  real rms_delay_spread_s(const linalg::Vector& u,
                          const linalg::Vector& v) const;

  /// Unconditioned (omni) RMS delay spread, weights p_l.
  real omni_rms_delay_spread_s() const;

 private:
  Link link_;
  std::vector<real> delays_;
};

/// Wideband NYC channel: the cluster model of make_nyc_multipath_link plus
/// exponential per-cluster excess delays (mean `cluster_delay_scale_s`) and
/// a small intra-cluster jitter. Total power 1, delays sorted so the first
/// cluster is the earliest.
struct WidebandParams {
  /// Mean excess delay between clusters.
  static constexpr real cluster_delay_scale_s = 100e-9;
  static constexpr real intra_cluster_jitter_s = 5e-9;  ///< per-subpath
};

WidebandLink make_nyc_wideband_link(const antenna::ArrayGeometry& tx,
                                    const antenna::ArrayGeometry& rx,
                                    randgen::Rng& rng);

}  // namespace mmw::channel
