// A realized mmWave MIMO link: a fixed set of propagation paths between a TX
// and an RX array, with independent small-scale (Rayleigh) fading per
// measurement slot — the paper's channel model (Sec. III-B).
#pragma once

#include <span>
#include <vector>

#include "antenna/geometry.h"
#include "linalg/matrix.h"
#include "randgen/rng.h"

namespace mmw::channel {

/// One propagation subpath of a realized link.
struct Path {
  real power = 1.0;               ///< E|g|², the subpath's mean power
  antenna::Direction aod;         ///< angle of departure (TX side)
  antenna::Direction aoa;         ///< angle of arrival (RX side)
};

/// A realized link: path geometry is FIXED (large-scale state), while the
/// per-path complex gains fade independently from measurement to measurement
/// (the paper assumes H_j iid CN(0, Q) across measurements j).
///
/// The instantaneous channel is
///   H = √(N·M) · Σ_l g_l · a_rx(θ_l) a_tx(φ_l)ᴴ,  g_l ~ CN(0, power_l),
/// with unit-norm steering vectors, so a perfectly aligned beam pair on a
/// single unit-power path attains |vᴴHu|² ≈ N·M (full array gain).
///
/// Conditioned on the geometry, the second-order statistics are exact:
///  - full RX covariance       Q   = E[H Hᴴ]    = NM Σ_l p_l a_rx a_rxᴴ
///  - per-TX-beam covariance   Q_u = E[Hu uᴴHᴴ] = NM Σ_l p_l |a_txᴴu|² a_rx a_rxᴴ
/// Q_u is what the receiver can learn within a TX-slot (the paper's Q); its
/// dominant eigenspace is shared across TX beams, which is what lets slot-i
/// estimates guide slot-(i+1) measurements.
class Link {
 public:
  Link(const antenna::ArrayGeometry& tx, const antenna::ArrayGeometry& rx,
       std::vector<Path> paths);

  index_t tx_size() const { return m_; }
  index_t rx_size() const { return n_; }
  const std::vector<Path>& paths() const { return paths_; }

  /// Total mean path power Σ_l p_l.
  real total_power() const;

  /// Copy of this link with path l's mean power multiplied by scale[l]
  /// (large-scale transition on a FIXED geometry: steering vectors and
  /// array sizes are reused, only the per-path powers change). Used by
  /// channel::blocked_link to realize a sudden blockage event.
  /// Preconditions: scale.size() == paths().size(), entries ≥ 0.
  Link with_scaled_path_powers(std::span<const real> scale) const;

  /// Full RX-side spatial covariance Q = E[H Hᴴ] (N×N, Hermitian PSD).
  linalg::Matrix rx_covariance() const;

  /// Effective RX covariance for a fixed TX beam u: Q_u = E[(Hu)(Hu)ᴴ].
  /// Precondition: ‖u‖ sized to the TX array.
  linalg::Matrix rx_covariance_for_beam(const linalg::Vector& u) const;

  /// Mean beamforming gain of the pair (u, v):
  ///   E|vᴴ H u|² = NM Σ_l p_l |vᴴ a_rx,l|² |a_tx,lᴴ u|².
  /// The paper's metric R(u,v) is γ times this.
  real mean_pair_gain(const linalg::Vector& u, const linalg::Vector& v) const;

  /// Draws an instantaneous channel matrix H (N×M), independent across calls.
  linalg::Matrix draw_channel(randgen::Rng& rng) const;

  /// Draws the effective channel h = H·u directly (avoids forming H).
  linalg::Vector draw_effective_channel(const linalg::Vector& u,
                                        randgen::Rng& rng) const;

  /// Allocation-free variant: overwrites `h` with a fresh draw of H·u.
  /// Identical RNG consumption and arithmetic to draw_effective_channel —
  /// per-slot fade loops (mac::Session::probe_energy) reuse one vector
  /// across all fades of a run. `h` must not alias `u`.
  /// Precondition: h.size() == rx_size().
  void draw_effective_channel_into(const linalg::Vector& u, randgen::Rng& rng,
                                   linalg::Vector& h) const;

  /// RX steering vector of path l (unit norm).
  const linalg::Vector& rx_steering(index_t l) const { return rx_steering_[l]; }
  /// TX steering vector of path l (unit norm).
  const linalg::Vector& tx_steering(index_t l) const { return tx_steering_[l]; }

 private:
  index_t m_ = 0;  ///< TX elements
  index_t n_ = 0;  ///< RX elements
  std::vector<Path> paths_;
  std::vector<linalg::Vector> tx_steering_;
  std::vector<linalg::Vector> rx_steering_;
  real amplitude_scale_ = 1.0;  ///< √(N·M)
};

}  // namespace mmw::channel
