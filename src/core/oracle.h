// Ground-truth evaluation of beam pairs: the oracle the simulator (not the
// receiver!) uses to grade what a strategy selected.
#pragma once

#include "antenna/codebook.h"
#include "channel/link.h"
#include "linalg/matrix.h"

namespace mmw::core {

/// Precomputed table of the true mean beamforming gains
///   G(t, r) = E|v_rᴴ H u_t|²
/// for every codebook pair. The paper's metric R(u, v) is γ·G and the
/// SNR Loss of a pair is 10·log10(R_opt / R) — invariant to γ, so the
/// oracle works on gains directly.
class PairGainOracle {
 public:
  PairGainOracle(const channel::Link& link,
                 const antenna::Codebook& tx_codebook,
                 const antenna::Codebook& rx_codebook);

  index_t tx_size() const { return gains_.rows(); }
  index_t rx_size() const { return gains_.cols(); }

  /// True mean gain of pair (tx_beam, rx_beam).
  real gain(index_t tx_beam, index_t rx_beam) const;

  /// The optimal pair (u_opt, v_opt) over the full codebook product
  /// (paper eq. 2) and its gain R_opt.
  std::pair<index_t, index_t> optimal_pair() const { return optimal_; }
  real optimal_gain() const { return optimal_gain_; }

  /// SNR loss of a pair relative to the optimum, in dB, ≥ 0
  /// (paper eq. 31 reports 10·log10(R/R_opt) ≤ 0; figures plot the
  /// magnitude, which is what this returns).
  real loss_db(index_t tx_beam, index_t rx_beam) const;

 private:
  linalg::Matrix gains_;  ///< real gains stored in the real part
  std::pair<index_t, index_t> optimal_{0, 0};
  real optimal_gain_ = 0.0;
};

/// The best true mean pair gain max_{t,r} link.mean_pair_gain(u_t, v_r)
/// over the codebook product (exhaustive), without the O(T) table: the
/// one grading number the serving and tracking engines keep per link.
real best_mean_pair_gain(const channel::Link& link,
                         const antenna::Codebook& tx_codebook,
                         const antenna::Codebook& rx_codebook);

}  // namespace mmw::core
