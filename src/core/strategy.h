// Beam-alignment strategies: the paper's proposed learning-based scheme
// (Algorithm 1) and the baselines it is evaluated against.
//
// Ownership: strategies own nothing but their options structs (plain
// values). They borrow the mac::Session passed to run() only for the call's
// duration and keep no reference to it afterwards.
//
// Thread-safety: run() is const and every strategy in this header keeps all
// per-run state on the stack, so ONE strategy instance may drive MANY
// sessions concurrently from different threads — the Monte-Carlo drivers in
// sim/experiments.h rely on exactly this. All randomness comes from the
// session's Rng, never from strategy members. State that outlives one
// alignment (a tracked beam pair, a carried covariance prior) belongs to
// track::Tracker, not to these strategies.
//
// Units: measured energies are linear matched-filter powers |z|²; SNR-loss
// grading is in dB (core::PairGainOracle::loss_db); the session's gamma is
// linear Es/N0.
#pragma once

#include <memory>
#include <string_view>

#include "estimation/covariance_ml.h"
#include "estimation/robust.h"
#include "mac/session.h"

namespace mmw::core {

/// A beam-alignment strategy drives a mac::Session, choosing which beam
/// pairs to measure until the measurement budget is exhausted (or it has
/// nothing left to measure). The selected pair is then read off the session
/// as the highest-energy measurement (paper eq. 30).
class AlignmentStrategy {
 public:
  virtual ~AlignmentStrategy() = default;
  virtual std::string_view name() const = 0;
  virtual void run(mac::Session& session) const = 0;
};

/// "Random" baseline: every measurement picks a uniformly random beam pair
/// among those not yet measured.
class RandomSearch final : public AlignmentStrategy {
 public:
  std::string_view name() const override { return "Random"; }
  void run(mac::Session& session) const override;
};

/// "Scan" baseline: starts from a random beam pair and walks the full pair
/// grid in spatially-adjacent (boustrophedon) order, wrapping cyclically.
class ScanSearch final : public AlignmentStrategy {
 public:
  std::string_view name() const override { return "Scan"; }
  void run(mac::Session& session) const override;
};

/// Exhaustive scan of all T pairs in raster order. All three schemes reduce
/// to this at a 100% search rate; with a smaller budget it measures a
/// deterministic prefix (mainly useful as a reference and in tests).
class ExhaustiveSearch final : public AlignmentStrategy {
 public:
  std::string_view name() const override { return "Exhaustive"; }
  void run(mac::Session& session) const override;
};

/// Which covariance estimator the proposed scheme runs per slot. The enum
/// lives with the degradation ladder (estimation/robust.h) since the
/// ladder's primary rung is exactly this switch; the alias keeps the
/// established core::EstimatorKind spelling working.
using EstimatorKind = estimation::EstimatorKind;

/// Configuration of the proposed scheme.
struct ProposedOptions {
  /// Estimator ablation switch (A4 in DESIGN.md).
  EstimatorKind estimator_kind = EstimatorKind::kRegularizedMl;

  /// J — measurements the RX takes per TX-slot (paper Fig. 4). Must be
  /// ≥ 2: J−1 selected probes plus the eigen-directed J-th one. The scheme
  /// is an anytime algorithm: slots continue (cycling over TX beams, only
  /// unmeasured pairs) until the budget runs out, so a 100% search rate
  /// degenerates to the exhaustive scan exactly as the paper states.
  index_t measurements_per_slot = 6;

  /// Covariance-estimator settings (μ, iteration budget). The estimator's γ
  /// is overwritten from the session.
  estimation::CovarianceMlOptions estimator;

  /// When true (default), the covariance carried to the next TX-slot is
  /// re-estimated from all J measurements of the slot rather than the first
  /// J−1 — strictly more information at one extra solver call.
  bool reestimate_with_final = true;

  /// Exploration safeguard: when the previous slot's estimate carries no
  /// signal — tr(Q̂) below this factor times the aggregate noise floor
  /// N/γ — the next slot's probes revert to random instead of the top
  /// Rayleigh-quotient beams. Exploiting a pure-noise estimate would lock
  /// the scheme onto the same uninformative beams forever; the paper's
  /// derivation implicitly assumes the estimate has seen signal. Set to 0
  /// to disable (strictly-literal Algorithm 1).
  real exploration_floor = 1.0;
};

/// The paper's proposed beam-alignment scheme (Algorithm 1).
///
/// Per TX-slot i (TX beam chosen uniformly at random without repetition):
///  1. RX picks its first J−1 beams: random in the first slot, afterwards
///     the codewords with the J−1 largest Rayleigh quotients vᴴ Q̂ v under
///     the previous slot's covariance estimate (Sec. IV-B2).
///  2. RX measures them, then solves the nuclear-norm-regularized ML
///     problem (eq. 23) for Q̂ on this slot's measurements.
///  3. The J-th measurement points at the best unmeasured codeword under
///     Q̂ (eq. 26 quantized to the codebook, Sec. IV-B1).
///  4. Q̂ is carried to the next slot.
class ProposedAlignment final : public AlignmentStrategy {
 public:
  explicit ProposedAlignment(ProposedOptions options = {});
  std::string_view name() const override { return "Proposed"; }
  void run(mac::Session& session) const override;

 private:
  ProposedOptions options_;
};

/// Two-stage hierarchical search (extension; cf. Hur et al. [11]): measures
/// a strided coarse subgrid of the pair space, then refines exhaustively in
/// the full-resolution neighbourhood of the best coarse pair, then spends
/// any leftover budget randomly.
struct HierarchicalOptions {
  /// Coarse subsampling stride on both grids.
  static constexpr index_t stride = 2;
  /// Chebyshev radius of the refinement window, in strides.
  static constexpr index_t refine_radius = 1;
};

class HierarchicalSearch final : public AlignmentStrategy {
 public:
  std::string_view name() const override { return "Hierarchical"; }
  void run(mac::Session& session) const override;
};

/// Bidirectional ("ping-pong") extension of the proposed scheme, building
/// on the paper's remark that the reverse link can train too (Sec. III-A,
/// IV-B1 feedback discussion). Slots alternate roles:
///  - RX-phase: the TX dwells on the best beam under the TX-side estimate
///    (random at first) while the RX probes/learns its covariance exactly
///    as in Algorithm 1;
///  - TX-phase: the RX dwells on its best beam while the TX beam varies —
///    for fixed v the measurement mean is uᴴ Q_tx|v u + 1/γ with
///    Q_tx|v = NM·Σ p_l|vᴴa_rx,l|² a_tx,l a_tx,lᴴ, so the SAME estimator
///    learns the TX-side covariance from the same energy ledger.
/// This removes Algorithm 1's main weakness — TX beams chosen blindly at
/// random — at no extra measurement cost (see bench/ext_bidirectional).
struct PingPongOptions {
  index_t measurements_per_slot = 6;      ///< J per slot (≥ 2)
  estimation::CovarianceMlOptions estimator;
  real exploration_floor = 1.0;           ///< as in ProposedOptions
};

class PingPongAlignment final : public AlignmentStrategy {
 public:
  explicit PingPongAlignment(PingPongOptions options = {});
  std::string_view name() const override { return "PingPong"; }
  void run(mac::Session& session) const override;

 private:
  PingPongOptions options_;
};

/// Local (hill-climbing) search on the joint beam-pair grid with random
/// restarts — the "numerical optimization over a small region" family of
/// beam training (cf. B. Li et al. [13]). From a random pair, repeatedly
/// measures all unmeasured neighbours (one grid step in either codebook)
/// and moves to the best; restarts from a random unmeasured pair when no
/// neighbour improves. Strong when the gain surface is unimodal over the
/// grid, brittle on multipath channels with several distant optima.
class LocalSearch final : public AlignmentStrategy {
 public:
  std::string_view name() const override { return "LocalSearch"; }
  void run(mac::Session& session) const override;
};

}  // namespace mmw::core
