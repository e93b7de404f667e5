// Nuclear-norm-regularized maximum-likelihood covariance estimation — the
// paper's channel estimator (Sec. IV-A2, eq. 23):
//
//   Q̂ = argmin_{Q ⪰ 0}  J(Q) + μ‖Q‖₁
//
// where J is the measurement negative log-likelihood and, on the PSD cone,
// ‖Q‖₁ (nuclear norm) = tr(Q). Solved by projected proximal gradient with
// backtracking: the prox of μ‖·‖₁ composed with the PSD projection is
// eigenvalue soft-thresholding at μ (linalg::eigenvalue_soft_threshold),
// the same update family as the nuclear-norm trace-regression solvers the
// paper cites ([18], Koltchinskii et al.).
#pragma once

#include <span>

#include "estimation/measurement_model.h"
#include "linalg/factored.h"

namespace mmw::estimation {

struct CovarianceMlOptions {
  real mu = 0.05;          ///< nuclear-norm weight μ (paper eq. 25)
  real gamma = 100.0;      ///< pre-beamforming SNR γ = Es/N0 (paper eq. 15)
  int max_iterations = 150;
  real tolerance = 1e-5;   ///< stop when relative objective decrease < tol
  /// First proximal-gradient step, and the cap each accepted step doubles
  /// back up to.
  static constexpr real initial_step = 1.0;
  int max_backtracks = 40;
};

struct CovarianceMlResult {
  /// Estimate Q̂ (Hermitian PSD) in factored form Q̂ = B Q_r Bᴴ, where B is
  /// an orthonormal basis of the measured beam span (r ≤ J ≪ N). Scoring,
  /// eigenpairs and traces go through the factor; call `q.dense()` only
  /// when a consumer genuinely needs the N×N lift.
  linalg::FactoredHermitian q;
  real objective = 0.0;    ///< final J_μ(Q̂)
  int iterations = 0;
  bool converged = false;
  /// The proximal solver ended because every backtracked step of one
  /// iteration failed the sufficient-decrease test. `converged` is also
  /// set then (the iterate is treated as numerically stationary); this
  /// label tells that exit apart from the objective-change test.
  bool stalled = false;
};

/// Estimates an n×n covariance from beam-energy measurements.
///
/// Preconditions: at least one measurement; every beam has dimension n;
/// options.mu ≥ 0, options.gamma > 0.
CovarianceMlResult estimate_covariance_ml(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceMlOptions& options);

/// Warm-started variant for tracking (DESIGN.md §13): `prior` — typically
/// last epoch's estimate, or a beam-space expansion of a resident session's
/// component list — is projected onto the new measurements' beam span and
/// used as the solver's initial iterate in place of the moment-based cold
/// start. The optimization problem is IDENTICAL (same objective, same
/// stationary points); only the starting point changes, so a good prior
/// converges in a fraction of the iterations. An empty() prior falls back
/// to estimate_covariance_ml bit-for-bit.
/// Preconditions: those of estimate_covariance_ml; prior empty or of
/// dimension n.
CovarianceMlResult estimate_covariance_ml_warm(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceMlOptions& options,
    const linalg::FactoredHermitian& prior);

/// Expectation-Maximization solver for the SAME maximum-likelihood problem
/// (unregularized), treating the per-measurement effective channels h_j as
/// latent variables — the estimator family of Eliasi, Rangan & Rappaport
/// (the paper's ref [5]). Each iteration performs the closed-form update
///
///   Q ← (1/J) Σ_j E[h hᴴ | z_j; Q]
///     = Q − (1/J) Σ_j (1 − w_j/λ_j) · (Q v_j)(Q v_j)ᴴ / λ_j,
///
/// which is monotone in likelihood and keeps Q Hermitian PSD by
/// construction; an optional trace shrinkage approximates the nuclear-norm
/// penalty. Slower per-digit than the proximal solver but derivative-free
/// and unconditionally stable — kept both as a cross-check oracle for tests
/// and as a baseline.
struct CovarianceEmOptions {
  real gamma = 100.0;
  real mu = 0.0;            ///< trace-shrinkage weight (0 = pure ML)
  int max_iterations = 200;
  real tolerance = 1e-6;    ///< relative NLL decrease stopping rule
};

CovarianceMlResult estimate_covariance_em(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceEmOptions& options);

/// Moment-matching baseline ("sample covariance" in beam space):
///   Q̂ = Σ_j (|z_j|² − 1/γ)₊ · v_j v_jᴴ · (N / J).
/// Unbiased direction weighting but no rank structure; A4 ablation baseline.
linalg::Matrix sample_covariance_estimate(
    index_t n, std::span<const BeamMeasurement> measurements, real gamma);

/// Diagonally-loaded variant of the moment estimator: adds ε·tr(Q̂)/N·I,
/// a classic robustification baseline.
linalg::Matrix diagonal_loading_estimate(
    index_t n, std::span<const BeamMeasurement> measurements, real gamma,
    real epsilon = 0.1);

}  // namespace mmw::estimation
