// Structured failure propagation for the covariance estimators: a
// SolveStatus-carrying wrapper with a fixed degradation ladder, so the
// alignment hot path never has to let a solver exception escape a trial.
//
// Ladder (DESIGN.md §11): primary estimator → EM → PSD-projected sample
// covariance → uniform prior. Each rung is strictly cheaper and strictly
// more conservative than the one above; the last rung cannot fail. A rung
// falls through when it throws (convergence_error, precondition_error),
// returns a non-finite estimate, or — ONLY when the caller passes a run's
// fault state (mac::Session::armed_faults) — reports non-convergence. Clean
// runs take the primary rung unconditionally and are bit-identical to
// calling the underlying estimator directly, which is what keeps the
// committed golden figures byte-stable with faults disabled.
#pragma once

#include <span>

#include "estimation/covariance_ml.h"
#include "fault/fault.h"

namespace mmw::estimation {

/// Which covariance estimator a strategy runs as its primary rung (the A4
/// ablation switch; core::EstimatorKind aliases this).
enum class EstimatorKind {
  kRegularizedMl,     ///< nuclear-norm-regularized ML (the paper's, eq. 23)
  kEmMl,              ///< EM solver of the same likelihood (ref [5] family)
  kSampleCovariance,  ///< moment matching baseline
  kDiagonalLoading,   ///< moment matching + ridge baseline
};

/// The ladder rung an estimate finally came from.
enum class SolveRung : int {
  kPrimary = 0,  ///< the configured estimator succeeded
  kEm = 1,       ///< fell back to the EM solver
  kSample = 2,   ///< fell back to the PSD-projected sample covariance
  kUniform = 3,  ///< fell back to the uniform (scaled-identity) prior
};

/// What happened to the primary attempt.
enum class SolveStatus {
  kOk,            ///< converged (or non-convergence accepted: clean run)
  kNonConverged,  ///< iteration budget exhausted under fault injection
  kStressed,      ///< forced solver stress (starved budget, treated as failed)
  kThrew,         ///< solver threw or produced a non-finite estimate
};

struct RobustEstimateResult {
  linalg::FactoredHermitian q;  ///< always finite, Hermitian PSD
  SolveRung rung = SolveRung::kPrimary;
  SolveStatus primary_status = SolveStatus::kOk;
};

/// Estimates an n×n covariance with the degradation ladder. Never throws
/// for solver-side reasons (precondition violations of the *call itself* —
/// empty measurements, bad options — still throw).
///
/// `faults` is the run's fault state, null on a clean run. When given, its
/// plan (if any) schedules forced stress by solve number, and the call
/// advances its solve count and rung histogram — the per-trial tallies of
/// the E8 robustness matrix.
///
/// Observability: estimation.fallback.{em,sample,uniform} count the final
/// rung of every degraded solve and estimation.fallback.stressed counts
/// forced-stress injections.
RobustEstimateResult robust_estimate_covariance(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceMlOptions& options, EstimatorKind kind,
    fault::TrialFaultState* faults);

}  // namespace mmw::estimation
