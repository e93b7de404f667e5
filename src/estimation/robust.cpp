#include "estimation/robust.h"

#include <cmath>
#include <utility>

#include "linalg/functions.h"
#include "obs/metrics.h"

namespace mmw::estimation {

namespace {

/// Degradation-ladder telemetry (DESIGN.md §11): one count per degraded
/// solve, keyed by the rung that finally produced the estimate, plus the
/// forced-stress injections.
struct FallbackMetrics {
  obs::Counter em;
  obs::Counter sample;
  obs::Counter uniform;
  obs::Counter stressed;
  static const FallbackMetrics& get() {
    static const FallbackMetrics m{
        obs::Registry::global().counter("estimation.fallback.em"),
        obs::Registry::global().counter("estimation.fallback.sample"),
        obs::Registry::global().counter("estimation.fallback.uniform"),
        obs::Registry::global().counter("estimation.fallback.stressed"),
    };
    return m;
  }
};

bool finite(const linalg::FactoredHermitian& q) {
  return std::isfinite(q.trace());
}

/// Rung: the primary estimator, exactly as the strategies called it before
/// the ladder existed (bit-identical on the success path).
CovarianceMlResult run_primary(index_t n,
                               std::span<const BeamMeasurement> ms,
                               const CovarianceMlOptions& options,
                               EstimatorKind kind, bool starved) {
  switch (kind) {
    case EstimatorKind::kSampleCovariance: {
      CovarianceMlResult r;
      r.q = linalg::FactoredHermitian::from_dense(
          sample_covariance_estimate(n, ms, options.gamma));
      r.converged = true;
      return r;
    }
    case EstimatorKind::kDiagonalLoading: {
      CovarianceMlResult r;
      r.q = linalg::FactoredHermitian::from_dense(
          diagonal_loading_estimate(n, ms, options.gamma));
      r.converged = true;
      return r;
    }
    case EstimatorKind::kEmMl: {
      CovarianceEmOptions em;
      em.gamma = options.gamma;
      em.mu = options.mu;
      if (starved) em.max_iterations = 1;
      return estimate_covariance_em(n, ms, em);
    }
    case EstimatorKind::kRegularizedMl:
      break;
  }
  CovarianceMlOptions ml = options;
  if (starved) {
    ml.max_iterations = 1;
    ml.max_backtracks = 2;
  }
  return estimate_covariance_ml(n, ms, ml);
}

/// Rung: EM at full budget (only reached from a failed regularized-ML
/// primary — the derivative-free solver survives stiff likelihoods the
/// proximal one gives up on).
linalg::FactoredHermitian run_em_rung(index_t n,
                                      std::span<const BeamMeasurement> ms,
                                      const CovarianceMlOptions& options,
                                      bool& converged) {
  CovarianceEmOptions em;
  em.gamma = options.gamma;
  em.mu = options.mu;
  const CovarianceMlResult r = estimate_covariance_em(n, ms, em);
  converged = r.converged;
  return r.q;
}

/// Rung: PSD-projected sample covariance — moment matching needs no
/// iteration and the projection clips whatever the corrupted energies did.
linalg::FactoredHermitian run_sample_rung(
    index_t n, std::span<const BeamMeasurement> ms, real gamma) {
  return linalg::FactoredHermitian::from_dense(
      linalg::psd_project(sample_covariance_estimate(n, ms, gamma)));
}

/// Rung of last resort: a scaled identity matching the measured excess
/// energy — an uninformative prior that ranks every beam equally (the
/// strategies then fall back to their random-probe paths). Cannot fail.
linalg::FactoredHermitian run_uniform_rung(
    index_t n, std::span<const BeamMeasurement> ms, real gamma) {
  real excess = 0.0;
  for (const BeamMeasurement& m : ms)
    excess += std::max(m.energy - 1.0 / gamma, 0.0);
  const real c = ms.empty() ? 0.0 : excess / static_cast<real>(ms.size());
  linalg::Matrix q(n, n);
  for (index_t i = 0; i < n; ++i) q(i, i) = cx{c, 0.0};
  return linalg::FactoredHermitian::from_dense(std::move(q));
}

}  // namespace

RobustEstimateResult robust_estimate_covariance(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceMlOptions& options, EstimatorKind kind,
    fault::TrialFaultState* faults) {
  const bool armed = faults != nullptr;
  const bool stressed = armed && faults->plan != nullptr &&
                        faults->plan->solve_stressed(faults->solves);
  if (armed) {
    ++faults->solves;
    if (stressed) ++faults->stressed_solves;
  }
  if (stressed && obs::enabled()) FallbackMetrics::get().stressed.add();

  RobustEstimateResult out;

  // Primary rung. A starved (stressed) attempt is treated as failed even
  // if it nominally converged — stress models a hard deadline abort.
  bool primary_ok = false;
  try {
    CovarianceMlResult r =
        run_primary(n, measurements, options, kind, stressed);
    if (!finite(r.q)) {
      out.primary_status = SolveStatus::kThrew;
    } else if (stressed) {
      out.primary_status = SolveStatus::kStressed;
    } else if (!r.converged && armed) {
      out.primary_status = SolveStatus::kNonConverged;
    } else {
      // Clean path: non-convergence without a fault state is accepted
      // as-is, exactly as the strategies always did.
      out.q = std::move(r.q);
      primary_ok = true;
    }
  } catch (const std::exception&) {
    out.primary_status = SolveStatus::kThrew;
  }

  // Fallback rungs. On these, non-convergence always falls through —
  // a degraded solve should not hand back a half-iterated estimate when a
  // cheaper rung is guaranteed to produce a sane one.
  if (!primary_ok && kind == EstimatorKind::kRegularizedMl) {
    try {
      bool converged = false;
      linalg::FactoredHermitian q =
          run_em_rung(n, measurements, options, converged);
      if (converged && finite(q)) {
        out.q = std::move(q);
        out.rung = SolveRung::kEm;
        primary_ok = true;
      }
    } catch (const std::exception&) {
    }
  }
  if (!primary_ok && kind != EstimatorKind::kSampleCovariance &&
      kind != EstimatorKind::kDiagonalLoading) {
    try {
      linalg::FactoredHermitian q =
          run_sample_rung(n, measurements, options.gamma);
      if (finite(q)) {
        out.q = std::move(q);
        out.rung = SolveRung::kSample;
        primary_ok = true;
      }
    } catch (const std::exception&) {
    }
  }
  if (!primary_ok) {
    out.q = run_uniform_rung(n, measurements, options.gamma);
    out.rung = SolveRung::kUniform;
  }

  if (armed) ++faults->rung_counts[static_cast<int>(out.rung)];
  if (out.rung != SolveRung::kPrimary && obs::enabled()) {
    const FallbackMetrics& m = FallbackMetrics::get();
    switch (out.rung) {
      case SolveRung::kEm: m.em.add(); break;
      case SolveRung::kSample: m.sample.add(); break;
      case SolveRung::kUniform: m.uniform.add(); break;
      case SolveRung::kPrimary: break;
    }
  }
  return out;
}

}  // namespace mmw::estimation
