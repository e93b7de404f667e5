#include "estimation/measurement_model.h"

#include <cmath>

#include "obs/metrics.h"

namespace mmw::estimation {

real expected_energy(const linalg::Matrix& q, const linalg::Vector& v,
                     real gamma) {
  MMW_REQUIRE(gamma > 0.0);
  return linalg::hermitian_form(v, q) + v.squared_norm() / gamma;
}

real expected_energy(const linalg::FactoredHermitian& q,
                     const linalg::Vector& v, real gamma) {
  MMW_REQUIRE(gamma > 0.0);
  return q.rayleigh(v) + v.squared_norm() / gamma;
}

namespace {

/// Σ_j log λ_j + |z_j|²/λ_j with λ_j = energy(j).
template <typename Energy>
real nll_impl(std::span<const BeamMeasurement> measurements,
              Energy&& energy) {
  // Likelihood passes dominate solver cost; the count (vs. solver
  // iterations) exposes how much the backtracking line search re-evaluates.
  if (obs::enabled()) {
    static const obs::Counter evals =
        obs::Registry::global().counter("estimation.nll_evals");
    evals.add();
  }
  real acc = 0.0;
  for (index_t j = 0; j < measurements.size(); ++j) {
    const real lambda = energy(j);
    MMW_REQUIRE_MSG(lambda > 0.0, "non-positive predicted energy");
    acc += std::log(lambda) + measurements[j].energy / lambda;
  }
  return acc;
}

}  // namespace

real negative_log_likelihood(const linalg::Matrix& q,
                             std::span<const BeamMeasurement> measurements,
                             real gamma) {
  return nll_impl(measurements, [&](index_t j) {
    return expected_energy(q, measurements[j].beam, gamma);
  });
}

real negative_log_likelihood(const linalg::Matrix& q,
                             std::span<const BeamMeasurement> measurements,
                             std::span<const real> noise,
                             std::span<real> lambda) {
  MMW_REQUIRE(noise.size() == measurements.size() &&
              lambda.size() == measurements.size());
  return nll_impl(measurements, [&](index_t j) {
    return lambda[j] =
               linalg::hermitian_form(measurements[j].beam, q) + noise[j];
  });
}

real negative_log_likelihood(const linalg::FactoredHermitian& q,
                             std::span<const BeamMeasurement> measurements,
                             real gamma) {
  return nll_impl(measurements, [&](index_t j) {
    return expected_energy(q, measurements[j].beam, gamma);
  });
}

}  // namespace mmw::estimation
