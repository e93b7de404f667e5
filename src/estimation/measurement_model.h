// The measurement model shared by the covariance estimators.
//
// Within a TX-slot the receiver observes, for RX beam v_j, the matched-filter
// output z_j = v_jᴴ h_j + n_j with h_j ~ CN(0, Q) iid and n_j ~ CN(0, 1/γ)
// (paper eqs. 7–9 after normalization by the signal energy). Hence
//   |z_j|² ~ (λ_j/2)·χ²₂  with  λ_j(Q) = v_jᴴ (Q + γ⁻¹ I) v_j   (eq. 14).
// The energies |z_j|² are the sufficient statistics the estimators consume.
#pragma once

#include <span>

#include "linalg/factored.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mmw::estimation {

/// One beam-domain energy measurement: the RX beam used and the measured
/// matched-filter energy |z|².
struct BeamMeasurement {
  linalg::Vector beam;  ///< unit-norm RX beamforming vector v_j
  real energy = 0.0;    ///< |z_j|²
};

/// Expected measurement energy λ(Q) = vᴴ(Q + γ⁻¹I)v for SNR γ (paper eq. 14).
real expected_energy(const linalg::Matrix& q, const linalg::Vector& v,
                     real gamma);

/// Factored form: the Rayleigh quotient goes through the beam-span factor,
/// O(N·r + r²) instead of O(N²).
real expected_energy(const linalg::FactoredHermitian& q,
                     const linalg::Vector& v, real gamma);

/// Negative log-likelihood of the measurement set under covariance Q:
///   J(Q) = Σ_j [ log λ_j(Q) + |z_j|² / λ_j(Q) ]          (paper eq. 18).
real negative_log_likelihood(const linalg::Matrix& q,
                             std::span<const BeamMeasurement> measurements,
                             real gamma);

/// The dense value with each ‖v_j‖²/γ given as noise[j], storing each
/// λ_j(Q) in lambda[j] — the covariance-ML solver's per-iteration form.
/// Preconditions: noise and lambda have one entry per measurement.
real negative_log_likelihood(const linalg::Matrix& q,
                             std::span<const BeamMeasurement> measurements,
                             std::span<const real> noise,
                             std::span<real> lambda);

/// Factored overload — same value, evaluated through the factor.
real negative_log_likelihood(const linalg::FactoredHermitian& q,
                             std::span<const BeamMeasurement> measurements,
                             real gamma);

}  // namespace mmw::estimation
