// Beam-space compact covariance: a covariance estimate quantized onto the
// RX codebook grid, stored as a handful of (codeword index, weight) pairs.
//
// The serving engine (src/serve/) keeps ~10⁶ resident user sessions; a
// factored {B, Q_r} estimate costs O(N·r) complex doubles per user, which
// is already two orders of magnitude over the per-session byte budget.
// The beam-space form exploits the same structure one level harder: the
// paper's covariances concentrate on a few angular clusters, and the DFT
// codebook samples exactly those angles, so  Q ≈ Σ_i w_i c_{b_i} c_{b_i}ᴴ
// with a small number of codewords c_b captures what beam selection needs.
// A component list is 6 bytes/entry when packed (u16 beam + f32 weight) —
// the session state that makes the fixed-memory budget of DESIGN.md §13
// possible.
//
// The three codec operations, plus the warm-ML fold built from them:
//  - expand:   components → FactoredHermitian (orthonormalize the named
//              codewords, accumulate the weighted outer products in the
//              reduced basis) — what warm-starts an estimator or scores a
//              codebook.
//  - compress: FactoredHermitian → components (per-codeword Rayleigh
//              scores, keep the top-k; exact for codeword-aligned rank-1).
//  - merge:    exponential forgetting of a prior list into an update list
//              (tracking across epochs).
//  - fold_warm_ml: one alignment slot's warm-started ML update of a
//              resident list (the serving engine's kWarmMl estimator and
//              the warm-ML tracker share it).
//
// Determinism: every function is a pure function of its inputs; ranking
// ties break toward the LOWEST codeword index (the repo-wide tie-break
// convention), and component lists are canonically ordered by ascending
// beam index.
#pragma once

#include <span>
#include <vector>

#include "antenna/codebook.h"
#include "estimation/measurement_model.h"
#include "linalg/factored.h"

namespace mmw::estimation {

/// One beam-space covariance component: `weight` (≥ 0, linear energy units)
/// on the rank-1 direction of codeword `beam`.
struct BeamComponent {
  index_t beam = 0;
  real weight = 0.0;
};

/// Lifts a component list to Q = Σ_i w_i c_{b_i} c_{b_i}ᴴ in factored form.
/// Components with weight ≤ 0 are skipped; an effectively empty list yields
/// an empty() FactoredHermitian. The basis is built by modified
/// Gram–Schmidt over the named codewords in list order, so canonical
/// (ascending-beam) input order gives a reproducible factor.
/// Preconditions: every beam index is valid for `codebook`.
linalg::FactoredHermitian expand_beam_space(
    std::span<const BeamComponent> components,
    const antenna::Codebook& codebook);

/// Quantizes a covariance onto the codebook: scores every codeword by its
/// Rayleigh quotient c_vᴴ Q c_v (the batched kernel path), keeps the
/// `max_components` highest-scoring codewords with positive score, and
/// returns them in ascending beam order. `scores` is caller scratch sized
/// to codebook.size() (the serving hot path reuses one buffer per thread).
/// Exact inverse of expand_beam_space for a single codeword-aligned rank-1
/// covariance; a lossy angular-domain projection otherwise.
std::vector<BeamComponent> compress_to_beam_space(
    const linalg::FactoredHermitian& q, const antenna::Codebook& codebook,
    index_t max_components, std::span<real> scores);

/// Tracking update: out(b) = forgetting·prior(b) + update(b) over the union
/// of beams, truncated to the `max_components` heaviest (ties toward the
/// lowest beam), returned in ascending beam order. forgetting ∈ [0, 1];
/// 0 discards the prior, 1 accumulates forever. An input component whose
/// weight is not positive (zero, negative, NaN) counts as absent, so the
/// output holds only positive weights (+∞ where a sum saturates).
/// Preconditions: both inputs in canonical (strictly ascending beam) order.
std::vector<BeamComponent> merge_beam_space(
    std::span<const BeamComponent> prior, real forgetting,
    std::span<const BeamComponent> update, index_t max_components);

/// What fold_warm_ml returns.
struct WarmMlFold {
  std::vector<BeamComponent> components;  ///< the updated resident list
  bool converged = false;  ///< the ML solve's label (observe only)
};

/// One warm-ML alignment slot: the regularized ML solve
/// (estimate_covariance_ml_warm; 40 iterations, tolerance 1e-4, SNR
/// `gamma`) over this slot's `measurements`, warm-started from `prior_q`,
/// then compressed to at most `max_components` codewords and merged into
/// `prior` with `forgetting` — the solve sees only this slot's
/// measurements, so forgetting still blends across slots. `prior_q` must
/// be expand_beam_space(prior, codebook): the caller has already expanded
/// it to pick the slot's probes. `scores` is caller scratch sized to
/// codebook.size().
WarmMlFold fold_warm_ml(std::span<const BeamComponent> prior,
                        const linalg::FactoredHermitian& prior_q,
                        std::span<const BeamMeasurement> measurements,
                        real gamma, real forgetting,
                        const antenna::Codebook& codebook,
                        index_t max_components, std::span<real> scores);

}  // namespace mmw::estimation
