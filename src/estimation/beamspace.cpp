#include "estimation/beamspace.h"

#include <algorithm>

#include "estimation/covariance_ml.h"
#include "linalg/functions.h"

namespace mmw::estimation {

using linalg::FactoredHermitian;
using linalg::Matrix;
using linalg::Vector;

FactoredHermitian expand_beam_space(std::span<const BeamComponent> components,
                                    const antenna::Codebook& codebook) {
  // Orthonormal basis of the named codewords, modified Gram–Schmidt with
  // the same dependence floor as the estimator's beam-span reduction.
  std::vector<Vector> basis;
  std::vector<index_t> live;  // indices into `components` with weight > 0
  for (index_t i = 0; i < components.size(); ++i) {
    const BeamComponent& c = components[i];
    MMW_REQUIRE_MSG(c.beam < codebook.size(),
                    "beam-space component names an out-of-range codeword");
    if (!(c.weight > 0.0)) continue;
    live.push_back(i);
    Vector v = codebook.codeword(c.beam);
    const real norm0 = v.norm();
    for (const Vector& b : basis) v -= linalg::dot(b, v) * b;
    if (v.norm() > 1e-9 * norm0) basis.push_back(v.normalized());
  }
  if (live.empty()) return FactoredHermitian{};

  const index_t n = codebook.codeword(0).size();
  const index_t r = basis.size();
  Matrix b(n, r);
  for (index_t k = 0; k < r; ++k) b.set_col(k, basis[k]);

  // Core = Σ w_i p_i p_iᴴ with p_i = Bᴴ c_i (exact: c_i lies in span(B)).
  Matrix core(r, r);
  Vector p(r);
  for (const index_t i : live) {
    const Vector& c = codebook.codeword(components[i].beam);
    for (index_t k = 0; k < r; ++k) p[k] = linalg::dot(basis[k], c);
    core.add_scaled_outer(cx{components[i].weight, 0.0}, p, p);
  }
  return FactoredHermitian(std::move(b), std::move(core));
}

std::vector<BeamComponent> compress_to_beam_space(
    const FactoredHermitian& q, const antenna::Codebook& codebook,
    index_t max_components, std::span<real> scores) {
  MMW_REQUIRE_MSG(max_components > 0, "need room for at least one component");
  MMW_REQUIRE_MSG(scores.size() == codebook.size(),
                  "scores scratch must cover every codeword");
  if (q.empty()) return {};
  codebook.covariance_scores_into(q, scores);

  // Top-k by (score desc, beam asc) without sorting the full score table:
  // selection over ≤ max_components candidates per codeword.
  std::vector<BeamComponent> out;
  out.reserve(max_components);
  for (index_t v = 0; v < scores.size(); ++v) {
    if (!(scores[v] > 0.0)) continue;
    if (out.size() == max_components && scores[v] <= out.back().weight)
      continue;  // ties keep the incumbent (lower beam index)
    BeamComponent c{v, scores[v]};
    auto pos = std::upper_bound(
        out.begin(), out.end(), c,
        [](const BeamComponent& a, const BeamComponent& b) {
          return a.weight > b.weight;  // stable: equal weights keep order
        });
    out.insert(pos, c);
    if (out.size() > max_components) out.pop_back();
  }
  std::sort(out.begin(), out.end(),
            [](const BeamComponent& a, const BeamComponent& b) {
              return a.beam < b.beam;
            });
  return out;
}

std::vector<BeamComponent> compress_to_beam_space(
    const FactoredHermitian& q, const antenna::Codebook& codebook,
    index_t max_components) {
  std::vector<real> scores(codebook.size());
  return compress_to_beam_space(q, codebook, max_components, scores);
}

std::vector<BeamComponent> merge_beam_space(
    std::span<const BeamComponent> prior, real forgetting,
    std::span<const BeamComponent> update, index_t max_components) {
  MMW_REQUIRE_MSG(forgetting >= 0.0 && forgetting <= 1.0,
                  "forgetting factor must be in [0, 1]");
  MMW_REQUIRE_MSG(max_components > 0, "need room for at least one component");
  // Two-pointer union over the canonically-ordered inputs.
  std::vector<BeamComponent> merged;
  merged.reserve(prior.size() + update.size());
  index_t i = 0, j = 0;
  while (i < prior.size() || j < update.size()) {
    if (j == update.size() ||
        (i < prior.size() && prior[i].beam < update[j].beam)) {
      MMW_REQUIRE_MSG(i + 1 == prior.size() ||
                          prior[i].beam < prior[i + 1].beam,
                      "prior components must be strictly ascending by beam");
      merged.push_back({prior[i].beam, forgetting * prior[i].weight});
      ++i;
    } else if (i == prior.size() || update[j].beam < prior[i].beam) {
      MMW_REQUIRE_MSG(j + 1 == update.size() ||
                          update[j].beam < update[j + 1].beam,
                      "update components must be strictly ascending by beam");
      merged.push_back(update[j]);
      ++j;
    } else {
      merged.push_back(
          {prior[i].beam, forgetting * prior[i].weight + update[j].weight});
      ++i;
      ++j;
    }
  }
  std::erase_if(merged, [](const BeamComponent& c) { return !(c.weight > 0.0); });
  if (merged.size() > max_components) {
    // Keep the heaviest; stable_sort preserves the ascending-beam order of
    // equals, implementing the lowest-index tie-break.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const BeamComponent& a, const BeamComponent& b) {
                       return a.weight > b.weight;
                     });
    merged.resize(max_components);
    std::sort(merged.begin(), merged.end(),
              [](const BeamComponent& a, const BeamComponent& b) {
                return a.beam < b.beam;
              });
  }
  return merged;
}

WarmMlFold fold_warm_ml(std::span<const BeamComponent> prior,
                        const FactoredHermitian& prior_q,
                        std::span<const BeamMeasurement> measurements,
                        real gamma, real forgetting,
                        const antenna::Codebook& codebook,
                        index_t max_components, std::span<real> scores) {
  CovarianceMlOptions opts;
  opts.gamma = gamma;
  opts.max_iterations = 40;
  opts.tolerance = 1e-4;
  const CovarianceMlResult res = estimate_covariance_ml_warm(
      codebook.codeword(0).size(), measurements, opts, prior_q);
  const std::vector<BeamComponent> update =
      compress_to_beam_space(res.q, codebook, max_components, scores);
  return {merge_beam_space(prior, forgetting, update, max_components),
          res.converged};
}

}  // namespace mmw::estimation
