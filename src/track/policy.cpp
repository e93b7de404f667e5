#include "track/policy.h"

#include <algorithm>

namespace mmw::track {

namespace {

bool contains(const std::vector<index_t>& v, index_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

void append_cursor_probes(std::uint64_t user_key, std::uint64_t cursor,
                          index_t n_rx, index_t want,
                          std::vector<index_t>& out) {
  MMW_REQUIRE(n_rx >= 1 && want <= n_rx);
  index_t cand = static_cast<index_t>((user_key + cursor) %
                                      static_cast<std::uint64_t>(n_rx));
  while (out.size() < want) {
    while (contains(out, cand)) cand = (cand + 1) % n_rx;
    out.push_back(cand);
    cand = (cand + 1) % n_rx;
  }
}

bool align_slot(const mac::ProbeView& view, const SlotSpec& spec,
                std::vector<estimation::BeamComponent>& components,
                randgen::Rng& rng, SlotScratch& scratch) {
  const antenna::Codebook& rx = *view.rx_codebook;
  const index_t n_rx = rx.size();
  const index_t j = std::min(spec.probes, n_rx);

  // The one expansion of the prior: it scores the codebook for the pick
  // and warm-starts the ML fold.
  const linalg::FactoredHermitian prior_q =
      estimation::expand_beam_space(components, rx);
  if (scratch.scores.size() != n_rx) scratch.scores.assign(n_rx, 0.0);
  scratch.probe_rx.clear();
  if (!prior_q.empty()) {
    rx.covariance_scores_into(prior_q, scratch.scores);
    // Positive scores only; j > 1 keeps one explore slot.
    antenna::rank_beams(scratch.scores, 0.0, j > 1 ? j - 1 : 1,
                        scratch.probe_rx);
  }
  append_cursor_probes(spec.cursor_key, spec.cursor, n_rx, j,
                       scratch.probe_rx);
  // Canonical measurement order (ascending RX index): the probe loop's
  // draw sequence and the update list's order are both pinned by it.
  std::sort(scratch.probe_rx.begin(), scratch.probe_rx.end());

  if (scratch.fade.size() != view.link->rx_size())
    scratch.fade = linalg::Vector(view.link->rx_size());
  scratch.probe_energy.clear();
  for (const index_t r : scratch.probe_rx)
    scratch.probe_energy.push_back(mac::probe_energy(
        view, spec.tx_beam, r, spec.fades, rng, scratch.fade));

  if (spec.fold == SlotFold::kWarmMl) {
    scratch.measurements.clear();
    for (index_t i = 0; i < j; ++i)
      scratch.measurements.push_back(
          {rx.codeword(scratch.probe_rx[i]), scratch.probe_energy[i]});
    estimation::WarmMlFold fold = estimation::fold_warm_ml(
        components, prior_q, scratch.measurements, view.gamma,
        TrackerOptions::forgetting, rx, TrackerOptions::max_components,
        scratch.scores);
    components = std::move(fold.components);
    return fold.converged;
  }
  scratch.update.clear();
  for (index_t i = 0; i < j; ++i) {
    const real w = std::max(scratch.probe_energy[i] - spec.noise_var, 0.0);
    if (w > 0.0) scratch.update.push_back({scratch.probe_rx[i], w});
  }
  components = estimation::merge_beam_space(components,
                                            TrackerOptions::forgetting,
                                            scratch.update,
                                            TrackerOptions::max_components);
  return true;
}

}  // namespace mmw::track
