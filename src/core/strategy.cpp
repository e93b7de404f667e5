#include "core/strategy.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmw::core {

namespace {

/// Per-slot alignment telemetry for the proposed scheme (DESIGN.md §8).
struct SlotMetrics {
  obs::Counter slots;
  obs::Histogram measurements;
  obs::Histogram estimated_rank;
  static const SlotMetrics& get() {
    static const SlotMetrics m{
        obs::Registry::global().counter("core.strategy.slots"),
        obs::Registry::global().histogram(
            "core.strategy.slot_measurements",
            obs::HistogramBuckets::linear(1.0, 1.0, 16)),
        obs::Registry::global().histogram(
            "core.strategy.estimated_rank",
            obs::HistogramBuckets::linear(0.0, 1.0, 17)),
    };
    return m;
  }
};

}  // namespace

using antenna::Codebook;
using estimation::BeamMeasurement;
using linalg::FactoredHermitian;
using mac::Session;

void RandomSearch::run(Session& session) const {
  const index_t total =
      session.tx_codebook().size() * session.rx_codebook().size();
  const index_t nr = session.rx_codebook().size();
  // A random permutation of all pairs, consumed front-to-back, is exactly
  // "uniformly random among unmeasured pairs" with no rejection loop.
  const auto order = session.rng().permutation(total);
  for (const index_t flat : order) {
    if (session.exhausted()) return;
    session.measure(flat / nr, flat % nr);
  }
}

void ScanSearch::run(Session& session) const {
  const auto tx_order = session.tx_codebook().serpentine_order();
  const auto rx_order = session.rx_codebook().serpentine_order();
  const index_t nt = tx_order.size();
  const index_t nr = rx_order.size();

  // Joint boustrophedon: the RX sweep direction alternates per TX step, so
  // consecutive pairs always differ by one grid step in exactly one beam.
  std::vector<std::pair<index_t, index_t>> path;
  path.reserve(nt * nr);
  for (index_t ti = 0; ti < nt; ++ti) {
    if (ti % 2 == 0) {
      for (index_t ri = 0; ri < nr; ++ri)
        path.emplace_back(tx_order[ti], rx_order[ri]);
    } else {
      for (index_t ri = nr; ri-- > 0;)
        path.emplace_back(tx_order[ti], rx_order[ri]);
    }
  }

  // Random starting pair, then cyclic traversal (paper: "a starting beam
  // pair is selected, and then ... spatially adjacent to the previous").
  const index_t start = static_cast<index_t>(
      session.rng().uniform_int(0, path.size() - 1));
  for (index_t k = 0; k < path.size(); ++k) {
    if (session.exhausted()) return;
    const auto& [t, r] = path[(start + k) % path.size()];
    session.measure(t, r);
  }
}

void ExhaustiveSearch::run(Session& session) const {
  const index_t nr = session.rx_codebook().size();
  const index_t total = session.tx_codebook().size() * nr;
  for (index_t flat = 0; flat < total; ++flat) {
    if (session.exhausted()) return;
    session.measure(flat / nr, flat % nr);
  }
}

ProposedAlignment::ProposedAlignment(ProposedOptions options)
    : options_(std::move(options)) {
  MMW_REQUIRE_MSG(options_.measurements_per_slot >= 2,
                  "proposed scheme needs J >= 2 measurements per TX-slot");
}

void ProposedAlignment::run(Session& session) const {
  const Codebook& rx_cb = session.rx_codebook();
  const index_t n = rx_cb.codeword(0).size();

  estimation::CovarianceMlOptions est = options_.estimator;
  est.gamma = session.gamma();

  // Estimates stay in factored form end-to-end: the solvers return B Q_r Bᴴ
  // and every downstream consumer (codebook scoring, probe ranking) goes
  // through the factor, so Q̂ is never lifted to N×N; it is only carried
  // to the next slot (Algorithm 1). All solves route through the
  // degradation ladder (estimation/robust.h): with no fault context armed
  // this is bit-identical to calling the configured estimator directly.
  const auto estimate =
      [&](std::span<const BeamMeasurement> ms) -> FactoredHermitian {
    return estimation::robust_estimate_covariance(
               n, ms, est, options_.estimator_kind)
        .q;
  };

  const index_t j_total =
      std::min<index_t>(options_.measurements_per_slot, rx_cb.size());

  // Random TX direction per slot, never repeated within a round
  // (Sec. IV-B2). When the budget outlasts one pass over U, further rounds
  // revisit TX beams with their still-unmeasured RX beams, so the scheme is
  // an anytime algorithm that degenerates to the exhaustive scan at a 100%
  // search rate, as the paper states.
  const auto tx_order =
      session.rng().permutation(session.tx_codebook().size());

  // Per-beam score below which the previous estimate carries no usable
  // information about a beam; such probe slots are filled randomly instead
  // of by (arbitrary) rank order among zero scores.
  const real beam_floor = options_.exploration_floor / session.gamma();

  std::optional<FactoredHermitian> q_prev;
  index_t slot = 0;
  index_t idle_slots = 0;  // consecutive TX beams with nothing left
  // One score buffer for every slot of the run: covariance_scores_into
  // writes over it in place, so the per-slot feedback loop allocates
  // nothing for scoring.
  std::vector<real> scores(rx_cb.size());
  while (!session.exhausted() && idle_slots < tx_order.size()) {
    const index_t u_idx = tx_order[slot % tx_order.size()];
    ++slot;

    obs::TraceScope slot_span("core.strategy.slot", "alignment");
    slot_span.arg("slot", static_cast<double>(slot));
    slot_span.arg("tx_beam", static_cast<double>(u_idx));

    std::vector<index_t> unmeasured;
    unmeasured.reserve(rx_cb.size());
    for (index_t v = 0; v < rx_cb.size(); ++v)
      if (!session.has_measured(u_idx, v)) unmeasured.push_back(v);
    if (unmeasured.empty()) {
      ++idle_slots;
      continue;
    }
    idle_slots = 0;

    // --- Step 1: choose the first J−1 RX beams: the J−1 largest Rayleigh
    // quotients under the previous slot's estimate (Sec. IV-B2); beams the
    // estimate knows nothing about are drawn randomly. -------------------
    const index_t j_explore =
        std::min<index_t>(j_total - 1, unmeasured.size());
    std::vector<index_t> probes;
    probes.reserve(j_explore);
    std::vector<bool> picked(rx_cb.size(), false);
    if (q_prev.has_value()) {
      rx_cb.covariance_scores_into(*q_prev, scores);
      std::vector<index_t> order = unmeasured;
      // Ties break by lowest codeword index (std::sort is unstable); see
      // top_k_for_covariance — same determinism requirement.
      std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
        return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
      });
      for (const index_t v : order) {
        if (probes.size() == j_explore || scores[v] <= beam_floor) break;
        probes.push_back(v);
        picked[v] = true;
      }
    }
    if (probes.size() < j_explore) {
      std::vector<index_t> rest;
      for (const index_t v : unmeasured)
        if (!picked[v]) rest.push_back(v);
      const auto shuffle = session.rng().permutation(rest.size());
      for (const index_t k : shuffle) {
        if (probes.size() == j_explore) break;
        probes.push_back(rest[k]);
      }
    }

    // --- Step 2: measure them and estimate Q̂ for this slot. -------------
    std::vector<BeamMeasurement> slot_measurements;
    slot_measurements.reserve(j_total);
    for (const index_t v_idx : probes) {
      if (session.exhausted()) return;
      const real energy = session.measure(u_idx, v_idx);
      slot_measurements.push_back({rx_cb.codeword(v_idx), energy});
    }
    FactoredHermitian q_hat = estimate(slot_measurements);

    // --- Step 3: J-th measurement along the best unmeasured codeword under
    // Q̂ (eq. 26 restricted to the codebook). -----------------------------
    if (session.exhausted()) return;
    for (const index_t v_idx :
         rx_cb.top_k_for_covariance(q_hat, rx_cb.size())) {
      if (session.has_measured(u_idx, v_idx)) continue;
      const real energy = session.measure(u_idx, v_idx);
      slot_measurements.push_back({rx_cb.codeword(v_idx), energy});
      break;
    }

    // --- Step 4: carry the slot's covariance estimate forward. ----------
    if (options_.reestimate_with_final &&
        slot_measurements.size() > probes.size()) {
      q_hat = estimate(slot_measurements);
    }
    slot_span.arg("beams", static_cast<double>(slot_measurements.size()));
    slot_span.arg("rank", static_cast<double>(q_hat.rank()));
    if (obs::enabled()) {
      const SlotMetrics& m = SlotMetrics::get();
      m.slots.add();
      m.measurements.record(static_cast<real>(slot_measurements.size()));
      m.estimated_rank.record(static_cast<real>(q_hat.rank()));
    }
    q_prev = std::move(q_hat);
  }
}

PingPongAlignment::PingPongAlignment(PingPongOptions options)
    : options_(std::move(options)) {
  MMW_REQUIRE_MSG(options_.measurements_per_slot >= 2,
                  "ping-pong needs J >= 2 measurements per slot");
}

void PingPongAlignment::run(Session& session) const {
  const Codebook& tx_cb = session.tx_codebook();
  const Codebook& rx_cb = session.rx_codebook();
  const index_t j_total = std::min<index_t>(
      options_.measurements_per_slot,
      std::min(tx_cb.size(), rx_cb.size()));

  estimation::CovarianceMlOptions est = options_.estimator;
  est.gamma = session.gamma();
  const real beam_floor = options_.exploration_floor / session.gamma();

  // Both running estimates live in factored form; scoring goes through the
  // beam-span factor.
  std::optional<FactoredHermitian> q_rx;  // dim N, learned in RX-phase slots
  std::optional<FactoredHermitian> q_tx;  // dim M, learned in TX-phase slots

  // One score buffer shared by both phases (resized per codebook; capacity
  // sticks at the larger side after the first TX/RX round trip).
  std::vector<real> scores;

  // Picks the best-scoring index under an optional covariance among those
  // for which `usable` holds, falling back to a random usable index.
  const auto pick = [&](const Codebook& cb,
                        const std::optional<FactoredHermitian>& q,
                        auto&& usable) -> std::optional<index_t> {
    if (q.has_value()) {
      scores.resize(cb.size());
      cb.covariance_scores_into(*q, scores);
      index_t best = cb.size();
      real best_score = beam_floor;
      for (index_t i = 0; i < cb.size(); ++i)
        if (usable(i) && scores[i] > best_score) {
          best_score = scores[i];
          best = i;
        }
      if (best < cb.size()) return best;
    }
    for (const index_t i : session.rng().permutation(cb.size()))
      if (usable(i)) return i;
    return std::nullopt;
  };

  // Ranked probe list for one slot: top scores above the floor, then
  // random fill, all restricted to `usable`.
  const auto choose_probes = [&](const Codebook& cb,
                                 const std::optional<FactoredHermitian>& q,
                                 auto&& usable, index_t count) {
    std::vector<index_t> probes;
    std::vector<bool> picked(cb.size(), false);
    if (q.has_value()) {
      scores.resize(cb.size());
      cb.covariance_scores_into(*q, scores);
      std::vector<index_t> order;
      for (index_t i = 0; i < cb.size(); ++i)
        if (usable(i)) order.push_back(i);
      // Ties break by lowest codeword index, as in ProposedAlignment.
      std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
        return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
      });
      for (const index_t i : order) {
        if (probes.size() == count || scores[i] <= beam_floor) break;
        probes.push_back(i);
        picked[i] = true;
      }
    }
    for (const index_t i : session.rng().permutation(cb.size())) {
      if (probes.size() == count) break;
      if (usable(i) && !picked[i]) probes.push_back(i);
    }
    return probes;
  };

  bool rx_phase = true;
  index_t stalled = 0;
  while (!session.exhausted() && stalled < 2) {
    if (rx_phase) {
      // TX dwells on its best-believed beam; RX probes and learns.
      const auto u_idx = pick(tx_cb, q_tx, [&](index_t u) {
        for (index_t v = 0; v < rx_cb.size(); ++v)
          if (!session.has_measured(u, v)) return true;
        return false;
      });
      if (!u_idx) {
        ++stalled;
        rx_phase = false;
        continue;
      }
      stalled = 0;
      const auto usable_v = [&](index_t v) {
        return !session.has_measured(*u_idx, v);
      };
      std::vector<estimation::BeamMeasurement> ms;
      for (const index_t v : choose_probes(rx_cb, q_rx, usable_v,
                                           j_total - 1)) {
        if (session.exhausted()) return;
        ms.push_back({rx_cb.codeword(v), session.measure(*u_idx, v)});
      }
      if (!ms.empty()) {
        FactoredHermitian q =
            estimation::robust_estimate_covariance(
                rx_cb.codeword(0).size(), ms, est,
                estimation::EstimatorKind::kRegularizedMl)
                .q;
        if (!session.exhausted()) {
          for (const index_t v :
               rx_cb.top_k_for_covariance(q, rx_cb.size())) {
            if (!usable_v(v)) continue;
            ms.push_back({rx_cb.codeword(v), session.measure(*u_idx, v)});
            q = estimation::robust_estimate_covariance(
                    rx_cb.codeword(0).size(), ms, est,
                    estimation::EstimatorKind::kRegularizedMl)
                    .q;
            break;
          }
        }
        q_rx = std::move(q);
      }
    } else {
      // RX dwells on its best-believed beam; TX probes and learns.
      const auto v_idx = pick(rx_cb, q_rx, [&](index_t v) {
        for (index_t u = 0; u < tx_cb.size(); ++u)
          if (!session.has_measured(u, v)) return true;
        return false;
      });
      if (!v_idx) {
        ++stalled;
        rx_phase = true;
        continue;
      }
      stalled = 0;
      const auto usable_u = [&](index_t u) {
        return !session.has_measured(u, *v_idx);
      };
      std::vector<estimation::BeamMeasurement> ms;
      for (const index_t u : choose_probes(tx_cb, q_tx, usable_u,
                                           j_total - 1)) {
        if (session.exhausted()) return;
        ms.push_back({tx_cb.codeword(u), session.measure(u, *v_idx)});
      }
      if (!ms.empty()) {
        FactoredHermitian q =
            estimation::robust_estimate_covariance(
                tx_cb.codeword(0).size(), ms, est,
                estimation::EstimatorKind::kRegularizedMl)
                .q;
        if (!session.exhausted()) {
          for (const index_t u :
               tx_cb.top_k_for_covariance(q, tx_cb.size())) {
            if (!usable_u(u)) continue;
            ms.push_back({tx_cb.codeword(u), session.measure(u, *v_idx)});
            q = estimation::robust_estimate_covariance(
                    tx_cb.codeword(0).size(), ms, est,
                    estimation::EstimatorKind::kRegularizedMl)
                    .q;
            break;
          }
        }
        q_tx = std::move(q);
      }
    }
    rx_phase = !rx_phase;
  }
}

void LocalSearch::run(Session& session) const {
  const Codebook& tx_cb = session.tx_codebook();
  const Codebook& rx_cb = session.rx_codebook();
  const index_t nr = rx_cb.size();

  // Random unmeasured pair for (re)starts, consumed lazily.
  const auto restart_order = session.rng().permutation(tx_cb.size() * nr);
  index_t restart_cursor = 0;
  auto next_restart = [&]() -> std::optional<std::pair<index_t, index_t>> {
    while (restart_cursor < restart_order.size()) {
      const index_t flat = restart_order[restart_cursor++];
      const index_t t = flat / nr, r = flat % nr;
      if (!session.has_measured(t, r)) return std::make_pair(t, r);
    }
    return std::nullopt;
  };

  while (!session.exhausted()) {
    const auto start = next_restart();
    if (!start) return;  // every pair measured
    index_t cur_t = start->first, cur_r = start->second;
    real cur_energy = session.measure(cur_t, cur_r);

    // Hill climb until no unmeasured neighbour improves.
    bool improved = true;
    while (improved && !session.exhausted()) {
      improved = false;
      index_t best_t = cur_t, best_r = cur_r;
      real best_energy = cur_energy;
      // Neighbours: one grid step in the TX beam OR the RX beam.
      for (const index_t t : tx_cb.neighbors(cur_t)) {
        if (session.exhausted()) break;
        if (session.has_measured(t, cur_r)) continue;
        const real e = session.measure(t, cur_r);
        if (e > best_energy) {
          best_energy = e;
          best_t = t;
          best_r = cur_r;
        }
      }
      for (const index_t r : rx_cb.neighbors(cur_r)) {
        if (session.exhausted()) break;
        if (session.has_measured(cur_t, r)) continue;
        const real e = session.measure(cur_t, r);
        if (e > best_energy) {
          best_energy = e;
          best_t = cur_t;
          best_r = r;
        }
      }
      if (best_energy > cur_energy) {
        cur_t = best_t;
        cur_r = best_r;
        cur_energy = best_energy;
        improved = true;
      }
    }
  }
}

HierarchicalSearch::HierarchicalSearch(HierarchicalOptions options)
    : options_(options) {
  MMW_REQUIRE_MSG(options_.stride >= 1, "stride must be at least 1");
}

void HierarchicalSearch::run(Session& session) const {
  const Codebook& tx_cb = session.tx_codebook();
  const Codebook& rx_cb = session.rx_codebook();
  const index_t s = options_.stride;

  auto subgrid = [s](const Codebook& cb) {
    std::vector<index_t> out;
    for (index_t x = 0; x < cb.grid_x(); x += s)
      for (index_t y = 0; y < cb.grid_y(); y += s)
        out.push_back(x * cb.grid_y() + y);
    return out;
  };

  // Stage 1: coarse sweep.
  index_t best_t = 0, best_r = 0;
  real best_energy = -1.0;
  for (const index_t t : subgrid(tx_cb)) {
    for (const index_t r : subgrid(rx_cb)) {
      if (session.exhausted()) return;
      const real e = session.measure(t, r);
      if (e > best_energy) {
        best_energy = e;
        best_t = t;
        best_r = r;
      }
    }
  }

  // Stage 2: exhaustive refinement inside the Chebyshev window around the
  // coarse winner (window radius = stride·refine_radius so the window
  // covers the coarse cell).
  const index_t radius = s * options_.refine_radius;
  auto window = [radius](const Codebook& cb, index_t center) {
    const auto [cx_, cy_] = cb.coordinates(center);
    std::vector<index_t> out;
    const index_t x_lo = cx_ >= radius ? cx_ - radius : 0;
    const index_t y_lo = cy_ >= radius ? cy_ - radius : 0;
    const index_t x_hi = std::min(cb.grid_x() - 1, cx_ + radius);
    const index_t y_hi = std::min(cb.grid_y() - 1, cy_ + radius);
    for (index_t x = x_lo; x <= x_hi; ++x)
      for (index_t y = y_lo; y <= y_hi; ++y)
        out.push_back(x * cb.grid_y() + y);
    return out;
  };
  for (const index_t t : window(tx_cb, best_t)) {
    for (const index_t r : window(rx_cb, best_r)) {
      if (session.exhausted()) return;
      if (!session.has_measured(t, r)) session.measure(t, r);
    }
  }

  // Stage 3: leftover budget explores randomly.
  const index_t nr = rx_cb.size();
  for (const index_t flat :
       session.rng().permutation(tx_cb.size() * nr)) {
    if (session.exhausted()) return;
    if (!session.has_measured(flat / nr, flat % nr))
      session.measure(flat / nr, flat % nr);
  }
}

}  // namespace mmw::core
