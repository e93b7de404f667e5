#include "core/strategy.h"

#include <algorithm>
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
  // degradation ladder (estimation/robust.h) with the session's fault
  // state: on a clean run this is bit-identical to calling the configured
  // estimator directly.
  const auto estimate =
      [&](std::span<const BeamMeasurement> ms) -> FactoredHermitian {
    return estimation::robust_estimate_covariance(
               n, ms, est, options_.estimator_kind, session.armed_faults())
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

    const auto unmeasured_v = [&](index_t v) {
      return !session.has_measured(u_idx, v);
    };

    // --- Step 1: choose the first J−1 RX beams: the J−1 largest Rayleigh
    // quotients under the previous slot's estimate (Sec. IV-B2); beams the
    // estimate knows nothing about are drawn randomly. -------------------
    const index_t j_explore =
        std::min<index_t>(j_total - 1, unmeasured.size());
    std::vector<index_t> probes;
    probes.reserve(rx_cb.size());
    if (q_prev.has_value()) {
      rx_cb.covariance_scores_into(*q_prev, scores);
      antenna::rank_beams(scores, beam_floor, j_explore, unmeasured_v,
                          probes);
    }
    if (probes.size() < j_explore) {
      std::vector<index_t> rest;
      for (const index_t v : unmeasured)
        if (std::find(probes.begin(), probes.end(), v) == probes.end())
          rest.push_back(v);
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
    const index_t explored = probes.size();
    rx_cb.covariance_scores_into(q_hat, scores);
    antenna::rank_beams(scores, antenna::kNoFloor, 1, unmeasured_v, probes);
    if (probes.size() > explored) {
      const index_t v_idx = probes.back();
      const real energy = session.measure(u_idx, v_idx);
      slot_measurements.push_back({rx_cb.codeword(v_idx), energy});
    }

    // --- Step 4: carry the slot's covariance estimate forward. ----------
    if (options_.reestimate_with_final && probes.size() > explored) {
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

  // One score buffer and one pick list shared by both phases (the buffer is
  // resized per codebook; capacity sticks at the larger side after the
  // first TX/RX round trip).
  std::vector<real> scores;
  std::vector<index_t> picks;
  const auto score = [&](const Codebook& cb, const FactoredHermitian& q) {
    scores.resize(cb.size());
    cb.covariance_scores_into(q, scores);
  };
  const auto estimate = [&](const Codebook& cb,
                            std::span<const BeamMeasurement> ms) {
    return estimation::robust_estimate_covariance(
               cb.codeword(0).size(), ms, est,
               estimation::EstimatorKind::kRegularizedMl,
               session.armed_faults())
        .q;
  };

  // One phase: the dwell side holds its best-believed beam among those
  // with an unmeasured pair (random when nothing scores above the floor);
  // the probe side measures its J − 1 top scores above the floor, topped up
  // at random, then the best unmeasured beam under the fresh estimate, and
  // learns. `pair(dwell, probe)` maps the roles to (tx, rx). Returns false
  // when no dwell beam has an unmeasured pair left.
  const auto learn = [&](const Codebook& dwell_cb,
                         const std::optional<FactoredHermitian>& q_dwell,
                         const Codebook& probe_cb,
                         std::optional<FactoredHermitian>& q_probe,
                         auto&& pair) {
    const auto measured = [&](index_t d, index_t p) {
      const auto [t, r] = pair(d, p);
      return session.has_measured(t, r);
    };
    const auto usable_d = [&](index_t d) {
      for (index_t p = 0; p < probe_cb.size(); ++p)
        if (!measured(d, p)) return true;
      return false;
    };
    picks.clear();
    if (q_dwell.has_value()) {
      score(dwell_cb, *q_dwell);
      antenna::rank_beams(scores, beam_floor, 1, usable_d, picks);
    }
    if (picks.empty()) {
      for (const index_t d : session.rng().permutation(dwell_cb.size()))
        if (usable_d(d)) {
          picks.push_back(d);
          break;
        }
      if (picks.empty()) return false;
    }
    const index_t d = picks.front();
    const auto usable_p = [&](index_t p) { return !measured(d, p); };
    const auto measure = [&](index_t p) {
      const auto [t, r] = pair(d, p);
      return BeamMeasurement{probe_cb.codeword(p), session.measure(t, r)};
    };

    const index_t count = j_total - 1;
    picks.clear();
    if (q_probe.has_value()) {
      score(probe_cb, *q_probe);
      antenna::rank_beams(scores, beam_floor, count, usable_p, picks);
    }
    for (const index_t p : session.rng().permutation(probe_cb.size())) {
      if (picks.size() == count) break;
      if (usable_p(p) &&
          std::find(picks.begin(), picks.end(), p) == picks.end())
        picks.push_back(p);
    }
    std::vector<BeamMeasurement> ms;
    for (const index_t p : picks) {
      if (session.exhausted()) return true;
      ms.push_back(measure(p));
    }
    if (ms.empty()) return true;
    FactoredHermitian q = estimate(probe_cb, ms);
    if (!session.exhausted()) {
      score(probe_cb, q);
      picks.clear();
      antenna::rank_beams(scores, antenna::kNoFloor, 1, usable_p, picks);
      if (!picks.empty()) {
        ms.push_back(measure(picks.front()));
        q = estimate(probe_cb, ms);
      }
    }
    q_probe = std::move(q);
    return true;
  };

  const auto rx_pair = [](index_t d, index_t p) { return std::pair{d, p}; };
  const auto tx_pair = [](index_t d, index_t p) { return std::pair{p, d}; };
  bool rx_phase = true;  // RX probes while TX dwells, then the reverse
  index_t stalled = 0;
  while (!session.exhausted() && stalled < 2) {
    const bool learned = rx_phase ? learn(tx_cb, q_tx, rx_cb, q_rx, rx_pair)
                                  : learn(rx_cb, q_rx, tx_cb, q_tx, tx_pair);
    stalled = learned ? 0 : stalled + 1;
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

void HierarchicalSearch::run(Session& session) const {
  const Codebook& tx_cb = session.tx_codebook();
  const Codebook& rx_cb = session.rx_codebook();
  const index_t s = HierarchicalOptions::stride;

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
  const index_t radius = s * HierarchicalOptions::refine_radius;
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
