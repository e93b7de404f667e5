#include "replay.h"

#include <algorithm>
#include <cmath>

#include "antenna/geometry.h"
#include "estimation/covariance_ml.h"
#include "mac/probe.h"
#include "obs/digest.h"
#include "randgen/keylanes.h"

namespace mmwb {

namespace {

using namespace mmw;

/// Keeps replayed results observable so no call is optimised away.
volatile double g_sink = 0.0;

/// Per-call cost of `body`, which makes `calls` calls: microseconds (the
/// median of three passes, against host noise) and allocations.
struct Cost {
  double us = 0.0;
  double allocs = 0.0;
};

template <typename Body>
Cost measure(std::uint64_t calls, Body&& body) {
  if (calls == 0) return {};
  const double n = static_cast<double>(calls);
  std::vector<double> us;
  double allocs = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::uint64_t a0 = allocations();
    const double t0 = now_s();
    body();
    us.push_back((now_s() - t0) * 1e6 / n);
    allocs = static_cast<double>(allocations() - a0) / n;
  }
  return {median(us), allocs};
}

/// J distinct RX probe beams spread over the codebook for point i,
/// ascending (the serving engine's canonical probe order).
std::vector<index_t> spread_beams(index_t i, index_t j, index_t n_rx) {
  std::vector<index_t> beams;
  const index_t stride = std::max<index_t>(1, n_rx / j);
  for (index_t k = 0; k < j; ++k) beams.push_back((i + k * stride) % n_rx);
  std::sort(beams.begin(), beams.end());
  beams.erase(std::unique(beams.begin(), beams.end()), beams.end());
  return beams;
}

}  // namespace

channel::EvolutionConfig tracking_evolution() {
  channel::EvolutionConfig evo;
  evo.epoch_seconds = 0.5;
  evo.speed_mps = 1.4;
  evo.drift_rad_per_meter = 0.004;
  evo.shadow_sigma_db = 2.0;
  evo.shadow_coherence_m = 15.0;
  evo.blockage_onset_per_meter = 0.002;
  evo.blockage_clear_probability = 0.25;
  evo.blockage_gain = 0.02;
  return evo;
}

estimation::CovarianceMlOptions warm_ml_options(real gamma) {
  estimation::CovarianceMlOptions opts;
  opts.gamma = gamma;
  opts.max_iterations = 40;
  opts.tolerance = 1e-4;
  return opts;
}

bool replay_track_step(std::uint64_t seed, const TrackPoint& p,
                       real blockage_probability, index_t track_fades,
                       real collapse_scale, obs::QuantileDigest& losses) {
  randgen::Rng rng = randgen::Rng::stream(seed, p.key_a, p.key_b, p.key_c);
  const bool blocked =
      blockage_probability > 0.0 && rng.uniform() < blockage_probability;
  const real lambda = (blocked ? 0.0 : p.claimed_gain) + p.noise_var;
  real energy = 0.0;
  for (index_t k = 0; k < track_fades; ++k)
    energy += std::norm(rng.complex_normal(lambda));
  energy /= static_cast<real>(track_fades);
  losses.add(10.0 *
             std::log10(p.optimal_gain / std::max(p.claimed_gain, 1e-12)));
  return energy < p.trained_energy * collapse_scale;
}

ReplayCosts replay_costs(const ReplaySpec& spec) {
  const sim::Scenario& sc = *spec.scenario;
  const antenna::Codebook& tx_cb = spec.codebooks->tx;
  const antenna::Codebook& rx_cb = spec.codebooks->rx;
  const std::vector<ReplayPoint>& pts = spec.points;
  const index_t n = pts.size();
  const index_t n_rx = rx_cb.size();
  const index_t j = std::min(spec.probes_per_slot, n_rx);
  ReplayCosts out;
  if (n == 0) return out;

  // Inputs every later primitive reuses: one slot of probe energies per
  // point, its measurement list, and a prior (the resident state, or the
  // slot's own excess energies for a point that has none).
  std::vector<std::vector<index_t>> beams(n);
  std::vector<std::vector<real>> energies(n);
  std::vector<std::vector<estimation::BeamComponent>> priors(n), updates(n);
  linalg::Vector scratch(pts.front().link.rx_size());
  const auto probe_view = [&](const ReplayPoint& p) {
    mac::ProbeView view;
    view.link = &p.link;
    view.tx_codebook = &tx_cb;
    view.rx_codebook = &rx_cb;
    view.gamma = p.gamma;
    view.blockage_probability = spec.blockage_probability;
    return view;
  };

  // mac: one slot of J matched-filter probes per point.
  std::uint64_t probes = 0;
  for (index_t i = 0; i < n; ++i) {
    beams[i] = pts[i].probe_beams.empty() ? spread_beams(i, j, n_rx)
                                          : pts[i].probe_beams;
    probes += beams[i].size();
  }
  const Cost probe = measure(probes, [&] {
    for (index_t i = 0; i < n; ++i) {
      randgen::Rng rng = randgen::Rng::stream(sc.seed, pts[i].key_a,
                                              pts[i].key_b, pts[i].key_c);
      const mac::ProbeView view = probe_view(pts[i]);
      energies[i].clear();
      for (const index_t rx : beams[i])
        energies[i].push_back(mac::probe_energy(
            view, pts[i].tx_beam, rx, sc.fades_per_measurement, rng,
            scratch));
    }
  });
  out.probe_us = probe.us;
  out.probe_allocs = probe.allocs;
  for (index_t i = 0; i < n; ++i) {
    const real noise = 1.0 / pts[i].gamma;
    for (index_t k = 0; k < beams[i].size(); ++k) {
      const real w = energies[i][k] - noise;
      if (w > 0.0) updates[i].push_back({beams[i][k], w});
    }
    priors[i] = pts[i].prior.empty() ? updates[i] : pts[i].prior;
  }

  // randgen: stream construction.
  const std::uint64_t stream_reps = 20;
  out.stream_ns =
      1e3 * measure(stream_reps * n, [&] {
              double acc = 0.0;
              for (std::uint64_t r = 0; r < stream_reps; ++r)
                for (const ReplayPoint& p : pts)
                  acc += randgen::Rng::stream(sc.seed, p.key_a, p.key_b,
                                              p.key_c + r)
                             .uniform();
              g_sink = acc;
            }).us;

  // channel: link regeneration from the point's stream, the exhaustive
  // pair-gain scan (admission oracle / tracking grader), one epoch of
  // large-scale evolution.
  const Cost regen = measure(n, [&] {
    double acc = 0.0;
    for (const ReplayPoint& p : pts) acc += p.regen().rx_size();
    g_sink = acc;
  });
  out.link_regen_us = regen.us;
  out.link_regen_allocs = regen.allocs;
  out.pair_gain_scan_us = measure(n, [&] {
                            real best = 0.0;
                            for (const ReplayPoint& p : pts)
                              for (index_t t = 0; t < tx_cb.size(); ++t)
                                for (index_t r = 0; r < n_rx; ++r)
                                  best = std::max(
                                      best, p.link.mean_pair_gain(
                                                tx_cb.codeword(t),
                                                rx_cb.codeword(r)));
                            g_sink = best;
                          }).us;
  {
    const antenna::ArrayGeometry tx_geom =
        antenna::ArrayGeometry::upa(sc.tx_grid_x, sc.tx_grid_y);
    const antenna::ArrayGeometry rx_geom =
        antenna::ArrayGeometry::upa(sc.rx_grid_x, sc.rx_grid_y);
    const index_t m = std::min<index_t>(n, 200);
    std::vector<channel::LinkEvolution> evos;
    evos.reserve(m);
    for (index_t i = 0; i < m; ++i) {
      evos.emplace_back(tx_geom, rx_geom, pts[i].link.paths(), spec.evolution,
                        sc.seed, randgen::lanes::temporal_lane(0), i);
      evos.back().seek(9);
    }
    index_t epoch = 9;  // each pass advances every evolution one epoch
    out.evolve_us = measure(m, [&] {
                      ++epoch;
                      double acc = 0.0;
                      for (channel::LinkEvolution& e : evos) {
                        e.seek(epoch);
                        acc += e.current().rx_size();
                      }
                      g_sink = acc;
                    }).us;
  }

  // estimation codec + antenna scoring.
  std::vector<linalg::FactoredHermitian> qs(n);
  std::vector<real> scores(n_rx, 0.0);
  const Cost expand = measure(n, [&] {
    for (index_t i = 0; i < n; ++i)
      qs[i] = estimation::expand_beam_space(priors[i], rx_cb);
  });
  out.expand_us = expand.us;
  index_t scored = 0;
  for (const linalg::FactoredHermitian& q : qs) scored += q.empty() ? 0 : 1;
  out.scoring_us = measure(scored, [&] {
                     double acc = 0.0;
                     for (const linalg::FactoredHermitian& q : qs) {
                       if (q.empty()) continue;
                       rx_cb.covariance_scores_into(q, scores);
                       acc += scores[0];
                     }
                     g_sink = acc;
                   }).us;
  out.compress_us = measure(scored, [&] {
                      double acc = 0.0;
                      for (const linalg::FactoredHermitian& q : qs) {
                        if (q.empty()) continue;
                        acc += static_cast<double>(
                            estimation::compress_to_beam_space(
                                q, rx_cb, 6, scores)
                                .size());
                      }
                      g_sink = acc;
                    }).us;
  const Cost merge = measure(n, [&] {
    double acc = 0.0;
    for (index_t i = 0; i < n; ++i)
      acc += static_cast<double>(
          estimation::merge_beam_space(priors[i], 0.7, updates[i], 6).size());
    g_sink = acc;
  });
  out.merge_us = merge.us;
  out.codec_allocs = expand.allocs + merge.allocs;

  // estimation: the covariance-ML solve on one slot's measurements.
  {
    const index_t m = std::min(n, spec.ml_points);
    std::vector<std::vector<estimation::BeamMeasurement>> meas(m);
    for (index_t i = 0; i < m; ++i)
      for (index_t k = 0; k < beams[i].size(); ++k)
        meas[i].push_back({rx_cb.codeword(beams[i][k]), energies[i][k]});
    // The warm start is the resident state itself (none for a fresh one).
    std::vector<linalg::FactoredHermitian> warm(m);
    for (index_t i = 0; i < m && spec.warm_ml; ++i)
      warm[i] = estimation::expand_beam_space(pts[i].prior, rx_cb);
    const Cost ml = measure(m, [&] {
      double acc = 0.0;
      for (index_t i = 0; i < m; ++i) {
        if (spec.warm_ml) {
          acc += estimation::estimate_covariance_ml_warm(
                     n_rx, meas[i], warm_ml_options(pts[i].gamma), warm[i])
                     .objective;
        } else {
          estimation::CovarianceMlOptions opts;
          opts.gamma = pts[i].gamma;
          acc += estimation::estimate_covariance_ml(n_rx, meas[i], opts)
                     .objective;
        }
      }
      g_sink = acc;
    });
    out.ml_solve_us = ml.us;
    out.ml_allocs = ml.allocs;
  }

  // obs: digest add / shard merge, on loss-like values.
  {
    std::vector<real> values;
    randgen::Rng rng(sc.seed);
    for (index_t i = 0; i < 4096; ++i) values.push_back(rng.exponential(2.0));
    const std::uint64_t adds = 50 * values.size();
    out.digest_add_ns = 1e3 * measure(adds, [&] {
                                obs::QuantileDigest d;
                                for (int r = 0; r < 50; ++r)
                                  for (const real v : values) d.add(v);
                                g_sink = d.quantile(0.99);
                              }).us;
    std::vector<obs::QuantileDigest> shards(64);
    for (index_t s = 0; s < shards.size(); ++s)
      for (index_t i = 0; i < 300; ++i)
        shards[s].add(values[(s * 300 + i) % values.size()]);
    out.digest_merge_us = measure(shards.size(), [&] {
                            obs::QuantileDigest total;
                            for (const obs::QuantileDigest& s : shards)
                              total.merge(s);
                            g_sink = total.quantile(0.5);
                          }).us;
  }

  // serve: the tracking fast path (replay_track_step).
  {
    std::vector<TrackPoint> track = spec.track_points;
    if (track.empty()) {
      for (index_t i = 0; i < n; ++i) {
        const ReplayPoint& p = pts[i];
        TrackPoint t;
        t.key_a = p.key_a;
        t.key_b = p.key_b;
        t.key_c = p.key_c;
        t.claimed_gain = p.link.mean_pair_gain(tx_cb.codeword(p.tx_beam),
                                               rx_cb.codeword(beams[i][0]));
        t.optimal_gain = t.claimed_gain;
        t.noise_var = 1.0 / p.gamma;
        t.trained_energy = t.claimed_gain + t.noise_var;
        track.push_back(t);
      }
    }
    const real collapse_scale = std::pow(10.0, -spec.collapse_db / 10.0);
    obs::QuantileDigest d;
    out.track_step_us = measure(track.size(), [&] {
                          index_t outages = 0;
                          for (const TrackPoint& t : track)
                            outages += replay_track_step(
                                sc.seed, t, spec.blockage_probability,
                                spec.track_fades, collapse_scale, d);
                          g_sink = static_cast<double>(outages);
                        }).us;
  }

  // sim: one Monte-Carlo trial's set-up (link, codebooks, oracle).
  {
    const index_t m = std::min<index_t>(n, 50);
    out.make_trial_us = measure(m, [&] {
                          double acc = 0.0;
                          for (index_t i = 0; i < m; ++i) {
                            randgen::Rng rng = randgen::Rng::stream(sc.seed, i);
                            acc += sim::make_trial(sc, rng).link.rx_size();
                          }
                          g_sink = acc;
                        }).us;
  }
  return out;
}

}  // namespace mmwb
