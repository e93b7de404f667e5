// serve_steady and serve_realign_ml: the serving engine stepped one epoch
// per timed round.
//
// serve_steady is the E9 deployment (64 hex sites, beam-space estimator,
// 1% arrivals per site per epoch, mean sojourn 100 epochs). About 95% of
// steps take the O(1) tracking fast path, so churn, the fast path and the
// loss digest carry the epoch; the covariance-ML solver is never called.
//
// serve_realign_ml is the same engine the other way round: a small
// population on 7 sites with the warm-started ML estimator, blockage and
// short sojourns, so about a quarter of steps are aligning and the ML
// solve dominates the epoch.
#include <algorithm>
#include <cmath>

#include "harness.h"
#include "mac/probe.h"
#include "obs/manifest.h"
#include "randgen/keylanes.h"
#include "replay.h"
#include "serve/serve.h"
#include "track/policy.h"

namespace mmwb {

namespace {

using namespace mmw;

constexpr index_t kWarmupEpochs = 4;

/// The E9 serving scenario (bench/ext_serving_throughput.cpp).
sim::Scenario e9_scenario(std::uint64_t seed) {
  sim::Scenario sc;
  sc.channel = sim::ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 4;
  sc.gamma = 1000.0;
  sc.seed = seed;
  sc.threads = 1;
  return sc;
}

/// An E9-style configuration: arrivals are `arrival_share` of the per-site
/// population per epoch.
serve::ServeConfig e9_config(std::uint64_t seed, index_t sites,
                             index_t sessions, real arrival_share,
                             real sojourn) {
  serve::ServeConfig cfg;
  cfg.scenario = e9_scenario(seed);
  cfg.topology.cells = sites;
  cfg.topology.cell_radius_m = 100.0;
  cfg.initial_sessions = sessions;
  const real per_site =
      static_cast<real>(sessions) / static_cast<real>(sites);
  cfg.arrival_rate = arrival_share * per_site;
  cfg.mean_sojourn_epochs = sojourn;
  cfg.align_epochs = cfg.scenario.tx_grid_x * cfg.scenario.tx_grid_y;
  cfg.probes_per_slot = 8;
  cfg.track_fades = 4;
  cfg.session_block = std::clamp<index_t>(
      static_cast<index_t>(per_site) + 1, 256, 4096);
  return cfg;
}

std::vector<estimation::BeamComponent> resident_components(
    const serve::UserSession& s) {
  std::vector<estimation::BeamComponent> c;
  for (index_t i = 0; i < s.rank; ++i)
    c.push_back({s.comp_beam[i], s.comp_weight[i]});
  return c;
}

/// The RX beams an aligning session probes in its next slot, as
/// ServingEngine::step_align picks them under the default cursor-sweep
/// policy: the top-(J−1) codewords of the resident covariance, then the
/// cursor's exploration probes, ascending.
std::vector<index_t> align_probe_beams(const serve::UserSession& s,
                                       const antenna::Codebook& rx,
                                       index_t j) {
  std::vector<index_t> beams;
  const index_t n_rx = rx.size();
  const linalg::FactoredHermitian q =
      estimation::expand_beam_space(resident_components(s), rx);
  if (!q.empty()) {
    std::vector<real> scores(n_rx);
    rx.covariance_scores_into(q, scores);
    for (index_t pick = 0; pick < (j > 1 ? j - 1 : 1); ++pick) {
      index_t best = n_rx;
      for (index_t v = 0; v < n_rx; ++v)
        if (scores[v] > 0.0 &&
            std::find(beams.begin(), beams.end(), v) == beams.end() &&
            (best == n_rx || scores[v] > scores[best]))
          best = v;
      if (best == n_rx) break;
      beams.push_back(best);
    }
  }
  track::append_cursor_probes(s.user_key, s.cursor, n_rx, j, beams);
  std::sort(beams.begin(), beams.end());
  return beams;
}

/// One alignment slot of ServingEngine::step_align, replayed through the
/// public calls it makes: the session's resident state after the slot of
/// `epoch`. replay() compares it with the engine's, which ties the [R]
/// replay's probe set and call chain to the engine.
serve::UserSession replay_align_step(const serve::ServeConfig& cfg,
                                     const sim::Topology& topology,
                                     const sim::CodebookPair& cb,
                                     index_t site, serve::UserSession s,
                                     std::uint64_t epoch) {
  const sim::Scenario& sc = cfg.scenario;
  const std::uint64_t lane = randgen::lanes::serve_user_lane(site);
  randgen::Rng id = randgen::Rng::stream(sc.seed, lane, s.user_key, 0);
  topology.place_user(site, id);
  const channel::Link link = sim::make_scenario_link(sc, id);
  randgen::Rng rng = randgen::Rng::stream(sc.seed, lane, s.user_key, epoch + 1);

  const index_t n_rx = cb.rx.size();
  const index_t j = std::min(cfg.probes_per_slot, n_rx);
  const index_t tx = (s.user_key + s.slots_aligned) % cb.tx.size();
  const std::vector<index_t> beams = align_probe_beams(s, cb.rx, j);
  const real noise_var = s.noise_var;
  mac::ProbeView view;
  view.link = &link;
  view.tx_codebook = &cb.tx;
  view.rx_codebook = &cb.rx;
  view.gamma = 1.0 / noise_var;
  view.blockage_probability = cfg.blockage_probability;
  linalg::Vector scratch(link.rx_size());
  std::vector<real> energy;
  for (const index_t rx : beams) {
    const real e = mac::probe_energy(view, tx, rx, sc.fades_per_measurement,
                                     rng, scratch);
    energy.push_back(e);
    if (e > static_cast<real>(s.trained_energy)) {
      s.trained_energy = static_cast<float>(e);
      s.tx_beam = static_cast<std::uint16_t>(tx);
      s.rx_beam = static_cast<std::uint16_t>(rx);
    }
  }
  s.cursor += static_cast<std::uint32_t>(j);

  const std::vector<estimation::BeamComponent> prior = resident_components(s);
  std::vector<estimation::BeamComponent> merged;
  if (cfg.estimator == serve::EstimatorKind::kWarmMl) {
    std::vector<estimation::BeamMeasurement> meas;
    for (index_t i = 0; i < beams.size(); ++i)
      meas.push_back({cb.rx.codeword(beams[i]), energy[i]});
    const estimation::CovarianceMlResult res =
        estimation::estimate_covariance_ml_warm(
            n_rx, meas, warm_ml_options(1.0 / noise_var),
            estimation::expand_beam_space(prior, cb.rx));
    std::vector<real> scores(n_rx);
    merged = estimation::merge_beam_space(
        prior, cfg.forgetting,
        estimation::compress_to_beam_space(res.q, cb.rx,
                                           serve::kMaxComponents, scores),
        serve::kMaxComponents);
  } else {
    std::vector<estimation::BeamComponent> update;
    for (index_t i = 0; i < beams.size(); ++i)
      if (energy[i] - noise_var > 0.0)
        update.push_back({beams[i], energy[i] - noise_var});
    merged = estimation::merge_beam_space(prior, cfg.forgetting, update,
                                          serve::kMaxComponents);
  }
  s.rank = static_cast<std::uint8_t>(merged.size());
  for (index_t i = 0; i < serve::kMaxComponents; ++i) {
    s.comp_beam[i] =
        i < merged.size() ? static_cast<std::uint16_t>(merged[i].beam) : 0;
    s.comp_weight[i] =
        i < merged.size() ? static_cast<float>(merged[i].weight) : 0.0f;
  }
  ++s.slots_aligned;
  if (s.slots_aligned >= cfg.align_epochs && s.trained_energy >= 0.0f) {
    s.aligning = 0;
    s.claimed_gain = static_cast<float>(link.mean_pair_gain(
        cb.tx.codeword(s.tx_beam), cb.rx.codeword(s.rx_beam)));
  }
  return s;
}

bool same_state(const serve::UserSession& a, const serve::UserSession& b) {
  if (a.rank != b.rank || a.cursor != b.cursor ||
      a.slots_aligned != b.slots_aligned || a.aligning != b.aligning ||
      a.tx_beam != b.tx_beam || a.rx_beam != b.rx_beam ||
      a.trained_energy != b.trained_energy ||
      a.claimed_gain != b.claimed_gain)
    return false;
  for (index_t i = 0; i < a.rank; ++i)
    if (a.comp_beam[i] != b.comp_beam[i] ||
        a.comp_weight[i] != b.comp_weight[i])
      return false;
  return true;
}

class ServeWorkload final : public Workload {
 public:
  /// `e9_golden`: compare the E9 golden CSV at the default seed (it checks
  /// the beam-space engine, so one serve workload runs it).
  ServeWorkload(serve::ServeConfig cfg, index_t quality_rounds, bool e9_golden)
      : cfg_(std::move(cfg)),
        quality_rounds_(quality_rounds),
        e9_golden_(e9_golden) {}

  void setup() override {
    engine_.reset();
    engine_ = std::make_unique<serve::ServingEngine>(cfg_);
    for (index_t e = 0; e < kWarmupEpochs; ++e)
      warmup_live_ = engine_->step_epoch().live_sessions;
    epochs_.clear();
    step_s_ = 0.0;
  }

  std::uint64_t round(index_t, bool tracing, NominalClock&) override {
    const double t0 = now_s();
    serve::EpochReport r;
    {
      BenchSpan span(tracing, "bench.serve.step_epoch");
      r = engine_->step_epoch();
    }
    step_s_ += now_s() - t0;
    epochs_.push_back(r);
    return r.live_sessions;
  }

  index_t quality_rounds() const override { return quality_rounds_; }

  void finish(Report& report) override {
    // Invariants of every epoch's accounting.
    std::uint64_t live = warmup_live_;
    const std::uint64_t j = std::min<std::uint64_t>(
        cfg_.probes_per_slot,
        cfg_.scenario.rx_grid_x * cfg_.scenario.rx_grid_y);
    for (const serve::EpochReport& r : epochs_) {
      const std::string at = " at epoch " + std::to_string(r.epoch);
      report.check(r.live_sessions == live + r.arrivals - r.departures,
                   "population balance" + at);
      live = r.live_sessions;
      report.check(r.aligning_steps + r.tracking_steps == r.live_sessions,
                   "every live session steps once" + at);
      report.check(r.loss_samples == r.tracking_steps,
                   "one loss sample per tracking step" + at);
      report.check(r.measurement_slots == j * r.aligning_steps,
                   "J probes per aligning step" + at);
      report.check(
          r.claims <= r.aligning_steps && r.outages <= r.tracking_steps,
          "claims/outages bounded by their steps" + at);
      report.check(r.estimator_nonconverged <= r.aligning_steps,
                   "non-converged solves bounded by aligning steps" + at);
      report.check(std::isfinite(r.mean_loss_db) && r.mean_loss_db >= -1e-3 &&
                       r.p50_loss_db <= r.p90_loss_db + 1e-9 &&
                       r.p90_loss_db <= r.p99_loss_db + 1e-9 &&
                       r.p99_loss_db <= r.max_loss_db + 1e-9,
                   "loss quantiles ordered and non-negative" + at);
    }
    // Quality over the first quality_rounds() timed epochs.
    double loss_sum = 0.0, p99_sum = 0.0;
    std::uint64_t samples = 0, slots = 0, stepped = 0;
    const index_t k = std::min<index_t>(quality_rounds_, epochs_.size());
    for (index_t i = 0; i < k; ++i) {
      const serve::EpochReport& r = epochs_[i];
      loss_sum += r.mean_loss_db * static_cast<double>(r.loss_samples);
      samples += r.loss_samples;
      p99_sum += r.p99_loss_db;
      slots += r.measurement_slots;
      stepped += r.live_sessions;
    }
    report.check(samples > 0 && stepped > 0, "quality epochs have samples");
    report.deterministic("loss_mean_db",
                         samples ? loss_sum / static_cast<double>(samples) : 0);
    report.deterministic("loss_p99_db",
                         k ? p99_sum / static_cast<double>(k) : 0);
    report.deterministic("probes_per_op",
                         stepped ? static_cast<double>(slots) /
                                       static_cast<double>(stepped)
                                 : 0);
    const std::vector<serve::EpochReport> quality(
        epochs_.begin(), epochs_.begin() + static_cast<std::ptrdiff_t>(k));
    report.deterministic("outputs_hash",
                         text_hash(serve::render_serving_csv(quality)));
    // Resident memory as the timed epochs left it (replay() steps on).
    bytes_per_session_ =
        engine_->peak_live_sessions() > 0
            ? static_cast<double>(engine_->high_water_bytes()) /
                  static_cast<double>(engine_->peak_live_sessions())
            : 0.0;
  }

  void golden(Report& report, const std::string& repo_root) override {
    if (!e9_golden_) return;
    // The E9 10k-session golden: the engine at its committed configuration.
    serve::ServeConfig cfg = e9_config(2016, 64, 10'000, 0.01, 100.0);
    cfg.epochs = 8;
    serve::ServingEngine engine(cfg);
    check_golden(report, repo_root,
                 "bench_results/ext_serving_throughput_10000.csv",
                 serve::render_serving_csv(engine.run().epochs));
  }

  ReplayCosts replay(Report& report) override {
    const sim::CodebookPair cb = sim::make_scenario_codebooks(cfg_.scenario);
    const sim::Topology topology = sim::Topology::build(cfg_.topology);
    const sim::Scenario& sc = cfg_.scenario;
    ReplaySpec spec;
    spec.scenario = &sc;
    spec.codebooks = &cb;
    spec.warm_ml = true;
    spec.probes_per_slot = cfg_.probes_per_slot;
    spec.track_fades = cfg_.track_fades;
    spec.blockage_probability = cfg_.blockage_probability;
    spec.collapse_db = cfg_.collapse_db;
    spec.evolution = tracking_evolution();
    const real collapse_scale = std::pow(10.0, -cfg_.collapse_db / 10.0);
    // The inputs of every step an epoch makes, as that step sees them: the
    // aligning and the tracking sessions before the step, and the arrivals
    // it admits (a fresh session: no prior, cursor 0). Sampled over untimed
    // epochs after the measured ones until 2,000 of each are collected or 8
    // epochs have run.
    // After each epoch the replayed step of every sampled session that is
    // still live must reproduce the engine's resident state.
    struct Sampled {
      index_t site;
      serve::UserSession before;
      bool outage;  ///< tracking step: the replayed collapse test
    };
    constexpr std::size_t kSample = 2000;
    index_t ranked = 0, checked = 0, mismatched = 0;
    obs::QuantileDigest losses;
    const auto add_align = [&](index_t site, const serve::UserSession& s,
                               std::uint64_t epoch) {
      const std::uint64_t key = s.user_key;
      ReplayPoint p([topo = &topology, sc = &sc, site, key] {
        randgen::Rng id = randgen::Rng::stream(
            sc->seed, randgen::lanes::serve_user_lane(site), key, 0);
        topo->place_user(site, id);
        return sim::make_scenario_link(*sc, id);
      });
      p.prior = resident_components(s);
      p.probe_beams = align_probe_beams(
          s, cb.rx, std::min(cfg_.probes_per_slot, cb.rx.size()));
      p.tx_beam = (key + s.slots_aligned) % cb.tx.size();
      p.gamma = 1.0 / static_cast<real>(s.noise_var);
      p.key_a = randgen::lanes::serve_user_lane(site);
      p.key_b = key;
      p.key_c = epoch + 1;
      if (!p.prior.empty()) ++ranked;
      spec.points.push_back(std::move(p));
    };
    const auto check = [&](index_t site, const serve::UserSession& before,
                           const serve::UserSession& after,
                           std::uint64_t epoch) {
      ++checked;
      if (!same_state(replay_align_step(cfg_, topology, cb, site, before,
                                        epoch),
                      after))
        ++mismatched;
    };
    for (int extra = 0; extra < 8 && (spec.points.size() < kSample ||
                                      spec.track_points.size() < kSample);
         ++extra) {
      const std::uint64_t epoch = engine_->current_epoch();
      std::vector<Sampled> aligning, tracking;
      engine_->for_each_session([&](index_t site, const serve::UserSession& s) {
        if (s.aligning != 0 && spec.points.size() < kSample) {
          add_align(site, s, epoch);
          aligning.push_back({site, s, false});
        } else if (s.aligning == 0 && spec.track_points.size() < kSample) {
          TrackPoint t;
          t.key_a = randgen::lanes::serve_user_lane(site);
          t.key_b = s.user_key;
          t.key_c = epoch + 1;
          t.claimed_gain = s.claimed_gain;
          t.optimal_gain = s.optimal_gain;
          t.noise_var = s.noise_var;
          t.trained_energy = s.trained_energy;
          spec.track_points.push_back(t);
          tracking.push_back({site, s, replay_track_step(
                                           sc.seed, t,
                                           cfg_.blockage_probability,
                                           cfg_.track_fades, collapse_scale,
                                           losses)});
        }
      });
      engine_->step_epoch();
      for (const Sampled& a : aligning)
        if (const serve::UserSession* after =
                engine_->find_session(a.site, a.before.user_key))
          check(a.site, a.before, *after, epoch);
      for (const Sampled& t : tracking)
        if (const serve::UserSession* after =
                engine_->find_session(t.site, t.before.user_key)) {
          ++checked;
          if ((after->aligning != 0) != t.outage) ++mismatched;
        }
      engine_->for_each_session([&](index_t site, const serve::UserSession& s) {
        if (s.birth_epoch != epoch) return;
        // The arrival as admitted: identity, sojourn, noise and oracle set,
        // nothing trained yet.
        serve::UserSession fresh;
        fresh.user_key = s.user_key;
        fresh.birth_epoch = s.birth_epoch;
        fresh.departure_epoch = s.departure_epoch;
        fresh.optimal_gain = s.optimal_gain;
        fresh.noise_var = s.noise_var;
        check(site, fresh, s, epoch);
        if (spec.points.size() < kSample) add_align(site, fresh, epoch);
      });
    }
    report.check(checked > 0 && mismatched == 0,
                 "replayed align and track steps reproduce the engine's "
                 "session state (" + std::to_string(mismatched) + " of " +
                     std::to_string(checked) + " differ)");
    ranked_share_ = spec.points.empty()
                        ? 0.0
                        : static_cast<double>(ranked) / spec.points.size();
    if (cfg_.estimator != serve::EstimatorKind::kWarmMl)
      spec.ml_points = 50;  // never called here; a small sample suffices
    return replay_costs(spec);
  }

  Attribution layers(Report& report, double, const obs::MetricsSnapshot&,
                     const ReplayCosts& c) override {
    std::uint64_t stepped = 0, aligning = 0, tracking = 0, arrivals = 0,
                  probes = 0;
    for (const serve::EpochReport& r : epochs_) {
      stepped += r.live_sessions;
      aligning += r.aligning_steps;
      tracking += r.tracking_steps;
      arrivals += r.arrivals;
      probes += r.measurement_slots;
    }
    const double a = static_cast<double>(aligning);
    const double epochs = static_cast<double>(epochs_.size());
    // Aligning steps with a resident covariance expand and score it; a
    // fresh session (rank 0) does not.
    const double ranked = ranked_share_;
    const bool ml = cfg_.estimator == serve::EstimatorKind::kWarmMl;
    const double sites = static_cast<double>(cfg_.topology.cells);

    Attribution at;
    at.base_s = step_s_;
    // Alignment and admission both rebuild the link; admission also scans
    // the codebook product for the resident oracle gain.
    at.channel_s =
        (a + static_cast<double>(arrivals)) * c.link_regen_us * 1e-6 +
        static_cast<double>(arrivals) * c.pair_gain_scan_us * 1e-6;
    at.mac_s = static_cast<double>(probes) * c.probe_us * 1e-6;
    at.antenna_s = a * ranked * c.scoring_us * 1e-6;
    at.ml_s = ml ? a * c.ml_solve_us * 1e-6 : 0.0;
    at.codec_s = (a * ranked + (ml ? a : 0.0)) * c.expand_us * 1e-6 +
                 a * c.merge_us * 1e-6 + (ml ? a * c.compress_us * 1e-6 : 0.0);
    // Identity + epoch stream per aligning step, identity per admission,
    // churn stream per site per epoch (the tracking step's own stream is in
    // serve_track_s).
    at.randgen_s = (2.0 * a + static_cast<double>(arrivals) + sites * epochs) *
                   c.stream_ns * 1e-9;
    // Loss digests merged per epoch: one step frame per occupied slab, ≈ one
    // per site at these scales (churn frames carry no loss samples).
    at.obs_s = sites * epochs * c.digest_merge_us * 1e-6;
    at.serve_track_s = static_cast<double>(tracking) * c.track_step_us * 1e-6;

    report.metric("serve.align_frac",
                  stepped ? a / static_cast<double>(stepped) : 0.0, "ratio");
    report.metric("mac.probes", static_cast<double>(probes), "count");
    report.metric("serve.bytes_per_session", bytes_per_session_, "B");
    return at;
  }

 private:
  serve::ServeConfig cfg_;
  index_t quality_rounds_;
  bool e9_golden_;
  std::unique_ptr<serve::ServingEngine> engine_;
  std::vector<serve::EpochReport> epochs_;
  double step_s_ = 0.0;  ///< Σ step_epoch wall over the timed rounds
  std::uint64_t warmup_live_ = 0;
  /// Share of the sampled align steps that start from a resident
  /// covariance (replay()).
  double ranked_share_ = 0.0;
  double bytes_per_session_ = 0.0;  ///< at the end of the timed epochs
};

}  // namespace

std::unique_ptr<Workload> make_serve_steady(const Options& o) {
  const index_t sessions = o.smoke ? 1'500 : 20'000;
  serve::ServeConfig cfg =
      e9_config(o.seed, o.smoke ? 16 : 64, sessions, 0.01, 100.0);
  return std::make_unique<ServeWorkload>(std::move(cfg), o.smoke ? 4 : 60,
                                         true);
}

std::unique_ptr<Workload> make_serve_realign_ml(const Options& o) {
  serve::ServeConfig cfg = e9_config(o.seed, 7, o.smoke ? 28 : 400, 0.05, 20.0);
  cfg.estimator = serve::EstimatorKind::kWarmMl;
  cfg.blockage_probability = 0.02;
  return std::make_unique<ServeWorkload>(std::move(cfg), o.smoke ? 4 : 60,
                                         false);
}

}  // namespace mmwb
