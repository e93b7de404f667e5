// track_mobility: the E10 tracking experiment through track::run_tracking,
// called once per (speed, tracker) so each tracker's time is measured on
// its own.
//
// A timed round is the 120-epoch journeys of four users (one in the smoke
// run), at a per-round seed, at each of the three speeds under each of the
// four trackers. Journeys differ in cost (handovers, re-alignments), so a
// round holds several: round times spread less and their median moves less
// between seeds.
// At the default seed the E10 configuration (24 users) is rerun per
// (speed, tracker) and its rendered CSV compared with the committed one.
// Channel evolution, tracker steps and exhaustive oracle grading carry the
// time; cold_start's 64 probes per epoch dominate, ML solves are rare and
// no serving engine runs.
#include <cmath>

#include "antenna/geometry.h"
#include "harness.h"
#include "randgen/keylanes.h"
#include "replay.h"
#include "sim/mobility.h"
#include "track/engine.h"

namespace mmwb {

namespace {

using namespace mmw;

constexpr std::uint64_t kGoldenSeed = 20160610;
constexpr index_t kSteadyFrom = 40;  ///< E10 warm-up epochs
constexpr index_t kEpochs = 120;
/// Seed of the set-up's warm-up round: fixed, so set-up does the same work
/// at every --seed.
constexpr std::uint64_t kWarmupSeed = 1;

const std::vector<real>& speeds() {
  static const std::vector<real> s{1.4, 13.9, 33.3};
  return s;
}

const std::vector<track::TrackerKind>& kinds() {
  static const std::vector<track::TrackerKind> k{
      track::TrackerKind::kColdStart, track::TrackerKind::kWarmMl,
      track::TrackerKind::kNeighborhood, track::TrackerKind::kBanditUcb};
  return k;
}

/// The E10 configuration (bench/ext_tracking_mobility.cpp).
track::TrackingConfig e10_config(std::uint64_t seed, index_t users) {
  track::TrackingConfig cfg;
  sim::Scenario& sc = cfg.scenario;
  sc.channel = sim::ChannelKind::kNycMultipath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 4;
  sc.gamma = 1000.0;
  sc.seed = seed;
  sc.threads = 1;
  cfg.topology.cells = 7;
  cfg.topology.cell_radius_m = 100.0;
  cfg.users = users;
  cfg.epochs = kEpochs;
  cfg.warmup_epochs = kSteadyFrom;
  cfg.mobility.epoch_seconds = 0.5;
  cfg.mobility.hysteresis_db = 3.0;
  const channel::EvolutionConfig evo = tracking_evolution();
  cfg.evolution.drift_rad_per_meter = evo.drift_rad_per_meter;
  cfg.evolution.shadow_sigma_db = evo.shadow_sigma_db;
  cfg.evolution.shadow_coherence_m = evo.shadow_coherence_m;
  cfg.evolution.blockage_onset_per_meter = evo.blockage_onset_per_meter;
  cfg.evolution.blockage_clear_probability = evo.blockage_clear_probability;
  cfg.evolution.blockage_gain = evo.blockage_gain;
  return cfg;
}

/// One speed's row of the E10 CSV from the per-tracker calls (in kinds()
/// order): handovers are a property of the trajectory, read off the first.
track::TrackingResult merge_trackers(
    const std::vector<track::TrackingResult>& per_kind) {
  track::TrackingResult row = per_kind.front();
  for (std::size_t k = 1; k < per_kind.size(); ++k)
    row.trackers.push_back(per_kind[k].trackers.front());
  return row;
}

class TrackMobility final : public Workload {
 public:
  TrackMobility(std::uint64_t seed, index_t users, index_t quality_rounds)
      : seed_(seed), users_(users), quality_rounds_(quality_rounds) {}

  void setup() override {
    rounds_.clear();
    tracker_s_.assign(kinds().size(), 0.0);
    run_round(kWarmupSeed, false, nullptr, nullptr);
  }

  std::uint64_t round(index_t r, bool tracing, NominalClock& clock) override {
    Round out;
    run_round(round_seed(seed_, r), tracing, &out, &clock);
    rounds_.push_back(std::move(out));
    return speeds().size() * kinds().size() * kEpochs * users_;
  }

  index_t quality_rounds() const override { return quality_rounds_; }

  void finish(Report& report) override {
    const index_t pairs = e10_config(seed_, 1).scenario.total_pairs();
    for (index_t r = 0; r < rounds_.size(); ++r) {
      for (index_t v = 0; v < speeds().size(); ++v) {
        const std::vector<track::TrackingResult>& cases = rounds_[r].cases[v];
        const std::string at =
            " in round " + std::to_string(r) + " speed " + std::to_string(v);
        for (const track::TrackingResult& res : cases) {
          report.check(res.trackers.size() == 1, "one tracker per call" + at);
          const track::TrackerCaseResult& t = res.trackers.front();
          report.check(t.steady_epochs == (kEpochs - kSteadyFrom) * users_,
                       t.name + " grades every steady epoch" + at);
          report.check(t.mean_loss_db >= -1e-9 &&
                           t.p50_loss_db <= t.p90_loss_db + 1e-9 &&
                           t.p90_loss_db <= t.p99_loss_db + 1e-9 &&
                           t.p99_loss_db <= t.max_loss_db + 1e-9,
                       t.name + " loss quantiles ordered" + at);
          report.check(t.realign_rate >= 0.0 && t.realign_rate <= 1.0 &&
                           t.outage_rate >= 0.0 && t.outage_rate <= 1.0,
                       t.name + " rates are fractions" + at);
          // Handover is a property of the trajectory, not of the tracker.
          report.check(res.handovers_per_user == cases[0].handovers_per_user,
                       t.name + " sees the same handovers" + at);
        }
        report.check(cases[0].trackers.front().probes_per_epoch ==
                         static_cast<real>(pairs),
                     "cold_start sweeps the whole codebook product" + at);
      }
    }
    // warm_ml at walking speed over the first quality_rounds() rounds (the
    // E10 headline), and the rendered rows of every quality round.
    double loss = 0.0, p99 = 0.0, probes = 0.0, epochs = 0.0;
    std::string rendered;
    const index_t k = std::min<index_t>(quality_rounds_, rounds_.size());
    for (index_t r = 0; r < k; ++r) {
      std::vector<track::TrackingResult> rows;
      for (const auto& cases : rounds_[r].cases)
        rows.push_back(merge_trackers(cases));
      rendered += track::render_tracking_csv("speed_mps", speeds(), rows);
      const track::TrackerCaseResult& t = rows[0].trackers[1];
      const double n = static_cast<double>(t.steady_epochs);
      loss += t.mean_loss_db * n;
      probes += t.probes_per_epoch * n;
      epochs += n;
      p99 += t.p99_loss_db;
    }
    report.check(k > 0, "quality rounds ran");
    report.deterministic("loss_mean_db", epochs ? loss / epochs : 0.0);
    report.deterministic("loss_p99_db", k ? p99 / k : 0.0);
    report.deterministic("probes_per_op", epochs ? probes / epochs : 0.0);
    report.deterministic("outputs_hash", text_hash(rendered));
  }

  void golden(Report& report, const std::string& repo_root) override {
    const track::TrackingConfig base = e10_config(kGoldenSeed, 24);
    std::vector<track::TrackingResult> rows;
    for (const real speed : speeds()) {
      track::TrackingConfig cfg = base;
      cfg.mobility.speed_mps = speed;
      std::vector<track::TrackingResult> per_kind;
      for (const track::TrackerKind kind : kinds())
        per_kind.push_back(track::run_tracking(cfg, {kind}));
      rows.push_back(merge_trackers(per_kind));
    }
    check_golden(report, repo_root, "bench_results/ext_tracking_mobility.csv",
                 track::render_tracking_csv("speed_mps", speeds(), rows));
  }

  ReplayCosts replay(Report&) override {
    // 200 (user, epoch) points of the timed rounds: the evolved link the
    // tracker probed and the oracle graded.
    const track::TrackingConfig cfg = e10_config(seed_, 1);
    const sim::CodebookPair codebooks =
        sim::make_scenario_codebooks(cfg.scenario);
    const sim::Topology topology = sim::Topology::build(cfg.topology);
    std::vector<sim::Scenario> scenarios;  // one per point, never reallocated
    scenarios.reserve(200);
    ReplaySpec spec;
    spec.scenario = &cfg.scenario;
    spec.codebooks = &codebooks;
    spec.warm_ml = true;
    spec.probes_per_slot = track::TrackerOptions{}.probes_per_slot;
    spec.evolution = tracking_evolution();
    const antenna::ArrayGeometry tx_geom = antenna::ArrayGeometry::upa(
        cfg.scenario.tx_grid_x, cfg.scenario.tx_grid_y);
    const antenna::ArrayGeometry rx_geom = antenna::ArrayGeometry::upa(
        cfg.scenario.rx_grid_x, cfg.scenario.rx_grid_y);
    for (index_t i = 0; i < 200; ++i) {
      scenarios.push_back(cfg.scenario);
      sim::Scenario& sc = scenarios.back();
      sc.seed = round_seed(seed_, i % std::max<index_t>(1, rounds_.size()));
      const real speed = speeds()[i % speeds().size()];
      const index_t user = (i / speeds().size()) % users_;
      const index_t epoch = kSteadyFrom + (i * 7) % (kEpochs - kSteadyFrom);
      const sim::Trajectory path(topology, speed, 0.5, sc.seed, user);
      const sim::UserPlacement pos = path.position_at(epoch);
      const index_t site = sim::nearest_site(topology, pos);
      ReplayPoint p([sc = &sc, site, user] {
        randgen::Rng rng = randgen::Rng::stream(
            sc->seed, randgen::lanes::track_link_lane(site), user, 0);
        return sim::make_scenario_link(*sc, rng);
      });
      channel::EvolutionConfig evo = spec.evolution;
      evo.speed_mps = speed;
      channel::LinkEvolution evolution(tx_geom, rx_geom, p.link.paths(),
                                       evo, sc.seed,
                                       randgen::lanes::temporal_lane(site),
                                       user);
      evolution.seek(epoch);
      p.link = evolution.current();
      p.tx_beam = i % codebooks.tx.size();
      p.gamma = sc.gamma * topology.pathloss_gain(site, pos);
      p.key_a = randgen::lanes::track_measure_lane(1);
      p.key_b = user;
      p.key_c = epoch;
      spec.points.push_back(std::move(p));
    }
    return replay_costs(spec);
  }

  Attribution layers(Report& report, double timed_s,
                     const obs::MetricsSnapshot& snap,
                     const ReplayCosts& c) override {
    const double probes = static_cast<double>(counter(snap, "track.probes"));
    const double solves =
        static_cast<double>(counter(snap, "estimation.ml.solves"));
    const double calls = static_cast<double>(
        rounds_.size() * speeds().size() * kinds().size());
    const double users = static_cast<double>(users_);
    const double user_epochs = calls * users * kEpochs;
    const double graded = calls * users * (kEpochs - kSteadyFrom);
    double handovers = 0.0;
    for (const Round& o : rounds_)
      for (const auto& cases : o.cases)
        for (const track::TrackingResult& res : cases)
          handovers += res.handovers_per_user * users;
    Attribution at;
    at.base_s = timed_s;
    // Every user-epoch evolves the link one step and probes it; steady
    // epochs grade against the exhaustive oracle; each (re)entry to a site
    // rebuilds the base link.
    at.channel_s = user_epochs * c.evolve_us * 1e-6 +
                   graded * c.pair_gain_scan_us * 1e-6 +
                   (calls * users + handovers) * c.link_regen_us * 1e-6;
    at.mac_s = probes * c.probe_us * 1e-6;
    at.ml_s = solves * c.ml_solve_us * 1e-6;
    at.randgen_s = user_epochs * c.stream_ns * 1e-9;
    at.obs_s = graded * c.digest_add_ns * 1e-9;
    const char* names[] = {"track.cold_start_frac", "track.warm_ml_frac",
                           "track.neighborhood_frac", "track.bandit_ucb_frac"};
    for (index_t k = 0; k < kinds().size(); ++k)
      report.metric(names[k], timed_s > 0 ? tracker_s_[k] / timed_s : 0,
                    "ratio");
    report.metric("mac.probes", probes, "count");
    return at;
  }

 private:
  struct Round {
    /// One call per (speed, tracker kind), in speeds() × kinds() order.
    std::vector<std::vector<track::TrackingResult>> cases;
  };

  /// One call per (speed, tracker kind); a timed round records its outputs
  /// in `out` and splits `clock` between the calls.
  void run_round(std::uint64_t seed, bool tracing, Round* out,
                 NominalClock* clock) {
    track::TrackingConfig cfg = e10_config(seed, users_);
    bool first = true;
    for (const real speed : speeds()) {
      cfg.mobility.speed_mps = speed;
      std::vector<track::TrackingResult> cases;
      for (index_t k = 0; k < kinds().size(); ++k) {
        if (clock != nullptr && !first) clock->split();
        first = false;
        const double t0 = now_s();
        {
          BenchSpan span(tracing, "bench.track.run_tracking");
          cases.push_back(track::run_tracking(cfg, {kinds()[k]}));
        }
        if (out != nullptr) tracker_s_[k] += now_s() - t0;
      }
      if (out != nullptr) out->cases.push_back(std::move(cases));
    }
  }

  std::uint64_t seed_;
  index_t users_;  ///< users per round
  index_t quality_rounds_;
  std::vector<Round> rounds_;
  std::vector<double> tracker_s_;  ///< per tracker kind, timed rounds
};

}  // namespace

std::unique_ptr<Workload> make_track_mobility(const Options& o) {
  return o.smoke ? std::make_unique<TrackMobility>(o.seed, 1, 1)
                 : std::make_unique<TrackMobility>(o.seed, 4, 6);
}

}  // namespace mmwb
