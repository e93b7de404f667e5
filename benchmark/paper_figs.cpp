// paper_figs: the paper's reproduction, figures 5–8, through the sweep
// drivers sim::run_search_effectiveness and sim::run_cost_efficiency on
// bench::paper_scenario (N = 64, M = 16, T = 1024) with Random, Scan and
// Proposed.
//
// A timed round is one Monte-Carlo trial of each of the four figures, each
// at its own seed drawn from --seed, so rounds are alike and their times
// form a distribution.
// At the default seed the four committed CSVs (25 trials, seed 2016) are
// regenerated and compared byte for byte. Cold ML solves at N = 64 are
// about half of a round; the rest is N = 64 codebook scoring, mac::Session
// measurement and the Monte-Carlo driver.
#include <cmath>

#include "fig_common.h"
#include "harness.h"
#include "replay.h"

namespace mmwb {

namespace {

using namespace mmw;

constexpr std::uint64_t kGoldenSeed = 2016;
constexpr index_t kGoldenTrials = 25;
/// Index of the 3 dB target in bench::paper_target_losses().
constexpr index_t kTarget3db = 3;
/// Seed of the set-up's warm-up trial: fixed, so set-up does the same work
/// at every --seed.
constexpr std::uint64_t kWarmupSeed = 1;

/// One figure's outputs for one trial.
struct RoundOutputs {
  sim::EffectivenessResult fig5, fig6;
  sim::CostEfficiencyResult fig7, fig8;
};

sim::Scenario paper(sim::ChannelKind channel, index_t trials,
                    std::uint64_t seed) {
  sim::Scenario sc = bench::paper_scenario(channel, trials, seed);
  sc.threads = 1;
  return sc;
}

class PaperFigs final : public Workload {
 public:
  PaperFigs(std::uint64_t seed, index_t quality_rounds)
      : seed_(seed), quality_rounds_(quality_rounds) {}

  void setup() override {
    // The strategies and axes, then one warm-up trial of every figure
    // (first-touch of the scoring arena and the solver's lazy state).
    random_ = std::make_unique<core::RandomSearch>();
    scan_ = std::make_unique<core::ScanSearch>();
    proposed_ = std::make_unique<core::ProposedAlignment>();
    strategies_ = {random_.get(), scan_.get(), proposed_.get()};
    rates_ = bench::paper_search_rates();
    targets_ = bench::paper_target_losses();
    outputs_.clear();
    run_round(kWarmupSeed, 0, false, nullptr);
  }

  std::uint64_t round(index_t r, bool tracing, NominalClock& clock) override {
    outputs_.push_back(run_round(seed_, r, tracing, &clock));
    return 4 * strategies_.size();
  }

  index_t quality_rounds() const override { return quality_rounds_; }

  void finish(Report& report) override {
    for (index_t r = 0; r < outputs_.size(); ++r) check_round(report, r);
    // Quality over the first quality_rounds() rounds: every strategy's loss
    // at every search rate on both channels, pooled; Proposed's search rate
    // to come within 3 dB on multipath (the paper's headline, fig 8).
    const index_t k = std::min<index_t>(quality_rounds_, outputs_.size());
    std::vector<double> losses;
    double rate_3db = 0.0;
    std::string rendered;
    for (index_t r = 0; r < k; ++r) {
      const RoundOutputs& o = outputs_[r];
      for (const auto* fig : {&o.fig5, &o.fig6}) {
        for (const auto& [name, series] : fig->loss_db)
          for (const sim::Summary& s : series) losses.push_back(s.mean);
        rendered += sim::render_csv("search_rate", rates_, fig->loss_db);
      }
      for (const auto* fig : {&o.fig7, &o.fig8})
        rendered +=
            sim::render_csv("target_loss_db", targets_, fig->required_rate);
      rate_3db += o.fig8.required_rate.at("Proposed")[kTarget3db].mean;
    }
    double mean = 0.0;
    for (const double l : losses) mean += l;
    report.deterministic("loss_mean_db",
                         losses.empty() ? 0.0 : mean / losses.size());
    report.deterministic("loss_p99_db", quantile(losses, 0.99));
    report.deterministic("proposed_rate_at_3db", k ? rate_3db / k : 0.0);
    report.deterministic("outputs_hash", text_hash(rendered));
  }

  void golden(Report& report, const std::string& repo_root) override {
    const struct {
      sim::ChannelKind channel;
      bool effectiveness;
      const char* csv;
    } figs[] = {
        {sim::ChannelKind::kSinglePath, true,
         "bench_results/fig5_search_effectiveness_singlepath.csv"},
        {sim::ChannelKind::kNycMultipath, true,
         "bench_results/fig6_search_effectiveness_multipath.csv"},
        {sim::ChannelKind::kSinglePath, false,
         "bench_results/fig7_cost_efficiency_singlepath.csv"},
        {sim::ChannelKind::kNycMultipath, false,
         "bench_results/fig8_cost_efficiency_multipath.csv"},
    };
    for (const auto& f : figs) {
      const sim::Scenario sc = paper(f.channel, kGoldenTrials, kGoldenSeed);
      const std::string csv =
          f.effectiveness
              ? sim::render_csv(
                    "search_rate", rates_,
                    sim::run_search_effectiveness(sc, strategies_, rates_)
                        .loss_db)
              : sim::render_csv(
                    "target_loss_db", targets_,
                    sim::run_cost_efficiency(sc, strategies_, targets_)
                        .required_rate);
      check_golden(report, repo_root, f.csv, csv);
    }
  }

  ReplayCosts replay(Report&) override {
    // 200 trial links, alternating channels, from the timed rounds' seeds.
    const sim::Scenario single =
        paper(sim::ChannelKind::kSinglePath, 1, seed_);
    const sim::Scenario multi =
        paper(sim::ChannelKind::kNycMultipath, 1, seed_);
    const sim::CodebookPair codebooks = sim::make_scenario_codebooks(multi);
    ReplaySpec spec;
    spec.scenario = &multi;
    spec.codebooks = &codebooks;
    spec.warm_ml = false;
    spec.probes_per_slot = core::ProposedOptions{}.measurements_per_slot;
    spec.ml_points = 100;
    spec.evolution = tracking_evolution();
    for (index_t i = 0; i < 200; ++i) {
      const sim::Scenario* sc = (i % 2 == 0) ? &single : &multi;
      const std::uint64_t s = figure_seed(seed_, i / 2, i % 2);
      ReplayPoint p([sc, s] {
        randgen::Rng rng = randgen::Rng::stream(s, 0);
        return sim::make_scenario_link(*sc, rng);
      });
      p.tx_beam = i % codebooks.tx.size();
      p.gamma = sc->gamma;
      p.key_a = i;
      p.key_b = 1;
      spec.points.push_back(std::move(p));
    }
    return replay_costs(spec);
  }

  Attribution layers(Report& report, double timed_s,
                     const obs::MetricsSnapshot& snap,
                     const ReplayCosts& c) override {
    const double trials = static_cast<double>(counter(snap, "sim.trials"));
    const double measurements =
        static_cast<double>(counter(snap, "mac.session.measurements"));
    const double scored =
        static_cast<double>(counter(snap, "antenna.codebook.scored_codewords"));
    const double solves =
        static_cast<double>(counter(snap, "estimation.ml.solves"));
    Attribution at;
    at.base_s = timed_s;
    at.sim_s = trials * c.make_trial_us * 1e-6;
    at.mac_s = measurements * c.probe_us * 1e-6;
    const sim::Scenario sc = paper(sim::ChannelKind::kSinglePath, 1, 0);
    at.antenna_s = scored / static_cast<double>(sc.rx_grid_x * sc.rx_grid_y) *
                   c.scoring_us * 1e-6;
    at.ml_s = solves * c.ml_solve_us * 1e-6;
    // One trial stream plus one fork per strategy run.
    at.randgen_s = trials * 4.0 * c.stream_ns * 1e-9;
    report.metric("mac.probes", measurements, "count");
    return at;
  }

 private:
  /// Figure f (0..3 for figs 5..8) of round r draws its trial from its own
  /// seed: four independent trials per round average out more of the
  /// per-trial cost spread than two channels shared by two figures would.
  static std::uint64_t figure_seed(std::uint64_t base, index_t r, index_t f) {
    return round_seed(base, 4 * r + f);
  }

  /// One trial of each figure; `clock`, when given, is split between the
  /// four calls.
  RoundOutputs run_round(std::uint64_t base, index_t r, bool tracing,
                         NominalClock* clock) {
    const auto split = [clock] {
      if (clock != nullptr) clock->split();
    };
    RoundOutputs o;
    {
      BenchSpan span(tracing, "bench.sim.run_search_effectiveness");
      o.fig5 = sim::run_search_effectiveness(
          paper(sim::ChannelKind::kSinglePath, 1, figure_seed(base, r, 0)),
          strategies_, rates_);
    }
    split();
    {
      BenchSpan span(tracing, "bench.sim.run_search_effectiveness");
      o.fig6 = sim::run_search_effectiveness(
          paper(sim::ChannelKind::kNycMultipath, 1, figure_seed(base, r, 1)),
          strategies_, rates_);
    }
    split();
    {
      BenchSpan span(tracing, "bench.sim.run_cost_efficiency");
      o.fig7 = sim::run_cost_efficiency(
          paper(sim::ChannelKind::kSinglePath, 1, figure_seed(base, r, 2)),
          strategies_, targets_);
    }
    split();
    {
      BenchSpan span(tracing, "bench.sim.run_cost_efficiency");
      o.fig8 = sim::run_cost_efficiency(
          paper(sim::ChannelKind::kNycMultipath, 1, figure_seed(base, r, 3)),
          strategies_, targets_);
    }
    return o;
  }

  void check_round(Report& report, index_t r) const {
    const RoundOutputs& o = outputs_[r];
    const std::string at = " in round " + std::to_string(r);
    for (const auto* fig : {&o.fig5, &o.fig6}) {
      report.check(fig->loss_db.size() == strategies_.size(),
                   "one loss series per strategy" + at);
      for (const auto& [name, series] : fig->loss_db) {
        report.check(series.size() == rates_.size(),
                     name + " covers every rate" + at);
        for (const sim::Summary& s : series)
          report.check(s.count == 1 && std::isfinite(s.mean) && s.mean >= -1e-9,
                       name + " loss is a finite non-negative trial" + at);
      }
    }
    for (const auto* fig : {&o.fig7, &o.fig8}) {
      report.check(fig->required_rate.size() == strategies_.size(),
                   "one rate series per strategy" + at);
      for (const auto& [name, series] : fig->required_rate) {
        report.check(series.size() == targets_.size(),
                     name + " covers every target" + at);
        // Targets tighten left to right, so the rate needed never falls.
        for (index_t k = 0; k < series.size(); ++k)
          report.check(series[k].mean > 0.0 && series[k].mean <= 1.0 &&
                           (k == 0 || series[k].mean >= series[k - 1].mean),
                       name + " required rate in (0, 1] and monotone" + at);
      }
    }
  }

  std::uint64_t seed_;
  index_t quality_rounds_;
  std::unique_ptr<core::RandomSearch> random_;
  std::unique_ptr<core::ScanSearch> scan_;
  std::unique_ptr<core::ProposedAlignment> proposed_;
  std::vector<const core::AlignmentStrategy*> strategies_;
  std::vector<real> rates_, targets_;
  std::vector<RoundOutputs> outputs_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_figs(const Options& o) {
  return std::make_unique<PaperFigs>(o.seed, o.smoke ? 1 : 8);
}

}  // namespace mmwb
