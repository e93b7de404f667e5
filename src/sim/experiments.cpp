#include "sim/experiments.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/evaluation.h"

namespace mmw::sim {

namespace {

using SummaryTable = std::map<std::string, std::vector<Summary>>;

// The fig5–8 sweeps' shared Monte-Carlo loop: every trial t draws from
// the shared-state-free stream Rng::stream(seed, t), runs every strategy on
// `budget` slots (fault entity 0), and grade(ctx, session) turns each run
// into one value per x point. The per-strategy, per-x samples are reduced
// in trial-index order, passing over quarantined trials, so every thread
// count gives the same bytes.
template <typename Grade>
SummaryTable run_trials(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    index_t budget, index_t points, const Grade& grade,
    std::vector<index_t>& quarantined) {
  static const obs::Counter trials_counter =
      obs::Registry::global().counter("sim.trials");
  // per_trial[t][strategy][point] — each trial owns its slot.
  std::vector<std::vector<std::vector<real>>> per_trial(scenario.trials);
  ShardRun run = run_shards(
      scenario.trials, scenario.threads, scenario.faults.quarantine_trials,
      "sim.trials.quarantined", "trials", [&](index_t t) {
        MMW_TRACE_SCOPE("sim.trial", "sim");
        if (obs::enabled()) trials_counter.add();
        randgen::Rng trial_rng = randgen::Rng::stream(scenario.seed, t);
        const TrialContext ctx = make_trial(scenario, trial_rng);
        const std::optional<TrialFaults> faults = draw_trial_faults(
            scenario.faults, scenario.seed, 0, t, ctx.link, budget);
        const TrialLink trial{ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                              faults ? &*faults : nullptr};
        auto& mine = per_trial[t];
        mine.reserve(strategies.size());
        for (const auto* strategy : strategies)
          run_strategy(*strategy, scenario, trial, budget, trial_rng,
                       [&](const mac::Session& session) {
                         mine.push_back(grade(ctx, session));
                       });
      });

  std::map<std::string, std::vector<std::vector<real>>> samples;
  for (const auto* s : strategies)
    samples[std::string(s->name())].assign(points, {});
  for (index_t t = 0; t < scenario.trials; ++t) {
    if (run.skip[t]) continue;
    for (index_t si = 0; si < strategies.size(); ++si) {
      auto& per_point = samples[std::string(strategies[si]->name())];
      for (index_t k = 0; k < points; ++k)
        per_point[k].push_back(per_trial[t][si][k]);
    }
  }
  SummaryTable out;
  for (auto& [name, per_point] : samples) {
    std::vector<Summary> row;
    row.reserve(per_point.size());
    for (const auto& sample : per_point) row.push_back(summarize(sample));
    out.emplace(name, std::move(row));
  }
  quarantined = std::move(run.quarantined);
  return out;
}

}  // namespace

EffectivenessResult run_search_effectiveness(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<real>& search_rates) {
  MMW_REQUIRE(!strategies.empty());
  MMW_REQUIRE(!search_rates.empty());
  MMW_REQUIRE(scenario.trials >= 1);
  MMW_REQUIRE(std::is_sorted(search_rates.begin(), search_rates.end()));

  obs::TraceScope span("sim.run_search_effectiveness", "sim");
  span.arg("trials", static_cast<double>(scenario.trials));
  span.arg("strategies", static_cast<double>(strategies.size()));

  const index_t total = scenario.total_pairs();
  EffectivenessResult out;
  out.search_rates = search_rates;
  out.loss_db = run_trials(
      scenario, strategies, rate_to_budget(search_rates.back(), total),
      search_rates.size(),
      [&](const TrialContext& ctx, const mac::Session& session) {
        std::vector<real> losses;
        losses.reserve(search_rates.size());
        for (const real rate : search_rates) {
          const index_t budget = std::min<index_t>(
              rate_to_budget(rate, total), session.records().size());
          losses.push_back(loss_after(ctx.oracle, session.records(), budget));
        }
        return losses;
      },
      out.quarantined_trials);
  return out;
}

CostEfficiencyResult run_cost_efficiency(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<real>& target_loss_db) {
  MMW_REQUIRE(!strategies.empty());
  MMW_REQUIRE(!target_loss_db.empty());
  MMW_REQUIRE(scenario.trials >= 1);

  obs::TraceScope span("sim.run_cost_efficiency", "sim");
  span.arg("trials", static_cast<double>(scenario.trials));
  span.arg("strategies", static_cast<double>(strategies.size()));

  const index_t total = scenario.total_pairs();
  CostEfficiencyResult out;
  out.target_loss_db = target_loss_db;
  out.required_rate = run_trials(
      scenario, strategies, total, target_loss_db.size(),
      [&](const TrialContext& ctx, const mac::Session& session) {
        std::vector<real> needed_rates;
        needed_rates.reserve(target_loss_db.size());
        for (const real target : target_loss_db) {
          const auto needed =
              measurements_to_reach(ctx.oracle, session.records(), target);
          needed_rates.push_back(
              needed ? static_cast<real>(*needed) / static_cast<real>(total)
                     : 1.0);
        }
        return needed_rates;
      },
      out.quarantined_trials);
  return out;
}

std::string render_table(
    const std::string& x_label, const std::vector<real>& xs,
    const std::map<std::string, std::vector<Summary>>& series) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << x_label;
  for (const auto& [name, values] : series) {
    MMW_REQUIRE_MSG(values.size() == xs.size(),
                    "series length must match x axis");
    os << '\t' << name << " (mean±ci95)";
  }
  os << '\n';
  for (index_t i = 0; i < xs.size(); ++i) {
    os << xs[i];
    for (const auto& [name, values] : series)
      os << '\t' << values[i].mean << "±" << values[i].ci95_half_width();
    os << '\n';
  }
  return os.str();
}

std::string render_csv(
    const std::string& x_label, const std::vector<real>& xs,
    const std::map<std::string, std::vector<Summary>>& series) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << x_label;
  for (const auto& [name, values] : series) {
    MMW_REQUIRE(values.size() == xs.size());
    os << ',' << name;
  }
  os << '\n';
  for (index_t i = 0; i < xs.size(); ++i) {
    os << xs[i];
    for (const auto& [name, values] : series) os << ',' << values[i].mean;
    os << '\n';
  }
  return os.str();
}

}  // namespace mmw::sim
