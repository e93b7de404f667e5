#include "sim/experiments.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>

#include "channel/temporal.h"
#include "core/thread_pool.h"
#include "fault/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/evaluation.h"

namespace mmw::sim {

namespace {

index_t rate_to_budget(real rate, index_t total) {
  MMW_REQUIRE_MSG(rate > 0.0 && rate <= 1.0,
                  "search rate must be in (0, 1]");
  return std::max<index_t>(1, static_cast<index_t>(std::llround(rate * total)));
}

// Runs body(t) for every trial t over a pool of scenario.threads (inline
// at one thread). `body` must confine its side effects to trial-t slots:
// results are reduced in trial-index order afterwards, so every thread
// count is bit-identical — each trial draws from the shared-state-free
// stream Rng::stream(seed, t), not from a sequentially forked root.
//
// Returns the ascending indices of quarantined trials: when the scenario
// sets faults.quarantine_trials, a trial whose body throws is recorded here
// instead of aborting the run, and the caller MUST exclude those slots from
// its reduction (they may be partially written). Without the knob this
// returns empty and the first failure propagates — deterministically the
// lowest-index one (see core::ThreadPool::run).
template <typename Body>
std::vector<index_t> for_each_trial(const Scenario& scenario,
                                    const Body& body) {
  static const obs::Counter trials_counter =
      obs::Registry::global().counter("sim.trials");
  static const obs::Counter quarantined_counter =
      obs::Registry::global().counter("sim.trials.quarantined");
  const auto run_trial = [&](index_t t) {
    MMW_TRACE_SCOPE("sim.trial", "sim");
    if (obs::enabled()) trials_counter.add();
    body(t);
  };
  core::ThreadPool pool(
      std::min(core::resolve_thread_count(scenario.threads), scenario.trials));
  std::vector<index_t> quarantined;
  for (const core::IterationFailure& f :
       pool.run(scenario.trials, run_trial,
                scenario.faults.quarantine_trials))
    quarantined.push_back(f.index);
  if (!quarantined.empty()) {
    if (obs::enabled()) quarantined_counter.add(quarantined.size());
    std::cerr << "[sim] quarantined " << quarantined.size() << "/"
              << scenario.trials << " trials after in-trial failures\n";
  }
  return quarantined;
}

// The per-trial fault realization shared by every strategy in the trial
// (fairness: strategies face the same blockage onset, the same dropped
// slots, the same stressed solves). Drawn from the reserved fault key range
// so the trial's measurement stream is untouched.
struct TrialFaults {
  fault::FaultPlan plan;
  std::optional<channel::Link> degraded;  ///< set iff plan has a blockage

  const channel::Link* degraded_ptr() const {
    return degraded ? &*degraded : nullptr;
  }
};

std::optional<TrialFaults> draw_trial_faults(const Scenario& scenario,
                                             index_t trial,
                                             const TrialContext& ctx,
                                             index_t budget) {
  if (!scenario.faults.any()) return std::nullopt;
  randgen::Rng rng = fault::fault_stream(scenario.seed, 0, trial);
  std::optional<TrialFaults> out;
  out.emplace(TrialFaults{
      fault::FaultPlan::draw(scenario.faults, budget,
                             ctx.link.paths().size(), rng),
      std::nullopt});
  if (out->plan.has_blockage())
    out->degraded =
        channel::blocked_link(ctx.link, out->plan.path_power_scale());
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
  const index_t max_budget = rate_to_budget(search_rates.back(), total);

  // per_trial[t][strategy][rate] — each trial owns its slot, so trials can
  // run on any thread in any order.
  std::vector<std::vector<std::vector<real>>> per_trial(scenario.trials);

  const std::vector<index_t> quarantined =
      for_each_trial(scenario, [&](index_t t) {
        randgen::Rng trial_rng = randgen::Rng::stream(scenario.seed, t);
        const TrialContext ctx = make_trial(scenario, trial_rng);
        const std::optional<TrialFaults> faults =
            draw_trial_faults(scenario, t, ctx, max_budget);
        auto& mine = per_trial[t];
        mine.clear();  // may rerun after a quarantined partial write
        mine.reserve(strategies.size());
        for (const auto* strategy : strategies) {
          randgen::Rng run_rng = trial_rng.fork();
          mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                               scenario.gamma, max_budget, run_rng,
                               scenario.fades_per_measurement);
          fault::TrialFaultState fault_state;
          std::optional<fault::ScopedTrialFaults> fault_guard;
          if (faults) {
            session.arm_faults(&faults->plan, faults->degraded_ptr());
            fault_state.plan = &faults->plan;
            fault_guard.emplace(fault_state);
          }
          strategy->run(session);
          std::vector<real> losses;
          losses.reserve(search_rates.size());
          for (index_t k = 0; k < search_rates.size(); ++k) {
            const index_t budget = std::min<index_t>(
                rate_to_budget(search_rates[k], total),
                session.records().size());
            losses.push_back(
                loss_after(ctx.oracle, session.records(), budget));
          }
          mine.push_back(std::move(losses));
        }
      });

  // Reduce in trial-index order: parallel output == serial output.
  // Quarantined trials hold partial data and are skipped identically at
  // every thread count (the set is a function of the seed alone).
  std::vector<bool> skip(scenario.trials, false);
  for (const index_t t : quarantined) skip[t] = true;
  std::map<std::string, std::vector<std::vector<real>>> losses;
  for (const auto* s : strategies)
    losses[std::string(s->name())].assign(search_rates.size(), {});
  for (index_t t = 0; t < scenario.trials; ++t) {
    if (skip[t]) continue;
    for (index_t si = 0; si < strategies.size(); ++si) {
      auto& per_rate = losses[std::string(strategies[si]->name())];
      for (index_t k = 0; k < search_rates.size(); ++k)
        per_rate[k].push_back(per_trial[t][si][k]);
    }
  }
  MMW_REQUIRE_MSG(quarantined.size() < scenario.trials,
                  "every trial was quarantined — nothing to summarize");

  EffectivenessResult out;
  out.search_rates = search_rates;
  out.quarantined_trials = quarantined;
  for (auto& [name, per_rate] : losses) {
    std::vector<Summary> row;
    row.reserve(per_rate.size());
    for (const auto& sample : per_rate) row.push_back(summarize(sample));
    out.loss_db.emplace(name, std::move(row));
  }
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

  // per_trial[t][strategy][target] — see run_search_effectiveness.
  std::vector<std::vector<std::vector<real>>> per_trial(scenario.trials);

  const std::vector<index_t> quarantined =
      for_each_trial(scenario, [&](index_t t) {
        randgen::Rng trial_rng = randgen::Rng::stream(scenario.seed, t);
        const TrialContext ctx = make_trial(scenario, trial_rng);
        const std::optional<TrialFaults> faults =
            draw_trial_faults(scenario, t, ctx, total);
        auto& mine = per_trial[t];
        mine.clear();  // may rerun after a quarantined partial write
        mine.reserve(strategies.size());
        for (const auto* strategy : strategies) {
          randgen::Rng run_rng = trial_rng.fork();
          mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                               scenario.gamma, total, run_rng,
                               scenario.fades_per_measurement);
          fault::TrialFaultState fault_state;
          std::optional<fault::ScopedTrialFaults> fault_guard;
          if (faults) {
            session.arm_faults(&faults->plan, faults->degraded_ptr());
            fault_state.plan = &faults->plan;
            fault_guard.emplace(fault_state);
          }
          strategy->run(session);
          std::vector<real> needed_rates;
          needed_rates.reserve(target_loss_db.size());
          for (index_t k = 0; k < target_loss_db.size(); ++k) {
            const auto needed = measurements_to_reach(
                ctx.oracle, session.records(), target_loss_db[k]);
            needed_rates.push_back(
                needed
                    ? static_cast<real>(*needed) / static_cast<real>(total)
                    : 1.0);
          }
          mine.push_back(std::move(needed_rates));
        }
      });

  std::vector<bool> skip(scenario.trials, false);
  for (const index_t t : quarantined) skip[t] = true;
  std::map<std::string, std::vector<std::vector<real>>> rates;
  for (const auto* s : strategies)
    rates[std::string(s->name())].assign(target_loss_db.size(), {});
  for (index_t t = 0; t < scenario.trials; ++t) {
    if (skip[t]) continue;
    for (index_t si = 0; si < strategies.size(); ++si) {
      auto& per_target = rates[std::string(strategies[si]->name())];
      for (index_t k = 0; k < target_loss_db.size(); ++k)
        per_target[k].push_back(per_trial[t][si][k]);
    }
  }
  MMW_REQUIRE_MSG(quarantined.size() < scenario.trials,
                  "every trial was quarantined — nothing to summarize");

  CostEfficiencyResult out;
  out.target_loss_db = target_loss_db;
  out.quarantined_trials = quarantined;
  for (auto& [name, per_target] : rates) {
    std::vector<Summary> row;
    row.reserve(per_target.size());
    for (const auto& sample : per_target) row.push_back(summarize(sample));
    out.required_rate.emplace(name, std::move(row));
  }
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
