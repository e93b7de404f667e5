#include "sim/robustness.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>

#include "channel/temporal.h"
#include "core/thread_pool.h"
#include "estimation/robust.h"
#include "fault/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/evaluation.h"

namespace mmw::sim {

namespace {

index_t rate_to_budget(real rate, index_t total) {
  MMW_REQUIRE_MSG(rate > 0.0 && rate <= 1.0,
                  "budget rate must be in (0, 1]");
  return std::max<index_t>(1,
                           static_cast<index_t>(std::llround(rate * total)));
}

/// One (trial, strategy) cell of the matrix, owned by its trial slot.
struct RunOutcome {
  real loss_db = 0.0;
  bool outage = false;
  bool recovered = false;
  index_t recovery_slots = 0;
  std::array<std::uint64_t, 4> rung_counts{};
  std::uint64_t stressed_solves = 0;
};

}  // namespace

std::vector<FaultCaseResult> run_fault_robustness(
    const RobustnessConfig& config,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<FaultCase>& cases) {
  MMW_REQUIRE(!strategies.empty());
  MMW_REQUIRE(!cases.empty());
  MMW_REQUIRE(config.scenario.trials >= 1);
  MMW_REQUIRE_MSG(config.failure_loss_db > 0.0,
                  "failure threshold must be positive dB");

  const Scenario& sc = config.scenario;

  obs::TraceScope span("sim.run_fault_robustness", "sim");
  span.arg("trials", static_cast<double>(sc.trials));
  span.arg("strategies", static_cast<double>(strategies.size()));
  span.arg("cases", static_cast<double>(cases.size()));

  const index_t total = sc.total_pairs();
  const index_t budget = rate_to_budget(config.budget_rate, total);

  std::vector<FaultCaseResult> results;
  results.reserve(cases.size());

  for (index_t ci = 0; ci < cases.size(); ++ci) {
    const FaultCase& fault_case = cases[ci];

    // per_trial[t][strategy] — each trial owns its slot (reduced in
    // trial-index order below, so parallel output == serial output).
    std::vector<std::vector<RunOutcome>> per_trial(sc.trials);

    const auto run_trial = [&](index_t t) {
      MMW_TRACE_SCOPE("sim.robustness.trial", "sim");
      randgen::Rng trial_rng = randgen::Rng::stream(sc.seed, t);
      const TrialContext ctx = make_trial(sc, trial_rng);

      // The fault entity is the CASE index: independent realizations per
      // case, one shared plan per (case, trial) across strategies.
      std::optional<fault::FaultPlan> plan;
      std::optional<channel::Link> degraded;
      std::optional<core::PairGainOracle> degraded_oracle;
      if (fault_case.faults.any()) {
        randgen::Rng fault_rng = fault::fault_stream(sc.seed, ci, t);
        plan.emplace(fault::FaultPlan::draw(fault_case.faults, budget,
                                            ctx.link.paths().size(),
                                            fault_rng));
        if (plan->has_blockage()) {
          degraded =
              channel::blocked_link(ctx.link, plan->path_power_scale());
          // The final pair is held on the POST-onset link, so it is graded
          // against the degraded truth — a strategy that re-aligns onto a
          // surviving path is rewarded, one that clings to the blocked
          // dominant path is not.
          degraded_oracle.emplace(*degraded, ctx.tx_codebook,
                                  ctx.rx_codebook);
        }
      }
      const core::PairGainOracle& grade_oracle =
          degraded_oracle ? *degraded_oracle : ctx.oracle;

      auto& mine = per_trial[t];
      mine.clear();  // may rerun after a quarantined partial write
      mine.reserve(strategies.size());
      for (const auto* strategy : strategies) {
        randgen::Rng run_rng = trial_rng.fork();
        mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                             sc.gamma, budget, run_rng,
                             sc.fades_per_measurement);
        fault::TrialFaultState fault_state;
        std::optional<fault::ScopedTrialFaults> fault_guard;
        if (plan) {
          session.arm_faults(&*plan, degraded ? &*degraded : nullptr);
          fault_state.plan = &*plan;
          fault_guard.emplace(fault_state);
        }
        strategy->run(session);

        RunOutcome out;
        if (config.realign) {
          const mac::Session::RealignmentReport report =
              session.verify_and_realign(config.realignment);
          out.outage = report.outage;
          out.recovered = report.recovered;
          out.recovery_slots = session.recovery_slots();
          out.loss_db = grade_oracle.loss_db(report.tx_beam, report.rx_beam);
        } else {
          const auto best = session.best_measured();
          MMW_REQUIRE_MSG(best.has_value(),
                          "strategy took no measurements");
          out.loss_db = grade_oracle.loss_db(best->tx_beam, best->rx_beam);
        }
        out.rung_counts = fault_state.rung_counts;
        out.stressed_solves = fault_state.stressed_solves;
        mine.push_back(out);
      }
    };

    core::ThreadPool pool(
        std::min(core::resolve_thread_count(sc.threads), sc.trials));
    std::vector<index_t> quarantined;
    for (const core::IterationFailure& f :
         pool.run(sc.trials, run_trial, fault_case.faults.quarantine_trials))
      quarantined.push_back(f.index);
    if (!quarantined.empty()) {
      static const obs::Counter quarantined_counter =
          obs::Registry::global().counter("sim.trials.quarantined");
      if (obs::enabled()) quarantined_counter.add(quarantined.size());
      std::cerr << "[sim] case '" << fault_case.name << "': quarantined "
                << quarantined.size() << "/" << sc.trials << " trials\n";
    }
    MMW_REQUIRE_MSG(quarantined.size() < sc.trials,
                    "every trial was quarantined — nothing to summarize");

    // Reduce in trial-index order, skipping quarantined slots identically
    // at every thread count (the set is a function of the seed alone).
    std::vector<bool> skip(sc.trials, false);
    for (const index_t t : quarantined) skip[t] = true;

    FaultCaseResult result;
    result.name = fault_case.name;
    result.quarantined = quarantined.size();
    for (index_t si = 0; si < strategies.size(); ++si) {
      std::vector<real> losses, slots;
      index_t outages = 0, recoveries = 0, failures = 0, included = 0;
      StrategyRobustness sr;
      for (index_t t = 0; t < sc.trials; ++t) {
        if (skip[t]) continue;
        const RunOutcome& out = per_trial[t][si];
        ++included;
        losses.push_back(out.loss_db);
        slots.push_back(static_cast<real>(out.recovery_slots));
        if (out.outage) ++outages;
        if (out.recovered) ++recoveries;
        if (out.loss_db > config.failure_loss_db) ++failures;
        for (index_t r = 0; r < sr.fallback_rungs.size(); ++r)
          sr.fallback_rungs[r] += out.rung_counts[r];
        sr.stressed_solves += out.stressed_solves;
      }
      sr.trials = included;
      sr.loss_db = summarize(losses);
      sr.recovery_slots = summarize(slots);
      const real n = static_cast<real>(included);
      sr.failure_rate = static_cast<real>(failures) / n;
      sr.outage_rate = static_cast<real>(outages) / n;
      sr.recovery_rate =
          outages > 0 ? static_cast<real>(recoveries) /
                            static_cast<real>(outages)
                      : 0.0;
      result.by_strategy.emplace(std::string(strategies[si]->name()),
                                 std::move(sr));
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::string render_robustness_csv(
    const std::vector<FaultCaseResult>& results) {
  MMW_REQUIRE(!results.empty());
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << "fault_case";
  for (const auto& [name, sr] : results.front().by_strategy)
    os << ',' << name << "_loss_db" << ',' << name << "_fail_rate" << ','
       << name << "_outage_rate" << ',' << name << "_recovery_rate" << ','
       << name << "_recovery_slots" << ',' << name << "_fallback_em" << ','
       << name << "_fallback_sample" << ',' << name << "_fallback_uniform";
  os << ",quarantined\n";
  for (const FaultCaseResult& r : results) {
    MMW_REQUIRE_MSG(
        r.by_strategy.size() == results.front().by_strategy.size(),
        "every case must cover the same strategies");
    os << r.name;
    for (const auto& [name, sr] : r.by_strategy) {
      using Rung = estimation::SolveRung;
      os << ',' << sr.loss_db.mean << ',' << sr.failure_rate << ','
         << sr.outage_rate << ',' << sr.recovery_rate << ','
         << sr.recovery_slots.mean << ','
         << sr.fallback_rungs[static_cast<int>(Rung::kEm)] << ','
         << sr.fallback_rungs[static_cast<int>(Rung::kSample)] << ','
         << sr.fallback_rungs[static_cast<int>(Rung::kUniform)];
    }
    os << ',' << r.quarantined << '\n';
  }
  return os.str();
}

}  // namespace mmw::sim
