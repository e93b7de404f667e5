#include "sim/robustness.h"

#include <sstream>

#include "estimation/robust.h"
#include "obs/trace.h"

namespace mmw::sim {

namespace {

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
    const Scenario& sc,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<FaultCase>& cases) {
  MMW_REQUIRE(!strategies.empty());
  MMW_REQUIRE(!cases.empty());
  MMW_REQUIRE(sc.trials >= 1);

  obs::TraceScope span("sim.run_fault_robustness", "sim");
  span.arg("trials", static_cast<double>(sc.trials));
  span.arg("strategies", static_cast<double>(strategies.size()));
  span.arg("cases", static_cast<double>(cases.size()));

  const index_t budget =
      rate_to_budget(kRobustnessBudgetRate, sc.total_pairs());

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
      const std::optional<TrialFaults> faults = draw_trial_faults(
          fault_case.faults, sc.seed, ci, t, ctx.link, budget);
      // The final pair is held on the POST-onset link, so after a blockage
      // it is graded against the degraded truth — a strategy that
      // re-aligns onto a surviving path is rewarded, one that clings to the
      // blocked dominant path is not.
      std::optional<core::PairGainOracle> degraded_oracle;
      if (faults && faults->degraded)
        degraded_oracle.emplace(*faults->degraded, ctx.tx_codebook,
                                ctx.rx_codebook);
      const core::PairGainOracle& grade_oracle =
          degraded_oracle ? *degraded_oracle : ctx.oracle;
      const TrialLink trial{ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                            faults ? &*faults : nullptr};

      auto& mine = per_trial[t];
      mine.reserve(strategies.size());
      for (const auto* strategy : strategies)
        run_strategy(
            *strategy, sc, trial, budget, trial_rng,
            [&](mac::Session& session) {
              const mac::Session::RealignmentReport report =
                  session.verify_and_realign();
              RunOutcome out;
              out.outage = report.outage;
              out.recovered = report.recovered;
              out.recovery_slots = session.recovery_slots();
              out.loss_db =
                  grade_oracle.loss_db(report.tx_beam, report.rx_beam);
              out.rung_counts = session.fault_state().rung_counts;
              out.stressed_solves = session.fault_state().stressed_solves;
              mine.push_back(out);
            });
    };
    const ShardRun run = run_shards(
        sc.trials, sc.threads, fault_case.faults.quarantine_trials,
        "sim.trials.quarantined", "trials of case '" + fault_case.name + "'",
        run_trial);

    FaultCaseResult result;
    result.name = fault_case.name;
    result.quarantined = run.quarantined.size();
    for (index_t si = 0; si < strategies.size(); ++si) {
      std::vector<real> losses, slots;
      index_t outages = 0, recoveries = 0, failures = 0, included = 0;
      StrategyRobustness sr;
      for (index_t t = 0; t < sc.trials; ++t) {
        if (run.skip[t]) continue;
        const RunOutcome& out = per_trial[t][si];
        ++included;
        losses.push_back(out.loss_db);
        slots.push_back(static_cast<real>(out.recovery_slots));
        if (out.outage) ++outages;
        if (out.recovered) ++recoveries;
        if (out.loss_db > kFailureLossDb) ++failures;
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
