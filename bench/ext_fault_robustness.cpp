// Extension E8: fault-tolerant alignment under deterministic fault
// injection — the strategy × fault-type robustness matrix.
//
// Every strategy trains on the paper's NYC multipath setup while the fault
// runtime injects one failure mode per case (mid-alignment blockage,
// heavy-tailed measurement outliers, dropped slots, forced solver stress,
// then all four combined), with post-alignment verification/re-alignment
// engaged and trial quarantine on. Reported per cell: mean SNR loss of the
// final pair (graded against the post-onset truth when a blockage fired),
// alignment-failure rate, outage/recovery rates, recovery-slot overhead,
// and the degradation-ladder rung histogram.
//
// Expected shape: the clean case reproduces budget-rate Fig. 6 loss with
// zero outages and zero fallbacks; blockage drives outages that the
// widened-beam re-alignment partially recovers on multipath links; drops
// and outliers cost loss but few outages; solver stress moves solves down
// the ladder without aborting any run.
#include <cstdio>

#include "fig_common.h"
#include "sim/robustness.h"

int main(int argc, char** argv) {
  using namespace mmw;
  using namespace mmw::sim;

  bench::BenchRun run("ext_fault_robustness", argc, argv);
  Scenario sc = bench::paper_scenario(ChannelKind::kNycMultipath, 15);
  sc.trials = bench::flag_u64(argc, argv, "--trials", sc.trials, 1);
  sc.threads = bench::threads_from_cli(argc, argv);
  run.add_scenario(sc);
  bench::print_header("Extension E8",
                      "alignment robustness under injected faults",
                      sc.threads);

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ExhaustiveSearch exhaustive;
  core::ProposedAlignment proposed;
  core::HierarchicalSearch hierarchical;
  core::PingPongAlignment ping_pong;
  core::LocalSearch local_search;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search,  &exhaustive,   &proposed,
      &hierarchical,  &ping_pong,    &local_search};

  run.manifest().add_config("budget_rate",
                            static_cast<double>(kRobustnessBudgetRate));
  run.manifest().add_config("failure_loss_db",
                            static_cast<double>(kFailureLossDb));
  // E8 always re-aligns with the session's default policy.
  const mac::Session::RealignmentPolicy realignment;
  run.manifest().add_config("collapse_db",
                            static_cast<double>(realignment.collapse_db));
  run.manifest().add_config(
      "verify_fades", static_cast<std::uint64_t>(realignment.verify_fades));
  run.manifest().add_config(
      "max_retries", static_cast<std::uint64_t>(realignment.max_retries));
  run.manifest().add_config(
      "widen_radius", static_cast<std::uint64_t>(realignment.widen_radius));

  // The fault matrix: one failure mode per case, then all of them at once.
  // Quarantine is on everywhere so a failing trial is excluded, never
  // fatal; with the ladder in place no case is expected to lose any.
  std::vector<FaultCase> cases;
  {
    FaultCase clean{"clean", {}};
    clean.faults.quarantine_trials = true;
    cases.push_back(clean);

    FaultCase blockage{"blockage", {}};
    blockage.faults.blockage_probability = 1.0;
    blockage.faults.quarantine_trials = true;
    cases.push_back(blockage);

    FaultCase outliers{"outliers", {}};
    outliers.faults.outlier_probability = 0.05;
    outliers.faults.quarantine_trials = true;
    cases.push_back(outliers);

    FaultCase drops{"drops", {}};
    drops.faults.drop_probability = 0.10;
    drops.faults.quarantine_trials = true;
    cases.push_back(drops);

    FaultCase stress{"solver_stress", {}};
    stress.faults.solver_stress_probability = 0.50;
    stress.faults.quarantine_trials = true;
    cases.push_back(stress);

    FaultCase combined{"combined", {}};
    combined.faults.blockage_probability = 0.5;
    combined.faults.outlier_probability = 0.05;
    combined.faults.drop_probability = 0.10;
    combined.faults.solver_stress_probability = 0.25;
    combined.faults.quarantine_trials = true;
    cases.push_back(combined);
  }

  const std::vector<FaultCaseResult> results =
      run_fault_robustness(sc, strategies, cases);

  for (const FaultCaseResult& r : results) {
    std::printf("case %-13s (quarantined %zu/%zu)\n", r.name.c_str(),
                r.quarantined, sc.trials);
    std::printf(
        "  %-12s %9s %9s %9s %9s %9s  %s\n", "strategy", "loss_dB",
        "fail", "outage", "recover", "slots", "rungs em/sample/uniform");
    for (const auto& [name, sr] : r.by_strategy)
      std::printf("  %-12s %9.3f %9.2f %9.2f %9.2f %9.1f  %llu/%llu/%llu\n",
                  name.c_str(), sr.loss_db.mean, sr.failure_rate,
                  sr.outage_rate, sr.recovery_rate, sr.recovery_slots.mean,
                  static_cast<unsigned long long>(sr.fallback_rungs[1]),
                  static_cast<unsigned long long>(sr.fallback_rungs[2]),
                  static_cast<unsigned long long>(sr.fallback_rungs[3]));
    std::printf("\n");
  }

  bench::write_artifact("ext_fault_robustness.csv",
                        render_robustness_csv(results));
  run.finish();
  return 0;
}
