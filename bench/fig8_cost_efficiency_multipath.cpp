// Reproduces paper Fig. 8: Required Search Rate vs Target Loss for the NYC
// multipath channel.
//
// Expected shape: as Fig. 7 — Proposed requires the smallest search rate at
// every target; Scan is by far the most expensive.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mmw;
  using namespace mmw::sim;

  bench::Args args(argc, argv);
  bench::BenchRun run("fig8_cost_efficiency_multipath", args);
  args.reject_unknown();
  Scenario sc = bench::paper_scenario(ChannelKind::kNycMultipath);
  sc.threads = run.threads();
  run.add_scenario(sc);
  run.print_header("Figure 8", "cost efficiency, NYC multipath channel");

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search, &proposed};

  const auto result =
      run_cost_efficiency(sc, strategies, bench::paper_target_losses());
  std::printf("Required Search Rate vs Target Loss (dB)\n%s\n",
              render_table("target_loss_db", result.target_loss_db,
                           result.required_rate)
                  .c_str());
  const std::string csv = render_csv("target_loss_db",
                                     result.target_loss_db,
                                     result.required_rate);
  std::printf("csv\n%s", csv.c_str());
  bench::write_artifact("fig8_cost_efficiency_multipath.csv", csv);
  run.finish();
  return 0;
}
