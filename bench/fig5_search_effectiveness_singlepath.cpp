// Reproduces paper Fig. 5: SNR Loss (dB) vs Search Rate for the single-path
// mmWave channel; series = Random, Scan, Proposed.
//
// Expected shape: loss decreases with search rate for all schemes; Proposed
// sits below Random and Scan across the mid search-rate regime; Scan is the
// worst at small rates (it crawls through one corner of the pair grid).
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mmw;
  using namespace mmw::sim;

  bench::Args args(argc, argv);
  bench::BenchRun run("fig5_search_effectiveness_singlepath", args);
  args.reject_unknown();
  Scenario sc = bench::paper_scenario(ChannelKind::kSinglePath);
  sc.threads = run.threads();
  run.add_scenario(sc);
  run.print_header("Figure 5", "search effectiveness, single-path channel");

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search, &proposed};

  const auto result = run_search_effectiveness(sc, strategies,
                                               bench::paper_search_rates());
  std::printf("SNR Loss (dB) vs Search Rate\n%s\n",
              render_table("search_rate", result.search_rates,
                           result.loss_db)
                  .c_str());
  const std::string csv =
      render_csv("search_rate", result.search_rates, result.loss_db);
  std::printf("csv\n%s", csv.c_str());
  bench::write_artifact("fig5_search_effectiveness_singlepath.csv", csv);
  run.finish();
  return 0;
}
