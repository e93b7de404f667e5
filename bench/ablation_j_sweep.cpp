// Ablation A1: how J — the number of measurements per TX-slot — trades
// per-slot estimation quality against TX-direction coverage.
//
// Small J visits many TX beams but estimates Q̂ from very few probes;
// large J estimates well but explores few TX directions within a budget.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  mmw::bench::Args args(argc, argv);
  mmw::bench::BenchRun run("ablation_j_sweep", args);
  args.reject_unknown();
  using namespace mmw;
  using namespace mmw::sim;

  run.print_header("Ablation A1", "J (measurements per TX-slot) sweep");

  const std::vector<real> rates{0.05, 0.10, 0.20};
  for (const auto kind :
       {ChannelKind::kSinglePath, ChannelKind::kNycMultipath}) {
    std::printf("%s channel — mean SNR loss (dB)\n",
                kind == ChannelKind::kSinglePath ? "single-path"
                                                 : "NYC multipath");
    std::printf("J\\rate");
    for (const real r : rates) std::printf("\t%.0f%%", 100.0 * r);
    std::printf("\n");
    Scenario sc = bench::paper_scenario(kind, 20);
    sc.threads = run.threads();
    for (const index_t j : {index_t{3}, index_t{4}, index_t{6}, index_t{8},
                            index_t{12}, index_t{16}}) {
      core::ProposedOptions opts;
      opts.measurements_per_slot = j;
      core::ProposedAlignment proposed(opts);
      const auto res = run_search_effectiveness(sc, {&proposed}, rates);
      std::printf("%zu", j);
      for (const auto& s : res.loss_db.at("Proposed"))
        std::printf("\t%.3f", s.mean);
      std::printf("\n");
    }
    std::printf("\n");
  }
  run.finish();
  return 0;
}
