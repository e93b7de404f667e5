// Ablation A6: fades averaged per measurement slot (K).
//
// K = 1 is the paper's literal single-sample model of eq. (9); larger K
// models intra-slot time/frequency diversity. Selection by max measured
// energy is fade-limited at K = 1 — even an exhaustive scan then claims a
// lucky mediocre pair — which is why the paper's zero-loss-at-100% premise
// needs K ≫ 1.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  mmw::bench::Args args(argc, argv);
  mmw::bench::BenchRun run("ablation_fades", args);
  args.reject_unknown();
  using namespace mmw;
  using namespace mmw::sim;

  run.print_header("Ablation A6", "fades per measurement (K) sweep");

  const std::vector<real> rates{0.10, 1.0};
  core::RandomSearch random_search;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &proposed};

  std::printf(
      "K\tproposed@10%%\trandom@10%%\tproposed@100%%\trandom@100%% (mean "
      "loss dB)\n");
  for (const index_t k :
       {index_t{1}, index_t{2}, index_t{4}, index_t{8}, index_t{32}}) {
    Scenario sc = bench::paper_scenario(ChannelKind::kSinglePath, 15);
    sc.fades_per_measurement = k;
    sc.threads = run.threads();
    const auto res = run_search_effectiveness(sc, strategies, rates);
    std::printf("%zu\t%.3f\t%.3f\t%.3f\t%.3f\n", k,
                res.loss_db.at("Proposed")[0].mean,
                res.loss_db.at("Random")[0].mean,
                res.loss_db.at("Proposed")[1].mean,
                res.loss_db.at("Random")[1].mean);
  }
  run.finish();
  return 0;
}
