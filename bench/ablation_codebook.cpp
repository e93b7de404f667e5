// Ablation A5: codebook family — overlapping angular-grid beams vs
// orthonormal DFT beams.
//
// With orthogonal codewords the regularized ML covariance estimate cannot
// extrapolate outside the probed span (it provably lies in span{v_j}), so
// the eigen-directed J-th measurement loses its pointing power and the
// proposed scheme keeps only its cross-slot beam-reuse advantage.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  mmw::bench::Args args(argc, argv);
  mmw::bench::BenchRun run("ablation_codebook", args);
  args.reject_unknown();
  using namespace mmw;
  using namespace mmw::sim;

  run.print_header("Ablation A5", "codebook family: angular grid vs DFT");

  const std::vector<real> rates{0.05, 0.10, 0.20};
  core::RandomSearch random_search;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &proposed};

  for (const auto cb : {CodebookKind::kAngularGrid, CodebookKind::kDft}) {
    Scenario sc = bench::paper_scenario(ChannelKind::kSinglePath, 20);
    sc.codebook = cb;
    sc.threads = run.threads();
    const auto res = run_search_effectiveness(sc, strategies, rates);
    std::printf("%s codebook\n%s\n",
                cb == CodebookKind::kAngularGrid ? "angular-grid" : "DFT",
                render_table("search_rate", res.search_rates, res.loss_db)
                    .c_str());
  }
  run.finish();
  return 0;
}
