// Extension E7: multi-cell deployment under inter-cell interference.
//
// Two sweeps through sim::run_multicell on the paper's single-path setup:
//  (a) SNR loss + required search rate vs number of cells (hex topology,
//      one user per cell) — how much alignment quality the noise-floor
//      lift from neighbouring cells' active beams costs each scheme;
//  (b) the same vs users per cell at a fixed 7-cell deployment — more
//      users = more sessions, same interference field per trial.
//
// Expected shape: the isolated cell (cells=1) matches the Fig. 5/7 numbers
// at the grading rate; loss and required rate rise with cell count as the
// interference-over-noise ratio grows; Proposed stays below Random and
// Scan throughout because its covariance scoring is unchanged — only the
// per-measurement noise floor moves.
#include <cstdio>

#include "fig_common.h"
#include "sim/multicell.h"

namespace {

void print_sweep(const char* x_label, const std::vector<mmw::real>& xs,
                 const std::vector<mmw::sim::MultiCellResult>& results) {
  std::printf("%s\tsessions", x_label);
  for (const auto& [name, summary] : results.front().loss_db)
    std::printf("\t%s_loss_dB", name.c_str());
  for (const auto& [name, summary] : results.front().required_rate)
    std::printf("\t%s_rate", name.c_str());
  std::printf("\tINR_dB\n");
  for (mmw::index_t i = 0; i < xs.size(); ++i) {
    const auto& r = results[i];
    std::printf("%.0f\t%zu", xs[i], r.sessions_per_strategy);
    for (const auto& [name, summary] : r.loss_db)
      std::printf("\t%.3f", summary.mean);
    for (const auto& [name, summary] : r.required_rate)
      std::printf("\t%.3f", summary.mean);
    std::printf("\t%.2f\n", r.interference_over_noise_db.mean);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmw;
  using namespace mmw::sim;

  bench::Args args(argc, argv);
  bench::BenchRun run("ext_multicell_interference", args);
  args.reject_unknown();
  Scenario sc = bench::paper_scenario(ChannelKind::kSinglePath, 10);
  sc.threads = run.threads();
  run.add_scenario(sc);
  run.print_header("Extension E7",
                   "multi-cell alignment under inter-cell interference");

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search, &proposed};

  MultiCellConfig config;
  config.scenario = sc;
  run.manifest().add_config(
      "interference_scale", static_cast<double>(config.interference_scale));
  run.manifest().add_config("search_rate",
                            static_cast<double>(config.search_rate));
  run.manifest().add_config(
      "target_loss_db", static_cast<double>(config.target_loss_db));

  // Sweep (a): number of cells, one user each.
  const std::vector<real> cell_counts{1, 2, 4, 7};
  std::vector<MultiCellResult> by_cells;
  for (const real cells : cell_counts) {
    config.topology.cells = static_cast<index_t>(cells);
    config.topology.users_per_cell = 1;
    by_cells.push_back(run_multicell(config, strategies));
  }
  std::printf("SNR loss / required rate vs number of cells (hex, 1 user)\n");
  print_sweep("cells", cell_counts, by_cells);
  const std::string cells_csv =
      render_multicell_csv("cells", cell_counts, by_cells);
  bench::write_artifact("ext_multicell_interference_cells.csv", cells_csv);

  // Sweep (b): users per cell at the classic 7-cell hex deployment.
  const std::vector<real> user_counts{1, 2, 4};
  std::vector<MultiCellResult> by_users;
  for (const real users : user_counts) {
    config.topology.cells = 7;
    config.topology.users_per_cell = static_cast<index_t>(users);
    by_users.push_back(run_multicell(config, strategies));
  }
  std::printf("SNR loss / required rate vs users per cell (hex, 7 cells)\n");
  print_sweep("users_per_cell", user_counts, by_users);
  const std::string users_csv =
      render_multicell_csv("users_per_cell", user_counts, by_users);
  bench::write_artifact("ext_multicell_interference_users.csv", users_csv);

  run.finish();
  return 0;
}
