// Command-line experiment driver: run any of the paper's experiments with
// custom parameters without writing code.
//
// Usage:
//   alignment_cli [--channel single|nyc] [--experiment loss|cost]
//                 [--trials N] [--seed S] [--gamma-db G] [--fades K]
//                 [--codebook angular|dft] [--slot-j J]  (J >= 2)
//                 [--threads T]            (0 = all cores, 1 = serial;
//                                           results identical either way)
//                 [--rates r1,r2,...]      (loss experiment; ascending,
//                                           each in (0, 1])
//                 [--targets t1,t2,...]    (cost experiment; dB >= 0)
//                 [--csv]
//                 [--trace PATH]           (write a Chrome trace JSON —
//                                           load in chrome://tracing or
//                                           ui.perfetto.dev)
//                 [--metrics PATH]         (write the merged metrics
//                                           snapshot as JSON)
//
// A malformed or out-of-range value, an unknown argument or a flag given
// twice ends the run with exit status 2 before any work.
//
// Instrumentation: --trace/--metrics turn the obs layer on; otherwise it
// stays off (zero overhead).
//
// Examples:
//   alignment_cli --channel nyc --experiment loss --trials 30
//   alignment_cli --experiment cost --targets 3,2,1 --csv
//   alignment_cli --trials 5 --trace run_trace.json --metrics run_metrics.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "args.h"
#include "obs/manifest.h"
#include "obs/trace.h"
#include "sim/experiments.h"

int main(int argc, char** argv) {
  using namespace mmw;
  using bench::usage_error;
  bench::Args args(argc, argv);

  sim::Scenario scenario;
  if (const char* v = args.value("--channel")) {
    const std::string channel = v;
    if (channel == "single")
      scenario.channel = sim::ChannelKind::kSinglePath;
    else if (channel == "nyc")
      scenario.channel = sim::ChannelKind::kNycMultipath;
    else
      usage_error("unknown channel: " + channel);
  }
  const char* experiment_flag = args.value("--experiment");
  const std::string experiment =
      experiment_flag == nullptr ? "loss" : experiment_flag;
  if (experiment != "loss" && experiment != "cost")
    usage_error("unknown experiment: " + experiment);
  scenario.trials = args.u64("--trials", 20, 1);
  scenario.seed = args.u64("--seed", 2016);
  if (const char* v = args.value("--gamma-db")) {
    scenario.gamma = std::pow(10.0, bench::parse_real("--gamma-db", v) / 10.0);
    if (!(scenario.gamma > 0.0 && std::isfinite(scenario.gamma)))
      usage_error("--gamma-db is out of range");
  }
  scenario.fades_per_measurement =
      args.u64("--fades", scenario.fades_per_measurement, 1);
  if (const char* v = args.value("--codebook")) {
    const std::string codebook = v;
    if (codebook == "angular")
      scenario.codebook = sim::CodebookKind::kAngularGrid;
    else if (codebook == "dft")
      scenario.codebook = sim::CodebookKind::kDft;
    else
      usage_error("unknown codebook: " + codebook);
  }
  scenario.threads = args.u64("--threads", 0);
  core::ProposedOptions proposed_opts;
  proposed_opts.measurements_per_slot =
      args.u64("--slot-j", proposed_opts.measurements_per_slot, 2);
  const std::vector<real> rates =
      args.numbers("--rates", {0.02, 0.05, 0.10, 0.20, 0.30});
  if (!std::is_sorted(rates.begin(), rates.end()) ||
      !(rates.front() > 0.0 && rates.back() <= 1.0))
    usage_error("--rates must be ascending, each in (0, 1]");
  const std::vector<real> targets =
      args.numbers("--targets", {6.0, 4.0, 3.0, 2.0, 1.0});
  for (const real t : targets)
    if (t < 0.0) usage_error("--targets must be non-negative dB");
  const bool csv = args.flag("--csv");
  const char* trace_flag = args.value("--trace");
  const char* metrics_flag = args.value("--metrics");
  const std::string trace_path = trace_flag == nullptr ? "" : trace_flag;
  const std::string metrics_path = metrics_flag == nullptr ? "" : metrics_flag;
  args.reject_unknown();

  obs::init_from_env();
  if (!trace_path.empty() || !metrics_path.empty()) obs::set_enabled(true);
  if (!trace_path.empty())
    obs::TraceCollector::global().set_capturing(true);

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ProposedAlignment proposed(proposed_opts);
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search, &proposed};

  if (experiment == "loss") {
    const auto res = sim::run_search_effectiveness(scenario, strategies, rates);
    const std::string out =
        csv ? sim::render_csv("search_rate", res.search_rates, res.loss_db)
            : sim::render_table("search_rate", res.search_rates, res.loss_db);
    std::fputs(out.c_str(), stdout);
  } else {
    const auto res = sim::run_cost_efficiency(scenario, strategies, targets);
    const std::string out =
        csv ? sim::render_csv("target_loss_db", res.target_loss_db,
                              res.required_rate)
            : sim::render_table("target_loss_db", res.target_loss_db,
                                res.required_rate);
    std::fputs(out.c_str(), stdout);
  }

  if (!metrics_path.empty() &&
      obs::write_text_file(metrics_path,
                           obs::Registry::global().snapshot().to_json()))
    std::fprintf(stderr, "(metrics written to %s)\n", metrics_path.c_str());
  if (!trace_path.empty() &&
      obs::write_text_file(trace_path,
                           obs::TraceCollector::global().chrome_json()))
    std::fprintf(stderr, "(trace written to %s)\n", trace_path.c_str());
  return 0;
}
