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
// A malformed or out-of-range value ends the run with exit status 2.
//
// Instrumentation: --trace/--metrics turn the obs layer on; otherwise it
// follows MMW_OBS (default off for this example — zero overhead).
//
// Examples:
//   alignment_cli --channel nyc --experiment loss --trials 30
//   alignment_cli --experiment cost --targets 3,2,1 --csv
//   alignment_cli --trials 5 --trace run_trace.json --metrics run_metrics.json
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "obs/trace.h"
#include "sim/experiments.h"

namespace {

using namespace mmw;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\nsee the header of alignment_cli.cpp for usage\n",
               message.c_str());
  std::exit(2);
}

/// All of `text` as a non-negative decimal integer.
std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  const char* end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || stop != end)
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  return v;
}

/// All of `text` as a finite decimal number.
real parse_real(const std::string& flag, const std::string& text) {
  const char* end = text.data() + text.size();
  real v = 0.0;
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || stop != end || !std::isfinite(v))
    usage_error(flag + " needs a finite number, got '" + text + "'");
  return v;
}

/// A comma-separated list of finite numbers.
std::vector<real> parse_list(const std::string& flag, const std::string& csv) {
  std::vector<real> out;
  for (std::size_t pos = 0; pos <= csv.size();) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    out.push_back(parse_real(flag, csv.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sim::Scenario scenario;
  scenario.trials = 20;
  scenario.seed = 2016;
  std::string experiment = "loss";
  std::vector<real> rates{0.02, 0.05, 0.10, 0.20, 0.30};
  std::vector<real> targets{6.0, 4.0, 3.0, 2.0, 1.0};
  core::ProposedOptions proposed_opts;
  bool csv = false;
  std::string trace_path;
  std::string metrics_path;
  obs::init_from_env(/*default_on=*/false);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--channel") {
      const std::string v = value();
      if (v == "single")
        scenario.channel = sim::ChannelKind::kSinglePath;
      else if (v == "nyc")
        scenario.channel = sim::ChannelKind::kNycMultipath;
      else
        usage_error("unknown channel: " + v);
    } else if (arg == "--experiment") {
      experiment = value();
      if (experiment != "loss" && experiment != "cost")
        usage_error("unknown experiment: " + experiment);
    } else if (arg == "--trials") {
      scenario.trials = parse_count(arg, value());
      if (scenario.trials == 0) usage_error("trials must be positive");
    } else if (arg == "--seed") {
      scenario.seed = parse_count(arg, value());
    } else if (arg == "--gamma-db") {
      scenario.gamma = std::pow(10.0, parse_real(arg, value()) / 10.0);
      if (!(scenario.gamma > 0.0 && std::isfinite(scenario.gamma)))
        usage_error("--gamma-db is out of range");
    } else if (arg == "--fades") {
      scenario.fades_per_measurement = parse_count(arg, value());
      if (scenario.fades_per_measurement == 0)
        usage_error("fades must be positive");
    } else if (arg == "--codebook") {
      const std::string v = value();
      if (v == "angular")
        scenario.codebook = sim::CodebookKind::kAngularGrid;
      else if (v == "dft")
        scenario.codebook = sim::CodebookKind::kDft;
      else
        usage_error("unknown codebook: " + v);
    } else if (arg == "--threads") {
      scenario.threads = parse_count(arg, value());
    } else if (arg == "--slot-j") {
      proposed_opts.measurements_per_slot = parse_count(arg, value());
      if (proposed_opts.measurements_per_slot < 2)
        usage_error("--slot-j must be at least 2");
    } else if (arg == "--rates") {
      rates = parse_list(arg, value());
      if (!std::is_sorted(rates.begin(), rates.end()) ||
          !(rates.front() > 0.0 && rates.back() <= 1.0))
        usage_error("--rates must be ascending, each in (0, 1]");
    } else if (arg == "--targets") {
      targets = parse_list(arg, value());
      for (const real t : targets)
        if (t < 0.0) usage_error("--targets must be non-negative dB");
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--metrics") {
      metrics_path = value();
    } else {
      usage_error("unknown argument: " + arg);
    }
  }

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
