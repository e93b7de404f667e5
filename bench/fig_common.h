// Shared setup for the figure-reproduction benches: the paper's simulation
// configuration (Sec. V-A) and a uniform report format.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "core/thread_pool.h"
#include "linalg/kernels.h"
#include "obs/clock.h"
#include "obs/manifest.h"
#include "obs/trace.h"
#include "sim/experiments.h"

namespace mmw::bench {

// -- Command-line flags -------------------------------------------------------
// The one flag reader of the bench drivers. A value flag is given as
// `--name value` or `--name=value`, and its first occurrence wins. A
// malformed value ends the process with exit status 2 before any work runs.

/// Prints `message` to stderr and exits with status 2 (bad command line).
[[noreturn]] inline void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

/// Value of the value flag `name`, or nullptr when it is absent.
inline const char* flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) != 0) continue;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] != '\0') continue;
    if (i + 1 >= argc) usage_error(std::string("missing value for ") + name);
    return argv[i + 1];
  }
  return nullptr;
}

/// A flag whose value is optional and only given as `--name=value`:
/// nullptr when absent, "" for the bare `--name`, else the value.
inline const char* flag_option(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], name, len) == 0 &&
        (argv[i][len] == '\0' || argv[i][len] == '='))
      return argv[i][len] == '=' ? argv[i] + len + 1 : "";
  return nullptr;
}

/// All of `text` as a non-negative decimal integer; `what` names the input
/// in the error.
inline std::uint64_t parse_u64(const char* what, const char* text) {
  const char* end = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (text == end || ec != std::errc() || stop != end)
    usage_error(std::string(what) + " needs a non-negative integer, got '" +
                text + "'");
  return v;
}

/// All of `text` as a finite decimal number.
inline double parse_real(const char* what, const char* text) {
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (text == end || ec != std::errc() || stop != end || !std::isfinite(v))
    usage_error(std::string(what) + " needs a finite number, got '" + text +
                "'");
  return v;
}

/// The value of `name`, or `fallback` when it is absent. A result outside
/// [lo, hi] — the bounds the library will check — is a usage error, a
/// fallback included (another flag may have narrowed the bounds).
inline std::uint64_t flag_u64(
    int argc, char** argv, const char* name, std::uint64_t fallback,
    std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  const char* v = flag_value(argc, argv, name);
  const std::uint64_t x = v == nullptr ? fallback : parse_u64(name, v);
  if (x < lo || x > hi)
    usage_error(std::string(name) + " must be " +
                (hi == std::numeric_limits<std::uint64_t>::max()
                     ? "at least " + std::to_string(lo)
                     : "in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]") +
                ", got " + std::to_string(x) +
                (v == nullptr ? " (the default)" : ""));
  return x;
}

inline double flag_real(int argc, char** argv, const char* name,
                        double fallback) {
  const char* v = flag_value(argc, argv, name);
  return v == nullptr ? fallback : parse_real(name, v);
}

/// A comma-separated list of finite numbers, e.g. `--speeds 1.4,33.3`.
inline std::vector<real> flag_reals(int argc, char** argv, const char* name,
                                    std::vector<real> fallback) {
  const char* v = flag_value(argc, argv, name);
  if (v == nullptr) return fallback;
  std::vector<real> out;
  const std::string list = v;
  for (std::size_t pos = 0; pos <= list.size();) {
    std::size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    out.push_back(parse_real(name, list.substr(pos, next - pos).c_str()));
    pos = next + 1;
  }
  return out;
}

/// Thread-count knob shared by every figure bench: `--threads N` on the
/// command line, else the MMW_THREADS environment variable, else 0 = auto
/// (all hardware threads). The results are bit-identical for any value —
/// this only trades wall-clock for cores.
inline index_t threads_from_cli(int argc, char** argv) {
  if (const char* v = flag_value(argc, argv, "--threads"))
    return parse_u64("--threads", v);
  if (const char* env = std::getenv("MMW_THREADS"))
    return parse_u64("MMW_THREADS", env);
  return 0;
}

/// The paper's setup: TX 4×4 λ/2 UPA (M = 16), RX 8×8 λ/2 UPA (N = 64),
/// angular-grid codebooks over a ±60°×±30° sector, T = 1024 beam pairs.
inline sim::Scenario paper_scenario(sim::ChannelKind channel,
                                    index_t trials = 25,
                                    std::uint64_t seed = 2016) {
  sim::Scenario sc;
  sc.channel = channel;
  sc.trials = trials;
  sc.seed = seed;
  return sc;
}

/// Search rates matching the span of the paper's Figs. 5–6 x-axes.
inline std::vector<real> paper_search_rates() {
  return {0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35};
}

/// Target losses matching the span of the paper's Figs. 7–8 x-axes.
inline std::vector<real> paper_target_losses() {
  return {6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5};
}

inline void print_header(const char* figure, const char* description,
                         index_t threads = 0) {
  std::printf("=== %s: %s ===\n", figure, description);
  std::printf(
      "setup: TX 4x4 UPA (M=16), RX 8x8 UPA (N=64), T=1024 pairs, "
      "gamma=0 dB, 8 fades/measurement, %zu thread(s)\n\n",
      core::resolve_thread_count(threads));
}

/// Writes a CSV artifact under bench_results/ (created on demand) so the
/// figure data can be plotted without re-running the sweep. Failures
/// (including a full disk, which may only show when the file is closed)
/// are reported on stderr but non-fatal: the printed table remains the
/// primary output, and the "written" line appears only on success.
inline void write_artifact(const std::string& filename,
                           const std::string& content) {
  const std::string path = "bench_results/" + filename;
  if (obs::write_text_file(path, content))
    std::printf("(csv written to %s)\n", path.c_str());
}

/// Observability lifecycle shared by every figure/ablation bench: construct
/// at the top of main, call finish() after the sweep.
///
///  - Instrumentation defaults ON for benches (the library default is off),
///    overridable with MMW_OBS=off or `--obs off|on` (CLI wins over env).
///  - `--trace[=path]` opts into span capture and writes a Chrome trace
///    JSON (chrome://tracing / Perfetto) — default path
///    bench_results/<name>_trace.json.
///  - finish() snapshots the metrics registry into a run manifest
///    (schema mmw.run_manifest/1) written next to the CSV artifact as
///    bench_results/<name>_manifest.json.
class BenchRun {
 public:
  BenchRun(std::string name, int argc, char** argv)
      : name_(std::move(name)), manifest_(name_) {
    obs::init_from_env(/*default_on=*/true);
    if (const char* v = flag_value(argc, argv, "--obs")) {
      const std::string mode = v;
      if (mode == "on" || mode == "1" || mode == "true")
        obs::set_enabled(true);
      else if (mode == "off" || mode == "0" || mode == "false")
        obs::set_enabled(false);
      else
        usage_error("--obs needs on or off, got '" + mode + "'");
    }
    if (const char* v = flag_option(argc, argv, "--trace"))
      trace_path_ =
          *v != '\0' ? v : "bench_results/" + name_ + "_trace.json";
    // A fresh registry per run: a bench may execute warm-up work before
    // main's sweep in future; today this is a no-op on first use.
    obs::Registry::global().reset();
    if (!trace_path_.empty())
      obs::TraceCollector::global().set_capturing(true);
    // Which scoring-kernel tier this process dispatched to (DESIGN.md §12):
    // recorded up front so even a crashed run's manifest says what ran.
    manifest_.add_config("kernels.dispatch",
                         std::string(linalg::kernels::active_tier_name()));
  }

  /// Adds the scenario's reproducibility-relevant knobs to the manifest.
  void add_scenario(const sim::Scenario& sc) {
    manifest_.add_config("channel", std::string(sc.channel ==
                                                        sim::ChannelKind::kSinglePath
                                                    ? "single_path"
                                                    : "nyc_multipath"));
    manifest_.add_config("trials", static_cast<std::uint64_t>(sc.trials));
    manifest_.add_config("seed", static_cast<std::uint64_t>(sc.seed));
    manifest_.add_config("threads",
                         static_cast<std::uint64_t>(
                             core::resolve_thread_count(sc.threads)));
    manifest_.add_config("gamma", static_cast<double>(sc.gamma));
    manifest_.add_config(
        "fades_per_measurement",
        static_cast<std::uint64_t>(sc.fades_per_measurement));
    manifest_.add_config("total_pairs",
                         static_cast<std::uint64_t>(sc.total_pairs()));
  }

  obs::RunManifest& manifest() { return manifest_; }

  /// Captures wall time + metrics and writes manifest (and trace, if
  /// enabled) under bench_results/.
  void finish() {
    manifest_.set_wall_seconds(timer_.seconds());
    // Top-level health indicators (DESIGN.md §11): solver non-convergence,
    // degradation-ladder fallbacks, and quarantined trials, surfaced so no
    // one has to dig through the metrics snapshot to spot a degraded run.
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const auto counter = [&](const char* name) -> std::uint64_t {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second.value;
    };
    const std::uint64_t ml_nonconverged =
        counter("estimation.ml.nonconverged");
    const std::uint64_t em_nonconverged =
        counter("estimation.em.nonconverged");
    manifest_.add_health("estimation.ml.nonconverged", ml_nonconverged);
    manifest_.add_health("estimation.ml.stalled",
                         counter("estimation.ml.stalled"));
    manifest_.add_health("estimation.em.nonconverged", em_nonconverged);
    manifest_.add_health("estimation.fallback.em",
                         counter("estimation.fallback.em"));
    manifest_.add_health("estimation.fallback.sample",
                         counter("estimation.fallback.sample"));
    manifest_.add_health("estimation.fallback.uniform",
                         counter("estimation.fallback.uniform"));
    manifest_.add_health("estimation.fallback.stressed",
                         counter("estimation.fallback.stressed"));
    manifest_.add_health("sim.trials.quarantined",
                         counter("sim.trials.quarantined"));
    // Peak scoring-scratch footprint across all worker threads: the
    // workspace never shrinks during a run, so this is the run's
    // steady-state kernel workspace (bytes, not a rate).
    manifest_.add_config("kernels.arena_high_water_bytes",
                         static_cast<std::uint64_t>(
                             linalg::kernels::arena_high_water_bytes()));
    // Process-wide peak resident set (kernel VmHWM) so every manifest
    // carries a memory high-water mark alongside the workspace accounting.
    manifest_.add_config("peak_rss_bytes", obs::peak_rss_bytes());
    if (ml_nonconverged + em_nonconverged > 0)
      std::fprintf(stderr,
                   "warning: %llu covariance solve(s) hit the iteration "
                   "cap without converging (ml=%llu, em=%llu) — see the "
                   "manifest health section\n",
                   static_cast<unsigned long long>(ml_nonconverged +
                                                   em_nonconverged),
                   static_cast<unsigned long long>(ml_nonconverged),
                   static_cast<unsigned long long>(em_nonconverged));
    manifest_.capture_metrics();
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    const std::string manifest_path =
        "bench_results/" + name_ + "_manifest.json";
    if (obs::write_text_file(manifest_path, manifest_.to_json()))
      std::printf("(manifest written to %s)\n", manifest_path.c_str());
    if (!trace_path_.empty()) {
      obs::TraceCollector& tc = obs::TraceCollector::global();
      if (obs::write_text_file(trace_path_, tc.chrome_json()))
        std::printf("(trace written to %s, %llu events)\n",
                    trace_path_.c_str(),
                    static_cast<unsigned long long>(tc.event_count()));
      tc.set_capturing(false);
      tc.clear();
    }
  }

 private:
  std::string name_;
  obs::RunManifest manifest_;
  obs::WallTimer timer_;
  std::string trace_path_;
};

}  // namespace mmw::bench
