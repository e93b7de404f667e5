// Shared setup for the figure-reproduction benches: the paper's simulation
// configuration (Sec. V-A) and a uniform report format.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "args.h"
#include "core/thread_pool.h"
#include "linalg/kernels.h"
#include "obs/clock.h"
#include "obs/manifest.h"
#include "obs/trace.h"
#include "sim/experiments.h"

namespace mmw::bench {

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

/// The run lifecycle shared by every figure/ablation bench: construct at
/// the top of main, call finish() after the sweep. The constructor reads
/// the flags every bench takes:
///
///  - `--threads N`: threads of the trial-parallel drivers, 0 (the
///    default) = all hardware threads. The results are bit-identical for
///    any value; this only trades wall-clock for cores.
///  - `--obs on|off`: instrumentation, on by default for benches (the
///    library default is off).
///  - `--trace[=path]` opts into span capture and writes a Chrome trace
///    JSON (chrome://tracing / Perfetto) — default path
///    bench_results/<name>_trace.json.
///
/// The bench then reads its own flags from the same `args` and calls
/// args.reject_unknown() before its sweep. finish() snapshots the metrics
/// registry into a run manifest (schema mmw.run_manifest/1) written next to
/// the CSV artifact as bench_results/<name>_manifest.json.
class BenchRun {
 public:
  BenchRun(std::string name, Args& args)
      : name_(std::move(name)), manifest_(name_) {
    obs::init_from_env();
    threads_ = args.u64("--threads", 0);
    const char* obs_flag = args.value("--obs");
    const std::string mode = obs_flag == nullptr ? "on" : obs_flag;
    if (mode == "on" || mode == "1" || mode == "true")
      obs::set_enabled(true);
    else if (mode == "off" || mode == "0" || mode == "false")
      obs::set_enabled(false);
    else
      usage_error("--obs needs on or off, got '" + mode + "'");
    if (const char* v = args.option("--trace"))
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

  /// The `--threads` value (0 = all hardware threads).
  index_t threads() const { return threads_; }

  void print_header(const char* figure, const char* description) const {
    std::printf("=== %s: %s ===\n", figure, description);
    std::printf(
        "setup: TX 4x4 UPA (M=16), RX 8x8 UPA (N=64), T=1024 pairs, "
        "gamma=0 dB, 8 fades/measurement, %zu thread(s)\n\n",
        core::resolve_thread_count(threads_));
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
  index_t threads_ = 0;
  std::string trace_path_;
};

}  // namespace mmw::bench
