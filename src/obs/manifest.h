// Run manifests: one JSON document per experiment/bench run recording what
// was run (config, seed, threads), on what (compiler, build type), how long
// it took, and the aggregated metrics snapshot — so a CSV artifact is never
// an orphan. Schema documented in EXPERIMENTS.md §Observability.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mmw::obs {

/// Builder for a run manifest. Config entries preserve insertion order.
class RunManifest {
 public:
  explicit RunManifest(std::string name) : name_(std::move(name)) {}

  void add_config(std::string key, std::string value);
  void add_config(std::string key, double value);
  void add_config(std::string key, std::uint64_t value);
  void add_config(std::string key, bool value);

  void set_wall_seconds(double s) { wall_seconds_ = s; }

  /// Adds one top-level health indicator (solver non-convergence totals,
  /// fallback counts, quarantined trials — DESIGN.md §11). Health entries
  /// are surfaced at the document's top level so a reader never has to dig
  /// through the full metrics snapshot to judge whether a run degraded.
  void add_health(std::string key, std::uint64_t value);

  /// Captures Registry::global()'s current merged state into the manifest.
  void capture_metrics() { metrics_json_ = Registry::global().snapshot().to_json(); }

  /// Renders the manifest document:
  ///   {"schema": "mmw.run_manifest/1", "name": ..., "build": {...},
  ///    "config": {...}, "wall_seconds": ..., "health": {...},
  ///    "metrics": {...}}
  std::string to_json() const;

 private:
  std::string name_;
  /// (key, pre-rendered JSON value) — rendering happens in add_config so
  /// heterogeneous types need no variant.
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::uint64_t>> health_;
  double wall_seconds_ = 0.0;
  std::string metrics_json_;
};

/// Opens `path` for writing (truncating it), creating parent directories
/// on demand. Returns null (after printing a note to stderr) on failure.
/// The one way obs output files are opened: write_text_file and
/// TelemetrySink::open both call it.
std::FILE* open_output_file(const std::string& path);

/// Writes `content` to `path`, creating parent directories on demand.
/// Returns false (after printing a note to stderr) on failure — telemetry
/// output must never take down a run.
bool write_text_file(const std::string& path, const std::string& content);

/// Peak resident-set size of this process in bytes (Linux: VmHWM from
/// /proc/self/status, falling back to getrusage ru_maxrss; 0 when neither
/// source is available). Recorded in every bench manifest so memory claims
/// — the serving engine's fixed-budget contract above all — are
/// evidence-backed rather than asserted.
std::uint64_t peak_rss_bytes();

/// Current resident-set size in bytes (Linux: VmRSS from /proc/self/status;
/// 0 elsewhere). Sampled per epoch by the telemetry sink and per poll by
/// the watchdog — a live complement to the end-of-run peak above.
std::uint64_t current_rss_bytes();

}  // namespace mmw::obs
