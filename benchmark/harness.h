// Shared pieces of the benchmark driver: options, the report a run fills,
// span self-time accounting for the traced run, and the Workload interface
// the four workloads implement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "host_speed.h"
#include "linalg/common.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmwb {

using mmw::index_t;
using mmw::real;

/// Heap allocations made so far by the calling thread (alloc_count.cpp).
std::uint64_t allocations();

/// Seconds on the steady clock (arbitrary origin).
double now_s();

/// Per-round input seed: a fixed mix of the run seed and the round index, so
/// the same --seed gives the same inputs in every round.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

double median(std::vector<double> v);
/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

std::string read_file(const std::string& path);

/// FNV-1a of `text`, folded to 52 bits so a double holds it exactly: the
/// fingerprint of a run's rendered outputs among its deterministic values.
double text_hash(std::string_view text);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes, no golden comparison: the self-test's fast path.
  bool smoke = false;
  /// Root of the source checkout (goldens live under bench_results/).
  std::string repo_root = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: metrics, deterministic values, output checks.
class Report {
 public:
  /// Sets (or replaces) a metric.
  void metric(const std::string& name, double value, const std::string& unit);
  /// A value that must repeat exactly across runs at one seed and between
  /// the traced and the untraced run (the obs on/off contract).
  void deterministic(const std::string& name, double value);
  /// Records an output check; any failure fails every op of the run.
  void check(bool ok, const std::string& what);

  bool correct() const { return failures_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, double>>& deterministic() const {
    return deterministic_;
  }
  const std::vector<std::string>& failures() const { return failures_; }

  std::uint64_t attempted = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> deterministic_;
  std::vector<std::string> failures_;
};

/// A bench.<layer>.<call> span around one public call. Opened only in the
/// traced run: the untraced run keeps its own timers and opens none.
class BenchSpan {
 public:
  BenchSpan(bool tracing, const char* name) {
    if (tracing) scope_.emplace(name, "bench");
  }

 private:
  std::optional<mmw::obs::TraceScope> scope_;
};

/// Per-name totals of complete ('X') trace events, with self time = span
/// duration minus the part of it that child spans on the same thread cover.
class SpanTimes {
 public:
  /// Folds in every complete event of one obs::TraceCollector::chrome_json()
  /// document. Spans must not straddle two documents. Returns false when the
  /// document does not parse.
  bool add_chrome_json(std::string_view json);

  double self_s(std::string_view name) const;
  /// Σ self time over every span: the wall covered by top-level spans.
  double all_self_s() const;

 private:
  std::map<std::string, double, std::less<>> self_us_;
};

/// Counter value from a metrics snapshot (0 when never registered).
std::uint64_t counter(const mmw::obs::MetricsSnapshot& snap,
                      const char* name);
/// Mean of a histogram's samples (0 when empty).
double histogram_mean(const mmw::obs::MetricsSnapshot& snap,
                      const char* name);

/// Per-call costs of the public calls a workload's steps make, replayed on
/// sampled live inputs (replay.h). Times in the unit of the field name.
struct ReplayCosts {
  double stream_ns = 0.0;
  double link_regen_us = 0.0;
  double link_regen_allocs = 0.0;
  double pair_gain_scan_us = 0.0;
  double evolve_us = 0.0;
  double probe_us = 0.0;
  double probe_allocs = 0.0;
  double scoring_us = 0.0;
  double expand_us = 0.0;
  double compress_us = 0.0;
  double merge_us = 0.0;
  double codec_allocs = 0.0;
  double ml_solve_us = 0.0;
  double ml_allocs = 0.0;
  double digest_add_ns = 0.0;
  double digest_merge_us = 0.0;
  double track_step_us = 0.0;
  double make_trial_us = 0.0;
};

/// Seconds of the traced timed phase attributed to each layer: replayed
/// per-call cost × the run's call counts. `base_s` is the measured time
/// they are shares of.
struct Attribution {
  double base_s = 0.0;
  double channel_s = 0.0;
  double mac_s = 0.0;
  double antenna_s = 0.0;
  double ml_s = 0.0;
  double codec_s = 0.0;
  double randgen_s = 0.0;
  double obs_s = 0.0;
  double serve_track_s = 0.0;
  double sim_s = 0.0;
};

/// One benchmark workload. The driver calls setup() several times (each
/// builds from scratch; the last one is kept), then round(0), round(1), …
/// for --seconds and at least quality_rounds() rounds, then finish(); the
/// golden comparison runs at the default seed; the traced run adds
/// replay() and layers().
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// One timed round; returns the ops it completed. A round of several
  /// library calls marks the boundaries between them with `clock.split()`,
  /// so the host's speed is sampled through the round.
  virtual std::uint64_t round(index_t r, bool tracing,
                              NominalClock& clock) = 0;
  /// Rounds whose outputs feed the deterministic quality metrics.
  virtual index_t quality_rounds() const = 0;
  /// Quality metrics and invariant checks over the rounds run.
  virtual void finish(Report& report) = 0;
  /// Byte-for-byte comparison with the committed golden CSVs.
  virtual void golden(Report& report, const std::string& repo_root) = 0;
  /// Traced run: replayed per-call costs on this workload's live inputs,
  /// with any check that ties the replay to the library's own steps.
  virtual ReplayCosts replay(Report& report) = 0;
  /// Traced run: the timed rounds' seconds by layer (replayed costs × the
  /// run's call counts) and the workload's own layer metrics. `timed_s` is
  /// Σ round time; `counters` the library metrics of the timed rounds.
  virtual Attribution layers(Report& report, double timed_s,
                             const mmw::obs::MetricsSnapshot& counters,
                             const ReplayCosts& costs) = 0;
};

std::unique_ptr<Workload> make_serve_steady(const Options& o);
std::unique_ptr<Workload> make_serve_realign_ml(const Options& o);
std::unique_ptr<Workload> make_paper_figs(const Options& o);
std::unique_ptr<Workload> make_track_mobility(const Options& o);

/// Compares `actual` with the committed golden file; records the check.
void check_golden(Report& report, const std::string& repo_root,
                  const std::string& relative_path, const std::string& actual);

}  // namespace mmwb
