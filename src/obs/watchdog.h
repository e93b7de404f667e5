// Watchdog: stall detection plus a health endpoint-on-disk.
//
// A long-running serving process needs two things end-of-run manifests
// cannot give: (1) detection that the epoch loop has STOPPED making
// progress (a deadlocked shard, a wedged worker) while the process still
// looks alive from outside, and (2) a machine-readable liveness signal an
// operator can tail without attaching a debugger.
//
// The watchdog runs one monitor thread that polls a caller-supplied
// progress counter. The stall threshold adapts to the workload: the engine
// reports each epoch's duration via note_epoch_seconds() and the watchdog
// trips when no progress lands within `stall_multiplier ×` the rolling
// (EWMA) epoch time — floored at `min_stall_seconds` so startup and tiny
// test configs don't false-trip. A trip dumps the flight recorder (the
// last K spans per thread are exactly the forensic record of what each
// thread was doing when progress stopped), increments the
// "obs.watchdog.trips" counter, and flips the health status to "stalled";
// progress resuming flips it back to "ok" (the trip count is sticky).
//
// Each poll atomically rewrites `health.json` (schema mmw.health/1) via
// write-temp-then-rename, so an external `watch cat health.json` never
// observes a torn document. The watchdog only OBSERVES — it never touches
// engine state or any Rng — so enabling it cannot change results
// (determinism contract, DESIGN.md §8).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mmw::obs {

struct WatchdogConfig {
  /// Health file path; empty disables the file (stall detection still runs).
  std::string health_path;
  double poll_seconds = 0.25;
  /// Trip when no progress for stall_multiplier × rolling epoch seconds.
  double stall_multiplier = 8.0;
  /// Threshold floor, so sub-millisecond epochs don't make the watchdog
  /// hair-triggered.
  double min_stall_seconds = 2.0;
};

class Watchdog {
 public:
  /// Returns a monotonically increasing progress value. Called from the
  /// monitor thread concurrently with the workload: it must read only
  /// atomics (e.g. the engine's shard counter + the pool heartbeat).
  using ProgressFn = std::function<std::uint64_t()>;
  /// Optional extra health fields, (key, numeric value) pairs appended to
  /// the health document. Same concurrency contract as ProgressFn.
  using StatusFn =
      std::function<std::vector<std::pair<std::string, double>>()>;

  /// Starts the monitor thread immediately.
  Watchdog(WatchdogConfig config, ProgressFn progress, StatusFn status = {});
  ~Watchdog();  ///< stop()s if still running
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Feeds one epoch duration into the rolling estimate that scales the
  /// stall threshold. Callable from any thread.
  void note_epoch_seconds(double seconds);

  /// True once any stall was detected (sticky; `trips()` counts them).
  bool tripped() const { return trips_.load(std::memory_order_relaxed) > 0; }
  std::uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }

  /// True while the CURRENT state is stalled (clears when progress resumes).
  bool stalled() const { return stalled_.load(std::memory_order_relaxed); }

  /// Stops the monitor thread and writes a final health document with
  /// status "stopped". Idempotent.
  void stop();

  /// Current stall threshold in seconds (tests).
  double stall_threshold_seconds() const;

 private:
  void run(std::stop_token st);
  void write_health(const std::string& status, std::uint64_t progress,
                    double since_progress_s) const;

  WatchdogConfig config_;
  ProgressFn progress_;
  StatusFn status_;
  std::atomic<double> epoch_ewma_s_{0.0};
  std::atomic<std::uint64_t> trips_{0};
  std::atomic<bool> stalled_{false};
  std::atomic<bool> stopped_{false};
  std::uint64_t start_us_ = 0;
  mutable std::mutex stop_mutex_;
  std::condition_variable_any stop_cv_;
  std::jthread thread_;  ///< last member: joins before the rest destructs
};

}  // namespace mmw::obs
