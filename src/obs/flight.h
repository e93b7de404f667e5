// Flight recorder: always-on per-thread ring buffers of recent trace spans.
//
// Full tracing (TraceCollector) costs memory per event and is therefore
// opt-in; the flight recorder is its complement for hour-long serving runs:
// every thread keeps only its last K spans in a fixed ring, so when an
// anomaly fires — a quarantined trial, an outage burst, a watchdog trip —
// the moments leading up to it can be dumped as a Chrome-trace snapshot
// without having traced the whole run.
//
// "Always on" is literal: TraceScope feeds the ring even when
// obs::enabled() is false, because the anomalies worth debugging occur in
// production runs that keep full instrumentation off. The cost is bounded
// by the ring write (TLS lookup + uncontended mutex + slot store) and is
// held under the same ≤3% budget as the disabled-obs path by
// tools/check_perf.py (--flight-off A/B on BM_SlotCycle*).
// MMW_FLIGHT=off (read by obs::init_from_env) disarms it for bare runs.
//
// Dumps are capped (kMaxDumps per recorder) so a pathological run — every
// epoch bursting — cannot fill the disk; the cap and every dump are counted
// in the "obs.flight.dumps" metric.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/common.h"

namespace mmw::obs {

/// One recorded span. Name/category are `const char*` into static storage,
/// same contract as TraceEvent.
struct FlightEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
};

class FlightRecorder {
 public:
  static constexpr index_t kDefaultCapacity = 256;  ///< spans kept per thread
  static constexpr std::uint64_t kMaxDumps = 8;     ///< per recorder lifetime

  /// Process-wide instance fed by TraceScope. Armed by default.
  static FlightRecorder& global();

  explicit FlightRecorder(index_t capacity = kDefaultCapacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Whether spans are being recorded. One relaxed load — this is the
  /// TraceScope fast-path check.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  void set_armed(bool on) { armed_.store(on, std::memory_order_relaxed); }

  /// Records one completed span into the calling thread's ring,
  /// overwriting the oldest entry when full.
  void record(const char* name, const char* category, std::uint64_t ts_us,
              std::uint64_t dur_us);

  /// Renders the current ring contents (all threads, ordinal order, oldest
  /// first) as a Chrome trace JSON document; `reason` lands in the
  /// document's "otherData" so a dump is self-describing.
  std::string chrome_json(std::string_view reason) const;

  /// Writes a snapshot to `<dump_dir>/flight_<seq>_<reason>.json`.
  /// Returns the path, or "" when disarmed, over the dump cap, or the
  /// write failed. `reason` should be a short identifier (it is sanitized
  /// into the filename).
  std::string dump(std::string_view reason);

  /// Directory for dump files (default "bench_results").
  void set_dump_directory(std::string dir);

  std::uint64_t dump_count() const {
    return dumps_taken_.load(std::memory_order_relaxed);
  }

  /// Spans currently held across all rings (point-in-time; tests).
  std::uint64_t event_count() const;

  /// Empties every ring (rings stay registered; run boundaries, tests).
  void clear();

 private:
  struct Ring;
  Ring& local_ring();

  std::atomic<bool> armed_{true};
  index_t capacity_;
  std::atomic<std::uint64_t> dumps_taken_{0};
  mutable std::mutex mutex_;  ///< guards rings_ list and dump_dir_
  std::vector<std::shared_ptr<Ring>> rings_;
  std::uint64_t next_sequence_ = 0;
  std::string dump_dir_ = "bench_results";
};

}  // namespace mmw::obs
