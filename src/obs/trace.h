// Scoped tracing spans with a Chrome trace_event JSON exporter.
//
// Capture model mirrors the metrics registry: per-thread event buffers in
// obs::ThreadShards (no cross-thread contention while recording) flushed
// into one JSON document on export, buffers ordered by thread ordinal.
// Span names and categories are `const char*` and must point at STATIC
// storage (string literals) — events store the pointer, not a copy.
//
// Two independent switches gate capture:
//   obs::enabled()            — the master instrumentation toggle;
//   TraceCollector::set_capturing(true) — tracing opt-in (traces cost
//                               memory per event; metrics do not).
// A span records only when both are on AT CONSTRUCTION TIME; the disabled
// path is two relaxed atomic loads and no clock read.
//
// The exported JSON loads directly in chrome://tracing and Perfetto
// (ui.perfetto.dev → "Open trace file"); see EXPERIMENTS.md §Observability.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/shards.h"

namespace mmw::obs {

class JsonWriter;

/// One trace_event entry. 'X' = complete span, 'C' = counter sample.
struct TraceEvent {
  static constexpr int kMaxArgs = 4;
  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };

  const char* name = nullptr;
  const char* category = nullptr;
  char phase = 'X';
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  double value = 0.0;  ///< counter phase only
  Arg args[kMaxArgs];
  int num_args = 0;
};

/// Writes `e` as one Chrome trace_event object on thread `tid` — the span
/// writer behind both TraceCollector::chrome_json and
/// FlightRecorder::chrome_json.
void write_chrome_event(JsonWriter& w, const TraceEvent& e, std::uint64_t tid);

class TraceCollector {
 public:
  static TraceCollector& global();

  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Opt into event capture (still requires obs::enabled()).
  void set_capturing(bool on) {
    capturing_.store(on, std::memory_order_relaxed);
  }
  bool capturing() const {
    return enabled() && capturing_.load(std::memory_order_relaxed);
  }

  /// Records a completed span. `args` may be null when `num_args` is 0.
  void complete(const char* name, const char* category, std::uint64_t ts_us,
                std::uint64_t dur_us, const TraceEvent::Arg* args,
                int num_args);

  /// Records a counter sample at the current time (e.g. an NLL trajectory
  /// point); rendered as a counter track in the trace viewer.
  void counter(const char* name, double value);

  /// Number of captured events (all threads).
  std::uint64_t event_count() const;

  /// Renders every captured event as a Chrome trace JSON document
  /// ({"traceEvents": [...]}). Thread buffers are emitted in ordinal
  /// order; safe to call while capture continues (point-in-time view).
  std::string chrome_json() const;

  /// Drops all captured events (buffers stay registered).
  void clear();

 private:
  void push(const TraceEvent& event);

  std::atomic<bool> capturing_{false};
  ThreadShards<std::vector<TraceEvent>> buffers_;
};

/// RAII span: captures the start time at construction, records a complete
/// event at destruction. Every span feeds two sinks: the opt-in
/// TraceCollector (full traces, when capturing) and the always-armed
/// FlightRecorder ring (last-K spans, see flight.h). Inert — no clock
/// read, no recording — only when BOTH are off at construction. Up to
/// kMaxArgs numeric args may be attached (full traces only); keys must be
/// string literals.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category = "mmw")
      : active_(TraceCollector::global().capturing()),
        flight_(FlightRecorder::global().armed()) {
    if (active_ || flight_) {
      name_ = name;
      category_ = category;
      start_us_ = now_us();
    }
  }
  ~TraceScope() {
    if (!active_ && !flight_) return;
    const std::uint64_t dur_us = now_us() - start_us_;
    if (active_)
      TraceCollector::global().complete(name_, category_, start_us_, dur_us,
                                        args_, num_args_);
    if (flight_)
      FlightRecorder::global().record(name_, category_, start_us_, dur_us);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Attaches a numeric argument shown in the viewer's span details.
  void arg(const char* key, double value) {
    if (active_ && num_args_ < TraceEvent::kMaxArgs)
      args_[num_args_++] = {key, value};
  }

  bool active() const { return active_; }

 private:
  bool active_;
  bool flight_;
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t start_us_ = 0;
  TraceEvent::Arg args_[TraceEvent::kMaxArgs];
  int num_args_ = 0;
};

#define MMW_OBS_CONCAT_INNER(a, b) a##b
#define MMW_OBS_CONCAT(a, b) MMW_OBS_CONCAT_INNER(a, b)

/// Anonymous scoped span: MMW_TRACE_SCOPE("estimation.ml.solve");
#define MMW_TRACE_SCOPE(...) \
  ::mmw::obs::TraceScope MMW_OBS_CONCAT(mmw_trace_scope_, __COUNTER__)(__VA_ARGS__)

}  // namespace mmw::obs
