// Streaming per-epoch telemetry: NDJSON export, schema mmw.telemetry/1.
//
// The serving engine (src/serve) runs for hours; one end-of-run manifest
// cannot show WHEN an outage burst hit or which epoch's re-alignment storm
// ate the latency budget. The telemetry sink emits one self-describing
// JSON record per epoch, newline-delimited, flushed per line so an
// external tail (tools/telemetry_report.py --tail) sees epochs live.
//
// Determinism split (DESIGN.md §14): every field OUTSIDE the "timing"
// sub-object is a pure function of (config, seed) — counters merged from
// the engine's MetricFrames in flat shard order, loss quantiles from
// shard-merged QuantileDigests, memory figures from deterministic slab
// arithmetic. Byte-identity across --threads is a CI gate. Wall-time and
// process-level measurements (epoch seconds, pool busy/idle, RSS) live
// ONLY in "timing", which is rendered LAST in each record so a comparison
// can strip it by truncating the line at `,"timing":` — no JSON parser
// needed in tests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "linalg/common.h"

namespace mmw::obs {

/// One epoch's exportable state. Counter/memory/loss fields must be
/// deterministic (see header comment); timing fields need not be.
struct TelemetryRecord {
  std::uint64_t epoch = 0;

  // -- counters: integer event totals for the epoch -----------------------
  std::uint64_t live_sessions = 0;  ///< resident sessions after churn
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t aligning_steps = 0;  ///< session-epochs spent aligning
  std::uint64_t tracking_steps = 0;  ///< session-epochs spent tracking
  std::uint64_t outages = 0;
  std::uint64_t realignments = 0;  ///< re-entries after an outage
  std::uint64_t claims = 0;        ///< beam pairs claimed this epoch
  std::uint64_t measurement_slots = 0;
  std::uint64_t estimator_nonconverged = 0;  ///< ladder rung: ML fallbacks

  // -- memory: deterministic slab arithmetic ------------------------------
  std::uint64_t pool_resident_bytes = 0;
  std::uint64_t pool_high_water_bytes = 0;

  // -- loss_db: quantiles of per-session loss this epoch ------------------
  std::uint64_t loss_count = 0;
  real loss_mean_db = 0.0;
  real loss_p50_db = 0.0;
  real loss_p90_db = 0.0;
  real loss_p99_db = 0.0;
  real loss_p999_db = 0.0;
  real loss_max_db = 0.0;

  // -- timing: wall-clock / process state, excluded from determinism ------
  double epoch_seconds = 0.0;
  double epoch_seconds_p50 = 0.0;  ///< rolling, over epochs so far
  double epoch_seconds_p99 = 0.0;
  std::uint64_t pool_busy_us = 0;  ///< this epoch's delta
  std::uint64_t pool_idle_us = 0;
  std::uint64_t rss_bytes = 0;
  std::uint64_t arena_high_water_bytes = 0;
  std::uint64_t flight_events = 0;

  /// Renders one record. The "timing" key, when included, is the LAST key
  /// of the document (the determinism-comparison contract).
  std::string to_json(bool include_timing = true) const;
};

/// Appends records to an NDJSON file, one flushed line each. Parent
/// directories are created on demand; all I/O failures degrade to a
/// stderr note — telemetry must never take down a run.
class TelemetrySink {
 public:
  TelemetrySink() = default;
  ~TelemetrySink() { close(); }
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Opens (truncates) `path`. Returns false on failure, leaving the sink
  /// closed; write() on a closed sink is a no-op.
  bool open(const std::string& path);
  bool is_open() const { return file_ != nullptr; }

  void write(const TelemetryRecord& record);
  /// Records whose line reached the file (a failed write is not counted).
  std::uint64_t records_written() const { return records_written_; }

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t records_written_ = 0;
};

}  // namespace mmw::obs
