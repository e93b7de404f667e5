// Streaming per-epoch telemetry: an NDJSON line sink.
//
// The serving engine (src/serve) runs for hours; one end-of-run manifest
// cannot show WHEN an outage burst hit or which epoch's re-alignment storm
// ate the latency budget. The engine renders one self-describing JSON line
// per epoch (schema mmw.telemetry/1, serve::render_telemetry_line) and
// this sink appends it, flushed per line so an external tail
// (tools/telemetry_report.py --tail) sees epochs live.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace mmw::obs {

/// Appends lines to an NDJSON file, one flushed line each. Parent
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

  /// Appends `line` (one JSON document, no newline) and a newline.
  void write(std::string_view line);
  /// Lines that reached the file (a failed write is not counted).
  std::uint64_t records_written() const { return records_written_; }

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t records_written_ = 0;
};

}  // namespace mmw::obs
