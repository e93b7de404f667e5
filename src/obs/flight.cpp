#include "obs/flight.h"

#include <algorithm>
#include <cctype>

#include "obs/clock.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmw::obs {

namespace {

std::string sanitize_reason(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (char c : reason)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  if (out.empty()) out = "unspecified";
  return out;
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = new FlightRecorder();  // outlives TLS
  return *instance;
}

FlightRecorder::FlightRecorder(index_t capacity)
    : rings_(Ring{std::vector<FlightEvent>(std::max<index_t>(capacity, 1))}) {}

void FlightRecorder::record(const char* name, const char* category,
                            std::uint64_t ts_us, std::uint64_t dur_us) {
  if (!armed()) return;
  rings_.with_local([&](Ring& ring) {
    ring.slots[ring.head] = FlightEvent{name, category, ts_us, dur_us};
    ring.head = (ring.head + 1) % ring.slots.size();
    if (ring.count < ring.slots.size()) ++ring.count;
  });
}

std::string FlightRecorder::chrome_json(std::string_view reason) const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  rings_.for_each([&](const Ring& ring, std::uint64_t ordinal) {
    // Oldest-first: the ring's logical start is `head` when full, 0 before.
    const index_t n = ring.count;
    const index_t start = n == ring.slots.size() ? ring.head : index_t{0};
    for (index_t i = 0; i < n; ++i) {
      const FlightEvent& e = ring.slots[(start + i) % ring.slots.size()];
      TraceEvent span;
      span.name = e.name;
      span.category = e.category;
      span.ts_us = e.ts_us;
      span.dur_us = e.dur_us;
      write_chrome_event(w, span, ordinal);
    }
  });
  w.end_array();
  w.key("displayTimeUnit");
  w.string("ms");
  w.key("otherData");
  w.begin_object();
  w.key("source");
  w.string("mmw.flight_recorder/1");
  w.key("reason");
  w.string(reason);
  w.key("snapshot_us");
  w.number(now_us());
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::string FlightRecorder::dump(std::string_view reason) {
  if (!armed()) return "";
  const std::uint64_t seq =
      dumps_taken_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= kMaxDumps) {
    // Keep the counter saturated at the cap instead of growing forever.
    dumps_taken_.store(kMaxDumps, std::memory_order_relaxed);
    return "";
  }
  std::string dir;
  {
    std::lock_guard lock(mutex_);
    dir = dump_dir_;
  }
  const std::string path = dir + "/flight_" + std::to_string(seq) + "_" +
                           sanitize_reason(reason) + ".json";
  if (!write_text_file(path, chrome_json(reason))) return "";
  Registry::global().counter("obs.flight.dumps").add();
  return path;
}

void FlightRecorder::set_dump_directory(std::string dir) {
  std::lock_guard lock(mutex_);
  dump_dir_ = std::move(dir);
}

std::uint64_t FlightRecorder::event_count() const {
  std::uint64_t n = 0;
  rings_.for_each([&](const Ring& ring, std::uint64_t) { n += ring.count; });
  return n;
}

void FlightRecorder::clear() {
  rings_.for_each([](Ring& ring, std::uint64_t) {
    ring.head = 0;
    ring.count = 0;
  });
}

}  // namespace mmw::obs
