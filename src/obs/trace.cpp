#include "obs/trace.h"

#include <algorithm>

#include "obs/json.h"

namespace mmw::obs {

TraceCollector& TraceCollector::global() {
  static TraceCollector* instance = new TraceCollector();  // outlives TLS
  return *instance;
}

void TraceCollector::push(const TraceEvent& event) {
  buffers_.with_local(
      [&](std::vector<TraceEvent>& events) { events.push_back(event); });
}

void TraceCollector::complete(const char* name, const char* category,
                              std::uint64_t ts_us, std::uint64_t dur_us,
                              const TraceEvent::Arg* args, int num_args) {
  if (!capturing()) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.num_args = std::min(num_args, TraceEvent::kMaxArgs);
  for (int i = 0; i < e.num_args; ++i) e.args[i] = args[i];
  push(e);
}

void TraceCollector::counter(const char* name, double value) {
  if (!capturing()) return;
  TraceEvent e;
  e.name = name;
  e.category = "mmw";
  e.phase = 'C';
  e.ts_us = now_us();
  e.value = value;
  push(e);
}

void write_chrome_event(JsonWriter& w, const TraceEvent& e,
                        std::uint64_t tid) {
  w.begin_object();
  w.key("name");
  w.string(e.name != nullptr ? e.name : "?");
  w.key("cat");
  w.string(e.category != nullptr ? e.category : "mmw");
  w.key("ph");
  w.string(std::string_view(&e.phase, 1));
  w.key("pid");
  w.number(std::uint64_t{1});
  w.key("tid");
  w.number(tid);
  w.key("ts");
  w.number(e.ts_us);
  if (e.phase == 'X') {
    w.key("dur");
    w.number(e.dur_us);
  }
  if (e.phase == 'C') {
    w.key("args");
    w.begin_object();
    w.key("value");
    w.number(e.value);
    w.end_object();
  } else if (e.num_args > 0) {
    w.key("args");
    w.begin_object();
    for (int i = 0; i < e.num_args; ++i) {
      w.key(e.args[i].key);
      w.number(e.args[i].value);
    }
    w.end_object();
  }
  w.end_object();
}

std::uint64_t TraceCollector::event_count() const {
  std::uint64_t n = 0;
  buffers_.for_each([&](const std::vector<TraceEvent>& events,
                        std::uint64_t) { n += events.size(); });
  return n;
}

std::string TraceCollector::chrome_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // tid: ordinal when labelled (pool workers are 1..n, main stays 0);
  // unlabelled extra threads collapse onto 0, which the viewer tolerates.
  buffers_.for_each(
      [&](const std::vector<TraceEvent>& events, std::uint64_t ordinal) {
        for (const TraceEvent& e : events) write_chrome_event(w, e, ordinal);
      });
  w.end_array();
  w.key("displayTimeUnit");
  w.string("ms");
  w.end_object();
  return std::move(w).str();
}

void TraceCollector::clear() {
  buffers_.for_each(
      [](std::vector<TraceEvent>& events, std::uint64_t) { events.clear(); });
}

}  // namespace mmw::obs
