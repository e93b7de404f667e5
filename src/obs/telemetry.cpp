#include "obs/telemetry.h"

#include <filesystem>
#include <system_error>

#include "obs/json.h"

namespace mmw::obs {

std::string TelemetryRecord::to_json(bool include_timing) const {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string("mmw.telemetry/1");
  w.key("epoch");
  w.number(epoch);

  w.key("counters");
  w.begin_object();
  w.key("live_sessions");
  w.number(live_sessions);
  w.key("arrivals");
  w.number(arrivals);
  w.key("departures");
  w.number(departures);
  w.key("aligning_steps");
  w.number(aligning_steps);
  w.key("tracking_steps");
  w.number(tracking_steps);
  w.key("outages");
  w.number(outages);
  w.key("realignments");
  w.number(realignments);
  w.key("claims");
  w.number(claims);
  w.key("measurement_slots");
  w.number(measurement_slots);
  w.key("estimator_nonconverged");
  w.number(estimator_nonconverged);
  w.end_object();

  w.key("memory");
  w.begin_object();
  w.key("pool_resident_bytes");
  w.number(pool_resident_bytes);
  w.key("pool_high_water_bytes");
  w.number(pool_high_water_bytes);
  w.end_object();

  w.key("loss_db");
  w.begin_object();
  w.key("count");
  w.number(loss_count);
  w.key("mean");
  w.number(loss_mean_db);
  w.key("p50");
  w.number(loss_p50_db);
  w.key("p90");
  w.number(loss_p90_db);
  w.key("p99");
  w.number(loss_p99_db);
  w.key("p999");
  w.number(loss_p999_db);
  w.key("max");
  w.number(loss_max_db);
  w.end_object();

  // "timing" must stay the last key: the determinism gate strips it by
  // truncating the serialized line at `,"timing":`.
  if (include_timing) {
    w.key("timing");
    w.begin_object();
    w.key("epoch_seconds");
    w.number(epoch_seconds);
    w.key("epoch_seconds_p50");
    w.number(epoch_seconds_p50);
    w.key("epoch_seconds_p99");
    w.number(epoch_seconds_p99);
    w.key("pool_busy_us");
    w.number(pool_busy_us);
    w.key("pool_idle_us");
    w.number(pool_idle_us);
    w.key("rss_bytes");
    w.number(rss_bytes);
    w.key("arena_high_water_bytes");
    w.number(arena_high_water_bytes);
    w.key("flight_events");
    w.number(flight_events);
    w.end_object();
  }

  w.end_object();
  return std::move(w).str();
}

bool TelemetrySink::open(const std::string& path) {
  close();
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "note: could not create %s: %s\n",
                   p.parent_path().c_str(), ec.message().c_str());
      return false;
    }
  }
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    std::fprintf(stderr, "note: could not open telemetry file %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

void TelemetrySink::write(const TelemetryRecord& record) {
  if (file_ == nullptr) return;
  const std::string line = record.to_json(true) + '\n';
  // Per-line flush is the point: an external tail must see the epoch as
  // soon as it completes, and a crash must not lose buffered history. A
  // record counts as written only once the flush has reached the file.
  if (std::fwrite(line.data(), 1, line.size(), file_) == line.size() &&
      std::fflush(file_) == 0)
    ++records_written_;
  else
    std::fprintf(stderr, "note: telemetry record %llu was not written\n",
                 static_cast<unsigned long long>(record.epoch));
}

void TelemetrySink::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace mmw::obs
