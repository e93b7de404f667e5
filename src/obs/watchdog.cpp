#include "obs/watchdog.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "obs/clock.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace mmw::obs {

Watchdog::Watchdog(WatchdogConfig config, ProgressFn progress,
                   StatusFn status)
    : config_(std::move(config)),
      progress_(std::move(progress)),
      status_(std::move(status)),
      start_us_(now_us()) {
  thread_ = std::jthread([this](std::stop_token st) { run(st); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::note_epoch_seconds(double seconds) {
  if (seconds <= 0.0) return;
  // Lock-free EWMA: a lost race just drops one sample's influence, which
  // the next epoch recovers — fine for a threshold estimate.
  const double prev = epoch_ewma_s_.load(std::memory_order_relaxed);
  const double next = prev == 0.0 ? seconds : 0.8 * prev + 0.2 * seconds;
  epoch_ewma_s_.store(next, std::memory_order_relaxed);
}

double Watchdog::stall_threshold_seconds() const {
  const double ewma = epoch_ewma_s_.load(std::memory_order_relaxed);
  return std::max(config_.min_stall_seconds, config_.stall_multiplier * ewma);
}

void Watchdog::run(std::stop_token st) {
  std::uint64_t last_progress = progress_ ? progress_() : 0;
  std::uint64_t last_change_us = now_us();
  const auto poll = std::chrono::duration<double>(
      config_.poll_seconds > 0.0 ? config_.poll_seconds : 0.25);

  while (!st.stop_requested()) {
    {
      std::unique_lock lock(stop_mutex_);
      // Wakes early on stop() so shutdown never waits a full poll.
      stop_cv_.wait_for(lock, st, poll, [] { return false; });
    }
    if (st.stop_requested()) break;

    const std::uint64_t progress = progress_ ? progress_() : 0;
    const std::uint64_t now = now_us();
    if (progress != last_progress) {
      last_progress = progress;
      last_change_us = now;
      stalled_.store(false, std::memory_order_relaxed);
    }
    const double since_s =
        static_cast<double>(now - last_change_us) * 1e-6;

    if (!stalled_.load(std::memory_order_relaxed) &&
        since_s > stall_threshold_seconds()) {
      stalled_.store(true, std::memory_order_relaxed);
      trips_.fetch_add(1, std::memory_order_relaxed);
      Registry::global().counter("obs.watchdog.trips").add();
      FlightRecorder::global().dump("watchdog_trip");
    }

    write_health(stalled_.load(std::memory_order_relaxed) ? "stalled" : "ok",
                 progress, since_s);
  }
}

void Watchdog::stop() {
  if (stopped_.exchange(true)) return;
  thread_.request_stop();
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  write_health("stopped", progress_ ? progress_() : 0, 0.0);
}

void Watchdog::write_health(const std::string& status,
                            std::uint64_t progress,
                            double since_progress_s) const {
  if (config_.health_path.empty()) return;

  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string("mmw.health/1");
  w.key("status");
  w.string(status);
  w.key("progress");
  w.number(progress);
  w.key("seconds_since_progress");
  w.number(since_progress_s);
  w.key("stall_threshold_seconds");
  w.number(stall_threshold_seconds());
  w.key("epoch_seconds_ewma");
  w.number(epoch_ewma_s_.load(std::memory_order_relaxed));
  w.key("trips");
  w.number(trips_.load(std::memory_order_relaxed));
  w.key("uptime_seconds");
  w.number(static_cast<double>(now_us() - start_us_) * 1e-6);
  w.key("rss_bytes");
  w.number(current_rss_bytes());
  if (status_) {
    for (const auto& [key, value] : status_()) {
      w.key(key);
      w.number(value);
    }
  }
  w.end_object();

  // Write-then-rename: a reader tailing the file sees either the previous
  // document or this one, never a torn mix.
  const std::string tmp = config_.health_path + ".tmp";
  if (!write_text_file(tmp, std::move(w).str())) return;
  std::error_code ec;
  std::filesystem::rename(tmp, config_.health_path, ec);
  if (ec)
    std::fprintf(stderr, "note: could not update %s: %s\n",
                 config_.health_path.c_str(), ec.message().c_str());
}

}  // namespace mmw::obs
