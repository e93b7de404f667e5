// Watchdog tests: stall detection, recovery, the adaptive threshold, and
// the atomically rewritten health document.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "obs/watchdog.h"

namespace mmw::obs {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

fs::path health_file(const char* tag) {
  const fs::path dir = fs::temp_directory_path() / "mmw_watchdog_test";
  fs::create_directories(dir);
  const fs::path p = dir / (std::string(tag) + ".health.json");
  fs::remove(p);
  return p;
}

/// Tight polling config so tests finish in tens of milliseconds: threshold
/// floor 50 ms, poll every 5 ms.
WatchdogConfig fast_config(std::string health_path) {
  WatchdogConfig cfg;
  cfg.health_path = std::move(health_path);
  cfg.poll_seconds = 0.005;
  cfg.stall_multiplier = 8.0;
  cfg.min_stall_seconds = 0.05;
  return cfg;
}

/// Every trip dumps the global flight recorder; the fixture sends those
/// dumps to a scratch directory instead of the working directory's
/// bench_results/.
class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::create_directories(dumps_);
    FlightRecorder::global().set_dump_directory(dumps_.string());
  }
  void TearDown() override {
    FlightRecorder::global().set_dump_directory("bench_results");
    fs::remove_all(dumps_);
  }

  const fs::path dumps_ =
      fs::temp_directory_path() / "mmw_watchdog_test" / "flight";
};

/// Spin until `pred` holds or `deadline` elapses; returns pred's final
/// state. Timing-dependent assertions use generous deadlines so loaded CI
/// machines don't flake.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 5000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

TEST_F(WatchdogTest, NoTripWhileProgressFlows) {
  std::atomic<std::uint64_t> progress{0};
  Watchdog dog(fast_config(""),
               [&] { return progress.fetch_add(1) + 1; });
  std::this_thread::sleep_for(200ms);
  EXPECT_FALSE(dog.tripped());
  EXPECT_FALSE(dog.stalled());
  EXPECT_EQ(dog.trips(), 0u);
  dog.stop();
}

TEST_F(WatchdogTest, FrozenProgressTripsOnce) {
  const std::uint64_t dumps = FlightRecorder::global().dump_count();
  std::atomic<std::uint64_t> progress{7};  // never advances
  Watchdog dog(fast_config(""), [&] { return progress.load(); });
  ASSERT_TRUE(eventually([&] { return dog.tripped(); }));
  EXPECT_TRUE(dog.stalled());
  // The trip is edge-triggered: a continuing stall is one trip, not one
  // per poll.
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(dog.trips(), 1u);
  dog.stop();
  // The trip dumped the flight recorder once, below the dump cap.
  if (dumps < FlightRecorder::kMaxDumps) {
    EXPECT_EQ(FlightRecorder::global().dump_count(), dumps + 1);
  }
}

TEST_F(WatchdogTest, ProgressResumingClearsStalledButTripsStick) {
  std::atomic<std::uint64_t> progress{0};
  Watchdog dog(fast_config(""), [&] { return progress.load(); });
  ASSERT_TRUE(eventually([&] { return dog.stalled(); }));

  // Resume: bump progress continuously until the monitor notices.
  ASSERT_TRUE(eventually([&] {
    progress.fetch_add(1);
    return !dog.stalled();
  }));
  EXPECT_TRUE(dog.tripped());
  EXPECT_EQ(dog.trips(), 1u);

  // Freeze again: a second stall is a second trip.
  ASSERT_TRUE(eventually([&] { return dog.trips() >= 2; }));
  dog.stop();
}

TEST_F(WatchdogTest, ThresholdTracksEpochTimeWithFloor) {
  WatchdogConfig cfg = fast_config("");
  cfg.min_stall_seconds = 2.0;
  cfg.stall_multiplier = 8.0;
  std::atomic<std::uint64_t> progress{0};
  Watchdog dog(cfg, [&] { return progress.fetch_add(1) + 1; });

  // No epochs yet: the floor rules.
  EXPECT_DOUBLE_EQ(dog.stall_threshold_seconds(), 2.0);

  // Fast epochs stay under the floor...
  dog.note_epoch_seconds(0.01);
  EXPECT_DOUBLE_EQ(dog.stall_threshold_seconds(), 2.0);

  // ...slow epochs scale it up: first sample seeds the EWMA directly.
  dog.note_epoch_seconds(100.0);
  EXPECT_GT(dog.stall_threshold_seconds(), 2.0);
  EXPECT_LE(dog.stall_threshold_seconds(), 8.0 * 100.0);

  // Non-positive durations are ignored, not folded in as zero.
  const double before = dog.stall_threshold_seconds();
  dog.note_epoch_seconds(0.0);
  dog.note_epoch_seconds(-5.0);
  EXPECT_DOUBLE_EQ(dog.stall_threshold_seconds(), before);
  dog.stop();
}

TEST_F(WatchdogTest, HealthFileIsWrittenAndWellFormed) {
  const fs::path path = health_file("ok");
  std::atomic<std::uint64_t> progress{0};
  Watchdog dog(fast_config(path.string()),
               [&] { return progress.fetch_add(1) + 1; },
               [] {
                 return std::vector<std::pair<std::string, double>>{
                     {"epoch", 12.0}, {"live_sessions", 3456.0}};
               });
  ASSERT_TRUE(eventually([&] { return fs::exists(path); }));
  ASSERT_TRUE(eventually([&] {
    const std::string body = slurp(path);
    return body.find("\"status\":\"ok\"") != std::string::npos;
  }));

  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"schema\":\"mmw.health/1\""), std::string::npos);
  EXPECT_NE(body.find("\"progress\":"), std::string::npos);
  EXPECT_NE(body.find("\"seconds_since_progress\":"), std::string::npos);
  EXPECT_NE(body.find("\"stall_threshold_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"trips\":0"), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"rss_bytes\":"), std::string::npos);
  // StatusFn extras land as additional numeric fields.
  EXPECT_NE(body.find("\"epoch\":12"), std::string::npos);
  EXPECT_NE(body.find("\"live_sessions\":3456"), std::string::npos);
  // Atomic rewrite: the document is complete (single JSON object).
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '}');

  dog.stop();
  // stop() leaves a terminal "stopped" document behind.
  EXPECT_NE(slurp(path).find("\"status\":\"stopped\""), std::string::npos);
  fs::remove(path);
}

TEST_F(WatchdogTest, HealthFileReportsStalled) {
  const fs::path path = health_file("stalled");
  std::atomic<std::uint64_t> progress{1};  // frozen
  Watchdog dog(fast_config(path.string()), [&] { return progress.load(); });
  ASSERT_TRUE(eventually([&] {
    return fs::exists(path) &&
           slurp(path).find("\"status\":\"stalled\"") != std::string::npos;
  }));
  EXPECT_NE(slurp(path).find("\"trips\":1"), std::string::npos);
  dog.stop();
  fs::remove(path);
}

TEST_F(WatchdogTest, StopIsIdempotentAndDestructorStops) {
  std::atomic<std::uint64_t> progress{0};
  {
    Watchdog dog(fast_config(""), [&] { return progress.fetch_add(1) + 1; });
    dog.stop();
    dog.stop();  // second stop must be a no-op, not a double-join
  }               // destructor after explicit stop must also be safe
  {
    Watchdog dog(fast_config(""), [&] { return progress.fetch_add(1) + 1; });
  }  // destructor alone stops the monitor thread
  SUCCEED();
}

}  // namespace
}  // namespace mmw::obs
