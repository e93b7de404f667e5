// ServingEngine (src/serve/): the determinism and fixed-memory contracts
// of the city-scale serving runtime.
//
//  - Thread-count invariance: the rendered per-epoch CSV is byte-identical
//    for --threads 1/2/4/auto (the fig5–8 contract extended to serving).
//  - Obs invariance: instrumentation on/off never changes results.
//  - Churn invariance: arrivals and departures of OTHER sessions never
//    perturb a surviving session's resident state — a session's trajectory
//    is a pure function of (seed, site, user_key, epoch).
//  - Alignment lifecycle: sessions claim pairs after align_epochs slots,
//    loss is nonnegative, blockage drives outages and re-alignment.
#include "serve/serve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/obs.h"

namespace mmw::serve {
namespace {

// Tiny deployment: TX 2×1 (M = 2), RX 2×2 (N = 4), 4 hex sites — big
// enough to exercise multi-site sharding and churn, small enough that the
// whole suite re-runs the engine many times in well under a second each.
ServeConfig tiny_config() {
  ServeConfig cfg;
  cfg.scenario.channel = sim::ChannelKind::kSinglePath;
  cfg.scenario.tx_grid_x = 2;
  cfg.scenario.tx_grid_y = 1;
  cfg.scenario.rx_grid_x = 2;
  cfg.scenario.rx_grid_y = 2;
  cfg.scenario.fades_per_measurement = 2;
  cfg.scenario.gamma = 1000.0;  // cell-edge users stay alignable
  cfg.scenario.seed = 7;
  cfg.scenario.threads = 1;
  cfg.topology.cells = 4;
  cfg.initial_sessions = 120;
  cfg.epochs = 6;
  cfg.align_epochs = 2;
  cfg.probes_per_slot = 3;
  cfg.session_block = 16;  // several slabs per site → real shard fan-out
  return cfg;
}

std::string run_csv(ServeConfig cfg, index_t threads) {
  cfg.scenario.threads = threads;
  ServingEngine engine(cfg);
  return render_serving_csv(engine.run().epochs);
}

TEST(ServingEngine, CsvIsByteIdenticalAcrossThreadCounts) {
  const ServeConfig cfg = tiny_config();
  const std::string serial = run_csv(cfg, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_csv(cfg, 2));
  EXPECT_EQ(serial, run_csv(cfg, 4));
  EXPECT_EQ(serial, run_csv(cfg, 0));  // auto
}

TEST(ServingEngine, CsvIsByteIdenticalAcrossThreadCountsUnderChurn) {
  ServeConfig cfg = tiny_config();
  cfg.arrival_rate = 3.0;
  cfg.mean_sojourn_epochs = 4.0;
  const std::string serial = run_csv(cfg, 1);
  EXPECT_EQ(serial, run_csv(cfg, 2));
  EXPECT_EQ(serial, run_csv(cfg, 4));
}

TEST(ServingEngine, ObsOnOffNeverChangesResults) {
  const ServeConfig cfg = tiny_config();
  const bool was = obs::enabled();
  obs::set_enabled(true);
  const std::string with_obs = run_csv(cfg, 2);
  obs::set_enabled(false);
  const std::string without = run_csv(cfg, 2);
  obs::set_enabled(was);
  EXPECT_EQ(with_obs, without);
}

TEST(ServingEngine, RerunIsExactlyReproducible) {
  const ServeConfig cfg = tiny_config();
  ServingEngine a(cfg);
  ServingEngine b(cfg);
  const ServeResult ra = a.run();
  const ServeResult rb = b.run();
  EXPECT_EQ(ra.sessions_stepped, rb.sessions_stepped);
  EXPECT_EQ(ra.peak_live_sessions, rb.peak_live_sessions);
  EXPECT_EQ(render_serving_csv(ra.epochs), render_serving_csv(rb.epochs));
}

// The churn-invariance contract: run a closed population next to an open
// one (same seed, same sojourns). Initial-cohort sessions that survive in
// both must hold BIT-IDENTICAL resident state — neighbours arriving or
// departing around them contributes nothing to their trajectory.
TEST(ServingEngine, ChurnNeverPerturbsSurvivingSessions) {
  ServeConfig closed = tiny_config();
  closed.mean_sojourn_epochs = 8.0;  // same identity-stream draws as open
  ServeConfig open = closed;
  open.arrival_rate = 5.0;

  ServingEngine a(closed);
  ServingEngine b(open);
  a.run();
  b.run();
  EXPECT_GT(b.peak_live_sessions(), a.peak_live_sessions());  // churn happened

  const index_t per_site = closed.initial_sessions / 4;
  index_t compared = 0;
  for (index_t site = 0; site < a.n_sites(); ++site) {
    for (std::uint64_t key = 0; key < per_site; ++key) {
      const UserSession* sa = a.find_session(site, key);
      const UserSession* sb = b.find_session(site, key);
      // Same sojourn draws → departed in one iff departed in the other.
      ASSERT_EQ(sa == nullptr, sb == nullptr);
      if (sa == nullptr) continue;
      EXPECT_EQ(0, std::memcmp(sa, sb, sizeof(UserSession)));
      ++compared;
    }
  }
  EXPECT_GT(compared, 50u);  // the comparison actually covered the cohort
}

TEST(ServingEngine, SessionsClaimPairsAndTrack) {
  ServeConfig cfg = tiny_config();
  ServingEngine engine(cfg);
  const ServeResult r = engine.run();

  // After align_epochs slots every immortal session is tracking.
  index_t tracking = 0;
  engine.for_each_session([&](index_t, const UserSession& s) {
    if (s.aligning == 0) {
      ++tracking;
      EXPECT_GT(s.claimed_gain, 0.0f);
      EXPECT_GE(s.optimal_gain, s.claimed_gain);  // oracle bound ⇒ loss ≥ 0
      EXPECT_GE(s.trained_energy, 0.0f);
      EXPECT_GT(s.rank, 0);
    }
  });
  EXPECT_GT(tracking, 0u);

  // Per-epoch ledger: epoch 0 admits everyone; alignment spends exactly
  // align_epochs slots; afterwards the population tracks.
  ASSERT_EQ(r.epochs.size(), cfg.epochs);
  EXPECT_EQ(r.epochs.front().arrivals, cfg.initial_sessions);
  EXPECT_EQ(r.epochs.front().aligning_steps, cfg.initial_sessions);
  EXPECT_GT(r.epochs.back().tracking_steps, 0u);
  EXPECT_GT(r.epochs.back().loss_samples, 0u);
  EXPECT_GE(r.epochs.back().mean_loss_db, 0.0);
}

TEST(ServingEngine, AlignEpochsMustFitTheSessionSlotCounter) {
  // UserSession counts alignment slots in a byte: at 256 it would wrap to 0
  // before reaching the threshold and no session would ever claim.
  ServeConfig cfg = tiny_config();
  cfg.initial_sessions = 8;
  cfg.align_epochs = 256;
  EXPECT_THROW(ServingEngine{cfg}, precondition_error);

  // The largest accepted value claims on the slot it promises.
  cfg.align_epochs = 255;
  ServingEngine engine(cfg);
  std::uint64_t claims = 0;
  for (index_t e = 0; e < 255; ++e) claims += engine.step_epoch().claims;
  EXPECT_EQ(claims, cfg.initial_sessions);
}

TEST(ServingEngine, BlockageDrivesOutagesAndRealignment) {
  ServeConfig cfg = tiny_config();
  cfg.epochs = 10;
  cfg.blockage_probability = 0.4;
  ServingEngine engine(cfg);
  const ServeResult r = engine.run();
  std::uint64_t outages = 0;
  for (const EpochReport& e : r.epochs) outages += e.outages;
  EXPECT_GT(outages, 0u);
  index_t realigned = 0;
  engine.for_each_session([&](index_t, const UserSession& s) {
    if (s.realigns > 0) ++realigned;
  });
  EXPECT_GT(realigned, 0u);
}

TEST(ServingEngine, ResidentMemoryIsBudgetedAndMonotone) {
  ServeConfig cfg = tiny_config();
  cfg.arrival_rate = 4.0;
  cfg.mean_sojourn_epochs = 3.0;
  ServingEngine engine(cfg);
  const ServeResult r = engine.run();
  EXPECT_GT(r.resident_bytes, 0u);
  EXPECT_GE(r.high_water_bytes, r.resident_bytes);
  // The accounting at least covers every peak-live session's cell, and
  // slab quantization bounds it above by whole slabs.
  EXPECT_GE(r.high_water_bytes,
            r.peak_live_sessions * sizeof(UserSession));
  EXPECT_LE(r.high_water_bytes,
            (r.peak_live_sessions + engine.n_sites() * cfg.session_block) *
                (sizeof(UserSession) + 16));
}

TEST(ServingEngine, EpochReportsAreStreamedNotResident) {
  // O(sessions + buckets) memory: the per-epoch report count equals the
  // epoch count and session count never inflates it.
  ServeConfig cfg = tiny_config();
  cfg.epochs = 12;
  ServingEngine engine(cfg);
  const ServeResult r = engine.run();
  EXPECT_EQ(r.epochs.size(), 12u);
  std::uint64_t stepped = 0;
  for (const EpochReport& e : r.epochs) stepped += e.live_sessions;
  EXPECT_EQ(stepped, r.sessions_stepped);
}

// ---------------------------------------------------------------------------
// Telemetry plane (DESIGN.md §14): the line format, NDJSON determinism,
// quantile sanity, and the watchdog.

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

fs::path telemetry_dir() {
  const fs::path dir = fs::temp_directory_path() / "mmw_serve_telemetry";
  fs::create_directories(dir);
  return dir;
}

EpochReport sample_report() {
  EpochReport r;
  r.epoch = 17;
  r.live_sessions = 100'000;
  r.arrivals = 512;
  r.departures = 498;
  r.aligning_steps = 2048;
  r.tracking_steps = 97'952;
  r.outages = 33;
  r.realignments = 21;
  r.claims = 640;
  r.measurement_slots = 81'920;
  r.estimator_nonconverged = 2;
  r.loss_samples = 97'952;
  r.mean_loss_db = -1.25;
  r.p50_loss_db = -1.5;
  r.p90_loss_db = -0.5;
  r.p99_loss_db = 0.75;
  r.p999_loss_db = 2.5;
  r.max_loss_db = 6.0;
  return r;
}

EpochTiming sample_timing() {
  EpochTiming t;
  t.epoch_seconds = 0.123;
  t.epoch_seconds_p50 = 0.1;
  t.epoch_seconds_p99 = 0.3;
  t.pool_busy_us = 4000;
  t.pool_idle_us = 1000;
  t.rss_bytes = 99'999'999;
  t.arena_high_water_bytes = 42'000;
  t.flight_events = 77;
  return t;
}

std::string sample_line(const EpochTiming* timing) {
  return render_telemetry_line(sample_report(), 1'234'567, 2'345'678,
                               timing);
}

TEST(TelemetryRecordTest, JsonLeadsWithSchemaAndGroupsFields) {
  const EpochTiming timing = sample_timing();
  const std::string json = sample_line(&timing);
  EXPECT_EQ(json.rfind("{\"schema\":\"mmw.telemetry/1\",\"epoch\":17,", 0),
            0u);
  EXPECT_NE(json.find("\"counters\":{\"live_sessions\":100000,"),
            std::string::npos);
  EXPECT_NE(json.find("\"estimator_nonconverged\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"memory\":{\"pool_resident_bytes\":1234567,"
                      "\"pool_high_water_bytes\":2345678}"),
            std::string::npos);
  EXPECT_NE(json.find("\"loss_db\":{\"count\":97952,\"mean\":-1.25,"),
            std::string::npos);
  EXPECT_NE(json.find("\"p999\":2.5,\"max\":6}"), std::string::npos);
  EXPECT_NE(json.find("\"timing\":{\"epoch_seconds\":0.123,"),
            std::string::npos);
  EXPECT_NE(json.find("\"flight_events\":77}"), std::string::npos);
}

TEST(TelemetryRecordTest, TimingIsTheLastKey) {
  const EpochTiming timing = sample_timing();
  const std::string json = sample_line(&timing);
  const auto pos = json.find(",\"timing\":{");
  ASSERT_NE(pos, std::string::npos);
  // The timing object runs to the end of the record: "...}}" closes timing
  // and then the record itself, with no sibling key in between.
  EXPECT_EQ(json.substr(json.size() - 2), "}}");
  const std::string tail = json.substr(pos + 1);
  EXPECT_EQ(tail.find("},\""), std::string::npos)
      << "a key follows the timing object";
}

TEST(TelemetryRecordTest, TruncatingAtTimingEqualsExcludingIt) {
  // THE contract the CI determinism gate and telemetry_report.py rely on:
  // stripping wall-time is a string truncation, no JSON parser needed.
  const EpochTiming timing = sample_timing();
  const std::string with = sample_line(&timing);
  const std::string without = sample_line(nullptr);
  const auto pos = with.find(",\"timing\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(with.substr(0, pos) + "}", without);
}

TEST(TelemetryRecordTest, TimingDoesNotLeakIntoDeterministicPrefix) {
  const EpochTiming a = sample_timing();
  EpochTiming b = sample_timing();
  // Perturb ONLY timing fields: the deterministic prefix must not move.
  b.epoch_seconds = 9.87;
  b.pool_busy_us = 1;
  b.pool_idle_us = 999'999;
  b.rss_bytes = 1;
  b.arena_high_water_bytes = 0;
  b.flight_events = 0;
  const std::string line_a = sample_line(&a);
  const std::string line_b = sample_line(&b);
  EXPECT_NE(line_a, line_b);
  EXPECT_EQ(line_a.substr(0, line_a.find(",\"timing\":")),
            line_b.substr(0, line_b.find(",\"timing\":")));
}

/// Applies the determinism contract: drops each record's trailing "timing"
/// object by string truncation (it is guaranteed to be the last key).
std::string strip_timing(const std::string& ndjson) {
  std::string out;
  std::size_t start = 0;
  while (start < ndjson.size()) {
    auto nl = ndjson.find('\n', start);
    if (nl == std::string::npos) nl = ndjson.size();
    std::string line = ndjson.substr(start, nl - start);
    const auto pos = line.find(",\"timing\":");
    if (pos != std::string::npos) line = line.substr(0, pos) + "}";
    out += line;
    out += '\n';
    start = nl + 1;
  }
  return out;
}

TEST(ServingTelemetry, NdjsonCountersAreByteIdenticalAcrossThreadCounts) {
  const fs::path dir = telemetry_dir();
  ServeConfig cfg = tiny_config();
  cfg.arrival_rate = 3.0;
  cfg.mean_sojourn_epochs = 4.0;
  cfg.blockage_probability = 0.2;

  std::vector<std::string> stripped;
  for (const index_t threads : {1, 2, 4, 0}) {
    const fs::path path =
        dir / ("epochs_t" + std::to_string(threads) + ".ndjson");
    cfg.scenario.threads = threads;
    cfg.telemetry.ndjson_path = path.string();
    ServingEngine engine(cfg);
    const ServeResult r = engine.run();
    EXPECT_EQ(r.telemetry_records, cfg.epochs);
    const std::string body = slurp(path);
    // Every line is one record with the schema marker and a timing object.
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(body.begin(), body.end(), '\n')),
              cfg.epochs);
    EXPECT_EQ(body.rfind("{\"schema\":\"mmw.telemetry/1\"", 0), 0u);
    EXPECT_NE(body.find(",\"timing\":{"), std::string::npos);
    stripped.push_back(strip_timing(body));
    fs::remove(path);
  }
  // The deterministic prefix (counters, memory, loss quantiles) must be
  // byte-identical at any thread count; only "timing" may differ.
  EXPECT_EQ(stripped[0], stripped[1]);
  EXPECT_EQ(stripped[0], stripped[2]);
  EXPECT_EQ(stripped[0], stripped[3]);
}

TEST(ServingTelemetry, TelemetryExportNeverChangesResults) {
  const fs::path path = telemetry_dir() / "observe_only.ndjson";
  ServeConfig cfg = tiny_config();
  const std::string bare = run_csv(cfg, 2);
  cfg.telemetry.ndjson_path = path.string();
  // Telemetry is observe-only: enabling the sink cannot move a single byte
  // of the scientific output.
  EXPECT_EQ(bare, run_csv(cfg, 2));
  fs::remove(path);
}

TEST(ServingTelemetry, LossQuantilesAreOrderedPerEpochAndRunLevel) {
  ServeConfig cfg = tiny_config();
  cfg.epochs = 10;
  cfg.blockage_probability = 0.3;
  ServingEngine engine(cfg);
  const ServeResult r = engine.run();

  for (const EpochReport& e : r.epochs) {
    if (e.loss_samples == 0) continue;
    EXPECT_LE(e.p50_loss_db, e.p90_loss_db);
    EXPECT_LE(e.p90_loss_db, e.p99_loss_db);
    EXPECT_LE(e.p99_loss_db, e.p999_loss_db);
    EXPECT_LE(e.p999_loss_db, e.max_loss_db);
    EXPECT_GE(e.p50_loss_db, 0.0);  // oracle bound ⇒ loss ≥ 0
    EXPECT_GE(e.mean_loss_db, 0.0);
  }
  ASSERT_GT(r.loss_samples, 0u);
  EXPECT_LE(r.loss_p50_db, r.loss_p90_db);
  EXPECT_LE(r.loss_p90_db, r.loss_p99_db);
  EXPECT_LE(r.loss_p99_db, r.loss_p999_db);
  EXPECT_GE(r.epoch_seconds_p99, r.epoch_seconds_p50);
  EXPECT_GT(r.epoch_seconds_p50, 0.0);
}

TEST(ServingTelemetry, InjectedStallTripsWatchdog) {
  const fs::path dir = telemetry_dir() / "stall_dumps";
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::FlightRecorder::global().set_dump_directory(dir.string());
  const fs::path health = dir / "health.json";

  ServeConfig cfg = tiny_config();
  cfg.scenario.threads = 1;
  obs::WatchdogConfig& wc = cfg.telemetry.watchdog.emplace();
  wc.health_path = health.string();
  wc.poll_seconds = 0.005;
  wc.min_stall_seconds = 0.05;
  wc.stall_multiplier = 2.0;

  const std::uint64_t dumps = obs::FlightRecorder::global().dump_count();
  {
    ServingEngine engine(cfg);
    for (index_t e = 0; e < cfg.epochs; ++e) {
      // A wall-clock pause before epoch 3 freezes the engine's progress
      // counter as a wedged shard would, without touching an Rng or any
      // session state.
      if (e == 3) std::this_thread::sleep_for(std::chrono::milliseconds(500));
      engine.step_epoch();
    }
    ASSERT_NE(engine.watchdog(), nullptr);
    EXPECT_TRUE(engine.watchdog()->tripped());
    EXPECT_GE(engine.watchdog()->trips(), 1u);
    ASSERT_TRUE(fs::exists(health));
    EXPECT_NE(slurp(health).find("\"schema\":\"mmw.health/1\""),
              std::string::npos);
  }
  // A trip always dumps the flight recorder (below its dump cap).
  if (dumps < obs::FlightRecorder::kMaxDumps) {
    EXPECT_GT(obs::FlightRecorder::global().dump_count(), dumps);
  }
  // Engine teardown stops the watchdog, which leaves a terminal document.
  const std::string body = slurp(health);
  EXPECT_NE(body.find("\"status\":\"stopped\""), std::string::npos);
  EXPECT_NE(body.find("\"trips\":"), std::string::npos);
  obs::FlightRecorder::global().set_dump_directory("bench_results");
  fs::remove_all(dir);
}

TEST(ServingTelemetry, HealthyRunNeverTrips) {
  const fs::path health = telemetry_dir() / "healthy.health.json";
  ServeConfig cfg = tiny_config();
  obs::WatchdogConfig& wc = cfg.telemetry.watchdog.emplace();
  wc.health_path = health.string();
  wc.poll_seconds = 0.005;  // poll a lot; still no trip
  ServingEngine engine(cfg);
  const ServeResult r = engine.run();
  EXPECT_FALSE(r.watchdog_tripped);
  ASSERT_NE(engine.watchdog(), nullptr);
  EXPECT_EQ(engine.watchdog()->trips(), 0u);
  EXPECT_FALSE(engine.watchdog()->stalled());
  fs::remove(health);
}

}  // namespace
}  // namespace mmw::serve
