// Byte pins of the serving engine's mmw.telemetry/1 export. Each test runs
// a tiny engine with an NDJSON sink and folds every line into one FNV-1a
// hash: the deterministic prefix (the line cut at `,"timing":`) byte for
// byte, plus the key list of the trailing "timing" object (its values are
// wall time). A change to how a line is rendered — a key renamed, moved or
// dropped, a number formatted differently — fails here even when the E9
// CSV does not move. The constants were taken before the renderer moved
// into the engine, so a refactor of it must pass them unedited.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "serve/serve.h"

namespace mmw::serve {
namespace {

namespace fs = std::filesystem;

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    // A separator byte, so ("ab", "c") and ("a", "bc") hash apart.
    h_ ^= 0xff;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The keys of a flat JSON object of numbers, in order, comma-joined.
std::string object_keys(const std::string& object) {
  std::string keys;
  for (std::size_t open = object.find('"'); open != std::string::npos;) {
    const std::size_t close = object.find('"', open + 1);
    if (close == std::string::npos) break;
    if (!keys.empty()) keys += ',';
    keys += object.substr(open + 1, close - open - 1);
    open = object.find('"', close + 1);
  }
  return keys;
}

/// Runs `cfg` with an NDJSON sink at `threads` and hashes every line.
std::uint64_t telemetry_hash(ServeConfig cfg, index_t threads,
                             const char* tag) {
  const fs::path dir = fs::temp_directory_path() / "mmw_telemetry_pin";
  fs::create_directories(dir);
  const fs::path path =
      dir / (std::string(tag) + "_t" + std::to_string(threads) + ".ndjson");
  cfg.scenario.threads = threads;
  cfg.telemetry.ndjson_path = path.string();
  {
    ServingEngine engine(cfg);
    EXPECT_EQ(engine.run().telemetry_records, cfg.epochs);
  }
  std::ifstream in(path);
  Fnv1a h;
  index_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    const std::size_t cut = line.find(",\"timing\":");
    EXPECT_NE(cut, std::string::npos) << "line " << lines;
    if (cut == std::string::npos) continue;
    h.add(line.substr(0, cut));
    h.add(object_keys(line.substr(cut + 10)));
  }
  EXPECT_EQ(lines, cfg.epochs);
  in.close();
  fs::remove(path);
  return h.value();
}

/// TX 2×1, RX 2×2 over 4 sites, as in serve_test's tiny deployment.
ServeConfig tiny_config() {
  ServeConfig cfg;
  cfg.scenario.channel = sim::ChannelKind::kSinglePath;
  cfg.scenario.tx_grid_x = 2;
  cfg.scenario.tx_grid_y = 1;
  cfg.scenario.rx_grid_x = 2;
  cfg.scenario.rx_grid_y = 2;
  cfg.scenario.fades_per_measurement = 2;
  cfg.scenario.gamma = 1000.0;
  cfg.scenario.seed = 11;
  cfg.topology.cells = 4;
  cfg.initial_sessions = 96;
  cfg.epochs = 8;
  cfg.align_epochs = 2;
  cfg.probes_per_slot = 3;
  cfg.session_block = 16;
  return cfg;
}

TEST(TelemetryPin, BeamSpaceRunWithChurn) {
  ServeConfig cfg = tiny_config();
  cfg.arrival_rate = 3.0;
  cfg.mean_sojourn_epochs = 4.0;
  for (const index_t threads : {1, 3})
    EXPECT_EQ(telemetry_hash(cfg, threads, "beam_space"),
              0x20b2c84e5e26dba7ULL)
        << "threads " << threads;
}

TEST(TelemetryPin, WarmMlRunWithBlockage) {
  ServeConfig cfg = tiny_config();
  cfg.estimator = EstimatorKind::kWarmMl;
  cfg.blockage_probability = 0.3;
  cfg.arrival_rate = 1.0;
  cfg.mean_sojourn_epochs = 6.0;
  for (const index_t threads : {1, 3})
    EXPECT_EQ(telemetry_hash(cfg, threads, "warm_ml"), 0x6d79749ecd2931ddULL)
        << "threads " << threads;
}

}  // namespace
}  // namespace mmw::serve
