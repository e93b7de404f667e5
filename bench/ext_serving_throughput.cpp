// Extension E9: city-scale serving throughput.
//
// Runs the epoch-driven serving engine (src/serve/) over a 64-site hex
// deployment at sessions ∈ {10k, 100k, 1M} resident users and reports, per
// scale:
//
//   users/sec/core   sessions stepped per wall second of the step phases,
//                    divided by the worker-thread count — the headline
//                    capacity number, comparable across machines per-core;
//   bytes/session    pool high-water bytes / peak live sessions — the
//                    realized resident footprint against the hard
//                    kSessionByteBudget contract (slab quantization adds
//                    slack at small scales; at 1M it amortizes away);
//   peak RSS         the kernel's VmHWM for the whole process.
//
// The deployment runs OPEN by default: each epoch admits
// Poisson(1% of the per-site population) new users per site and draws
// exponential sojourns (mean 100 epochs) at admission, so the population
// churns while the scale stays in steady state — the throughput numbers
// include admission, alignment, tracking, and departure work mixed exactly
// as a serving deployment would mix them.
//
// The per-epoch CSVs are deterministic (byte-identical across --threads and
// --obs, enforced by tests/serve/serve_test.cpp); BENCH_serving.json holds
// the timing/memory numbers and is what tools/check_perf.py
// --serving-current gates in CI.
//
// Knobs: --sessions N (single scale instead of the sweep), --epochs N,
// --arrival-rate R (per site per epoch; overrides the 1% default),
// --sojourn E, --threads N / MMW_THREADS, --obs on|off, --trace[=path],
// --telemetry[=path] (per-epoch mmw.telemetry/1 NDJSON + watchdog with
// health.json next to it; the default path is
// bench_results/ext_serving_throughput_<sessions>_telemetry.ndjson, an
// explicit =path applies verbatim when --sessions pins a single scale).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fig_common.h"
#include "obs/json.h"
#include "serve/serve.h"

namespace {

using namespace mmw;

struct ScaleResult {
  index_t sessions = 0;
  serve::ServeResult result;
  double users_per_sec_per_core = 0.0;
  double bytes_per_session = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t outages = 0;
  real final_mean_loss_db = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mmw;

  bench::BenchRun run("ext_serving_throughput", argc, argv);

  // The serving scenario trades array size for population: TX 2×2 (M = 4),
  // RX 4×4 (N = 16), T = 64 pairs, 4 fades/measurement. Alignment quality
  // is not the point of E9 (figs 5–8 own that) — sustained session count
  // at fixed memory is.
  sim::Scenario sc;
  sc.channel = sim::ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 4;
  // Link budget: cell-edge users see γ_eff = γ·(10 m/100 m)³ = γ − 30 dB,
  // so γ = 30 dB puts the aligned pair (M·N = 64 ≈ 18 dB array gain) a
  // solid margin above the edge noise floor — an alignable population,
  // with ~30 dB of honest SNR heterogeneity between center and edge.
  sc.gamma = 1000.0;
  sc.seed = 2016;
  sc.threads = bench::threads_from_cli(argc, argv);
  run.add_scenario(sc);
  const index_t cores = core::resolve_thread_count(sc.threads);

  sim::TopologyConfig topo;
  topo.cells = 64;
  topo.cell_radius_m = 100.0;

  const std::uint64_t epochs = bench::flag_u64(argc, argv, "--epochs", 8);
  const double arrival_override =
      bench::flag_real(argc, argv, "--arrival-rate", -1.0);
  const double sojourn = bench::flag_real(argc, argv, "--sojourn", 100.0);
  if (sojourn < 0.0) bench::usage_error("--sojourn must be non-negative");
  const std::uint64_t single = bench::flag_u64(argc, argv, "--sessions", 0);
  const char* telemetry = bench::flag_option(argc, argv, "--telemetry");
  // One alignment slot per TX beam by default: the deterministic TX sweep
  // covers the whole M=4 codebook before a session claims its pair. The
  // bounds are ServingEngine's (the slot counter is a u8).
  const std::uint64_t align_epochs = bench::flag_u64(
      argc, argv, "--align-epochs", sc.tx_grid_x * sc.tx_grid_y, 1, 0xff);
  const std::uint64_t probes = bench::flag_u64(argc, argv, "--probes", 8, 1);
  const std::uint64_t track_fades =
      bench::flag_u64(argc, argv, "--track-fades", 4, 1);

  std::vector<index_t> scales;
  if (single > 0)
    scales.push_back(static_cast<index_t>(single));
  else
    scales = {10'000, 100'000, 1'000'000};

  run.manifest().add_config("sites", static_cast<std::uint64_t>(topo.cells));
  run.manifest().add_config("epochs", epochs);
  run.manifest().add_config("mean_sojourn_epochs", sojourn);
  run.manifest().add_config(
      "session_struct_bytes",
      static_cast<std::uint64_t>(sizeof(serve::UserSession)));
  run.manifest().add_config(
      "session_byte_budget",
      static_cast<std::uint64_t>(serve::kSessionByteBudget));

  std::printf("=== Extension E9: serving throughput ===\n");
  std::printf(
      "setup: TX 2x2 (M=4), RX 4x4 (N=16), %zu hex sites, %llu epochs, "
      "%zu thread(s); sizeof(UserSession)=%zu B (budget %zu B)\n\n",
      static_cast<std::size_t>(topo.cells),
      static_cast<unsigned long long>(epochs),
      static_cast<std::size_t>(cores), sizeof(serve::UserSession),
      static_cast<std::size_t>(serve::kSessionByteBudget));

  std::vector<ScaleResult> rows;
  for (const index_t sessions : scales) {
    serve::ServeConfig cfg;
    cfg.scenario = sc;
    cfg.topology = topo;
    cfg.initial_sessions = sessions;
    cfg.epochs = static_cast<index_t>(epochs);
    // 1% of the per-site population arrives per epoch (open deployment);
    // sojourns mean 100 epochs, so the population is in steady state.
    const double per_site = static_cast<double>(sessions) /
                            static_cast<double>(topo.cells);
    cfg.arrival_rate =
        arrival_override >= 0.0 ? arrival_override : 0.01 * per_site;
    cfg.mean_sojourn_epochs = sojourn;
    cfg.align_epochs = align_epochs;
    cfg.probes_per_slot = probes;
    cfg.track_fades = track_fades;
    // One slab per site holds the initial cohort exactly at small scales
    // (less slab-quantization slack in bytes/session); clamped to the
    // default 4096 grain at city scale so shards stay balanced.
    cfg.session_block = std::clamp<index_t>(
        static_cast<index_t>(per_site) + 1, 256, 4096);

    if (telemetry != nullptr) {
      // Per-scale NDJSON + health file; an explicit =path only applies
      // verbatim when a single --sessions scale is pinned (the sweep would
      // overwrite it otherwise).
      std::string base =
          (telemetry[0] != '\0' && scales.size() == 1)
              ? std::string(telemetry)
              : "bench_results/ext_serving_throughput_" +
                    std::to_string(sessions) + "_telemetry.ndjson";
      cfg.telemetry.ndjson_path = base;
      cfg.telemetry.watchdog.emplace().health_path = base + ".health.json";
    }

    serve::ServingEngine engine(cfg);
    const serve::ServeResult r = engine.run();

    ScaleResult row;
    row.sessions = sessions;
    row.result = r;
    row.users_per_sec_per_core =
        r.step_seconds > 0.0
            ? static_cast<double>(r.sessions_stepped) / r.step_seconds /
                  static_cast<double>(cores)
            : 0.0;
    row.bytes_per_session =
        r.peak_live_sessions > 0
            ? static_cast<double>(r.high_water_bytes) /
                  static_cast<double>(r.peak_live_sessions)
            : 0.0;
    for (const serve::EpochReport& e : r.epochs) {
      row.arrivals += e.arrivals;
      row.departures += e.departures;
      row.outages += e.outages;
    }
    if (!r.epochs.empty())
      row.final_mean_loss_db = r.epochs.back().mean_loss_db;
    rows.push_back(row);

    std::printf(
        "sessions=%zu: %.0f users/sec/core (%llu steps in %.3f s), "
        "peak_live=%llu, %.1f B/session (high water %.1f MB), "
        "arrivals=%llu departures=%llu outages=%llu, "
        "loss mean=%.2f dB p50=%.2f p99=%.2f p999=%.2f dB\n",
        static_cast<std::size_t>(sessions), row.users_per_sec_per_core,
        static_cast<unsigned long long>(r.sessions_stepped), r.step_seconds,
        static_cast<unsigned long long>(r.peak_live_sessions),
        row.bytes_per_session,
        static_cast<double>(r.high_water_bytes) / (1024.0 * 1024.0),
        static_cast<unsigned long long>(row.arrivals),
        static_cast<unsigned long long>(row.departures),
        static_cast<unsigned long long>(row.outages),
        static_cast<double>(row.final_mean_loss_db),
        static_cast<double>(r.loss_p50_db), static_cast<double>(r.loss_p99_db),
        static_cast<double>(r.loss_p999_db));

    bench::write_artifact("ext_serving_throughput_" +
                              std::to_string(sessions) + ".csv",
                          serve::render_serving_csv(r.epochs));
  }
  std::printf("\n");

  // BENCH_serving.json: the committed throughput/memory baseline the CI
  // serving gate (tools/check_perf.py --serving-current) compares
  // fresh runs against.
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string("mmw.serving_bench/1");
  w.key("threads");
  w.number(static_cast<std::uint64_t>(cores));
  w.key("sites");
  w.number(static_cast<std::uint64_t>(topo.cells));
  w.key("epochs");
  w.number(epochs);
  w.key("session_struct_bytes");
  w.number(static_cast<std::uint64_t>(sizeof(serve::UserSession)));
  w.key("session_byte_budget");
  w.number(static_cast<std::uint64_t>(serve::kSessionByteBudget));
  w.key("scales");
  w.begin_array();
  for (const ScaleResult& row : rows) {
    w.begin_object();
    w.key("sessions");
    w.number(static_cast<std::uint64_t>(row.sessions));
    w.key("sessions_stepped");
    w.number(row.result.sessions_stepped);
    w.key("step_seconds");
    w.number(row.result.step_seconds);
    w.key("users_per_sec_per_core");
    w.number(row.users_per_sec_per_core);
    w.key("peak_live_sessions");
    w.number(row.result.peak_live_sessions);
    w.key("pool_high_water_bytes");
    w.number(static_cast<std::uint64_t>(row.result.high_water_bytes));
    w.key("pool_resident_bytes");
    w.number(static_cast<std::uint64_t>(row.result.resident_bytes));
    w.key("bytes_per_session");
    w.number(row.bytes_per_session);
    w.key("arrivals");
    w.number(row.arrivals);
    w.key("departures");
    w.number(row.departures);
    w.key("outages");
    w.number(row.outages);
    w.key("final_mean_loss_db");
    w.number(static_cast<double>(row.final_mean_loss_db));
    // Run-level loss quantiles (every epoch's samples through one merged
    // digest) — deterministic, so the regression gate can hold p99.
    w.key("loss_p50_db");
    w.number(static_cast<double>(row.result.loss_p50_db));
    w.key("loss_p90_db");
    w.number(static_cast<double>(row.result.loss_p90_db));
    w.key("loss_p99_db");
    w.number(static_cast<double>(row.result.loss_p99_db));
    w.key("loss_p999_db");
    w.number(static_cast<double>(row.result.loss_p999_db));
    // Epoch wall-time quantiles (timing — machine-dependent, reported but
    // never gated byte-wise).
    w.key("epoch_seconds_p50");
    w.number(row.result.epoch_seconds_p50);
    w.key("epoch_seconds_p99");
    w.number(row.result.epoch_seconds_p99);
    w.key("telemetry_records");
    w.number(row.result.telemetry_records);
    w.end_object();
  }
  w.end_array();
  w.key("peak_rss_bytes");
  w.number(obs::peak_rss_bytes());
  w.end_object();
  bench::write_artifact("BENCH_serving.json", std::move(w).str());

  // The per-scale memory accounting, in the manifest next to peak RSS
  // (recorded by BenchRun::finish) so the fixed-memory claim is checkable
  // from the manifest alone.
  for (const ScaleResult& row : rows) {
    const std::string prefix =
        "serve." + std::to_string(row.sessions) + ".";
    run.manifest().add_config(prefix + "users_per_sec_per_core",
                              row.users_per_sec_per_core);
    run.manifest().add_config(
        prefix + "pool_high_water_bytes",
        static_cast<std::uint64_t>(row.result.high_water_bytes));
    run.manifest().add_config(prefix + "bytes_per_session",
                              row.bytes_per_session);
  }

  run.finish();

  // Hard acceptance check: at city scale (≥ 1M sessions) the realized
  // per-session footprint must fit the budget — slab quantization has
  // amortized there. Smaller smoke runs only report the number (a 10k run
  // over 64 sites legitimately pays partial-slab slack).
  const ScaleResult& largest = rows.back();
  if (largest.sessions >= 1'000'000 &&
      largest.bytes_per_session >
          static_cast<double>(serve::kSessionByteBudget)) {
    std::fprintf(stderr,
                 "FAIL: %.1f bytes/session at %zu sessions exceeds the "
                 "%zu-byte budget\n",
                 largest.bytes_per_session,
                 static_cast<std::size_t>(largest.sessions),
                 static_cast<std::size_t>(serve::kSessionByteBudget));
    return 1;
  }
  return 0;
}
