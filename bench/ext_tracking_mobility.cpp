// Extension E10: temporal tracking under mobility.
//
// Runs the tracking engine (src/track/) over a 7-site hex deployment at
// three mobility classes — walk (1.4 m/s), vehicle (13.9 m/s), train
// (33.3 m/s) — with every Tracker strategy on the same evolving channels
// and trajectories:
//
//   cold_start     exhaustive re-sweep every epoch (the probe-budget
//                  ceiling and loss floor — everything is graded against
//                  the same oracle it computes);
//   warm_ml        one verify probe per steady epoch; on collapse,
//                  covariance-ML re-entry warm-started from the resident
//                  beam-space prior;
//   neighborhood   one verify probe; on collapse, PR-6's widening
//                  Chebyshev-window scan around the last claim;
//   bandit_ucb     correlated UCB over (TX, RX) arms with discounted
//                  posteriors seeded from the acquisition sweep.
//
// Expected shape: warm_ml and bandit_ucb hold an order of magnitude fewer
// probes per epoch than cold_start at walking speed with small extra loss;
// the gap narrows as speed (drift + Doppler + handover rate) grows, and
// neighborhood degrades last because its re-scan window tracks total
// drift, not fade rate.
//
// The CSV (one row per speed, per-tracker loss/p99/realign/probe columns)
// is byte-identical for any --threads value — tests/track/engine_test.cpp
// and the E10 CI smoke job (`cmp` of a --threads 1 vs 4 run) enforce it.
// The manifest carries per-cell track.* metrics including the loss
// quantile digests' p50/p90/p99/max.
//
// Knobs: --users N, --epochs N, --warmup N, --speeds a,b,c (m/s),
// --threads N, --tiny (CI smoke: 4 users × 24 epochs,
// warmup 8).
#include <cstdio>
#include <string>
#include <vector>

#include "fig_common.h"
#include "track/engine.h"

int main(int argc, char** argv) {
  using namespace mmw;

  bench::Args args(argc, argv);
  bench::BenchRun run("ext_tracking_mobility", args);

  // Tracking scenario: the E9 array split (TX 2×2, RX 4×16 pairs) so a
  // cold sweep is 64 probes — big enough that warm tracking has something
  // to amortize, small enough that the cold baseline stays benchable.
  sim::Scenario sc;
  sc.channel = sim::ChannelKind::kNycMultipath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 4;
  sc.gamma = 1000.0;  // 30 dB at reference distance; pathloss eats ~30 dB
  sc.seed = 20160610;
  sc.threads = run.threads();
  run.add_scenario(sc);

  const bool tiny = args.flag("--tiny");

  track::TrackingConfig cfg;
  cfg.scenario = sc;
  cfg.topology.cells = 7;
  cfg.topology.cell_radius_m = 100.0;
  // track::run_tracking's bounds: one user, one epoch, and a warm-up
  // that leaves at least one steady epoch.
  cfg.users = static_cast<index_t>(args.u64("--users", tiny ? 4 : 24, 1));
  cfg.epochs = static_cast<index_t>(args.u64("--epochs", tiny ? 24 : 120, 1));
  cfg.warmup_epochs = static_cast<index_t>(
      args.u64("--warmup", tiny ? 8 : 40, 0, cfg.epochs - 1));
  cfg.mobility.epoch_seconds = 0.5;
  cfg.mobility.hysteresis_db = 3.0;
  cfg.evolution.drift_rad_per_meter = 0.004;
  cfg.evolution.shadow_sigma_db = 2.0;
  cfg.evolution.shadow_coherence_m = 15.0;
  cfg.evolution.blockage_onset_per_meter = 0.002;
  cfg.evolution.blockage_clear_probability = 0.25;
  cfg.evolution.blockage_gain = 0.02;

  const std::vector<real> speeds = args.numbers("--speeds", {1.4, 13.9, 33.3});
  for (const real v : speeds)
    if (v < 0.0) bench::usage_error("--speeds must be non-negative m/s");
  args.reject_unknown();
  const std::vector<track::TrackerKind> kinds{
      track::TrackerKind::kColdStart, track::TrackerKind::kWarmMl,
      track::TrackerKind::kNeighborhood, track::TrackerKind::kBanditUcb};

  run.manifest().add_config("sites",
                            static_cast<std::uint64_t>(cfg.topology.cells));
  run.manifest().add_config("users",
                            static_cast<std::uint64_t>(cfg.users));
  run.manifest().add_config("epochs",
                            static_cast<std::uint64_t>(cfg.epochs));
  run.manifest().add_config(
      "warmup_epochs", static_cast<std::uint64_t>(cfg.warmup_epochs));
  run.manifest().add_config("epoch_seconds",
                            static_cast<double>(cfg.mobility.epoch_seconds));
  run.manifest().add_config("hysteresis_db",
                            static_cast<double>(cfg.mobility.hysteresis_db));

  std::printf("=== Extension E10: steady-state tracking loss vs speed ===\n");
  std::printf(
      "setup: TX 2x2 (M=4), RX 4x4 (N=16), %zu hex sites, %zu users x "
      "%zu epochs (warmup %zu), %zu thread(s)\n\n",
      static_cast<std::size_t>(cfg.topology.cells),
      static_cast<std::size_t>(cfg.users),
      static_cast<std::size_t>(cfg.epochs),
      static_cast<std::size_t>(cfg.warmup_epochs),
      static_cast<std::size_t>(core::resolve_thread_count(sc.threads)));

  std::vector<track::TrackingResult> results;
  for (const real speed : speeds) {
    cfg.mobility.speed_mps = speed;
    const track::TrackingResult r = track::run_tracking(cfg, kinds);
    results.push_back(r);

    std::printf("speed %5.1f m/s (handovers/user %.2f)\n",
                static_cast<double>(speed),
                static_cast<double>(r.handovers_per_user));
    std::printf("  %-13s %9s %9s %9s %9s %9s %11s\n", "tracker", "loss_dB",
                "p90_dB", "p99_dB", "realign", "outage", "probes/epoch");
    for (const track::TrackerCaseResult& t : r.trackers)
      std::printf("  %-13s %9.3f %9.3f %9.3f %9.3f %9.3f %11.2f\n",
                  t.name.c_str(), static_cast<double>(t.mean_loss_db),
                  static_cast<double>(t.p90_loss_db),
                  static_cast<double>(t.p99_loss_db),
                  static_cast<double>(t.realign_rate),
                  static_cast<double>(t.outage_rate),
                  static_cast<double>(t.probes_per_epoch));
    std::printf("\n");

    // track.* manifest metrics: one cell per (speed, tracker), quantile
    // digest cut-points included so the loss tail is checkable from the
    // manifest alone.
    char sp[32];
    std::snprintf(sp, sizeof sp, "%.1f", static_cast<double>(speed));
    run.manifest().add_config("track." + std::string(sp) +
                                  ".handovers_per_user",
                              static_cast<double>(r.handovers_per_user));
    for (const track::TrackerCaseResult& t : r.trackers) {
      const std::string prefix =
          "track." + std::string(sp) + "." + t.name + ".";
      run.manifest().add_config(prefix + "mean_loss_db",
                                static_cast<double>(t.mean_loss_db));
      run.manifest().add_config(prefix + "p50_loss_db",
                                static_cast<double>(t.p50_loss_db));
      run.manifest().add_config(prefix + "p90_loss_db",
                                static_cast<double>(t.p90_loss_db));
      run.manifest().add_config(prefix + "p99_loss_db",
                                static_cast<double>(t.p99_loss_db));
      run.manifest().add_config(prefix + "max_loss_db",
                                static_cast<double>(t.max_loss_db));
      run.manifest().add_config(prefix + "realign_rate",
                                static_cast<double>(t.realign_rate));
      run.manifest().add_config(prefix + "outage_rate",
                                static_cast<double>(t.outage_rate));
      run.manifest().add_config(prefix + "probes_per_epoch",
                                static_cast<double>(t.probes_per_epoch));
      run.manifest().add_config(prefix + "probes_total", t.probes_total);
      run.manifest().add_config(prefix + "steady_epochs", t.steady_epochs);
    }
  }

  bench::write_artifact(
      "ext_tracking_mobility.csv",
      track::render_tracking_csv("speed_mps", speeds, results));
  run.finish();

  // Hard acceptance check (ISSUE 10): at pedestrian speed the warm and
  // bandit trackers must spend fewer probes per epoch than the cold-start
  // baseline — otherwise tracking buys nothing.
  const track::TrackingResult& walk = results.front();
  const real cold = walk.trackers[0].probes_per_epoch;
  for (std::size_t k = 1; k < walk.trackers.size(); ++k) {
    const track::TrackerCaseResult& t = walk.trackers[k];
    if ((t.name == "warm_ml" || t.name == "bandit_ucb") &&
        !(t.probes_per_epoch < cold)) {
      std::fprintf(stderr,
                   "FAIL: %s spends %.2f probes/epoch at %.1f m/s, not "
                   "below cold_start's %.2f\n",
                   t.name.c_str(), static_cast<double>(t.probes_per_epoch),
                   static_cast<double>(speeds.front()),
                   static_cast<double>(cold));
      return 1;
    }
  }
  return 0;
}
