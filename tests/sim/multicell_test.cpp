// The multi-cell engine's contracts (DESIGN.md §9):
//  - bit-exact thread-count independence of everything the bench writes
//    (rendered CSV bytes) plus the deterministic obs counters;
//  - fixed key-space RNG streams: adding cells never perturbs the serving
//    realizations of existing cells (prefix stability);
//  - interference behaves physically: zero for an isolated cell, growing
//    noise floor with cell count, never negative loss impact on average;
//  - topology geometry: spiral hex ring distances, annulus user drops,
//    reciprocal-pathloss coupling.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/multicell.h"

namespace mmw::sim {
namespace {

MultiCellConfig tiny_config(index_t cells, index_t users, index_t threads) {
  MultiCellConfig config;
  config.topology.cells = cells;
  config.topology.users_per_cell = users;
  config.scenario.channel = ChannelKind::kSinglePath;
  config.scenario.tx_grid_x = 2;
  config.scenario.tx_grid_y = 2;
  config.scenario.rx_grid_x = 4;
  config.scenario.rx_grid_y = 4;
  config.scenario.trials = 3;
  config.scenario.seed = 20160614;
  config.scenario.threads = threads;
  return config;
}

const std::vector<const core::AlignmentStrategy*>& strategies() {
  static const core::RandomSearch rnd;
  static const core::ScanSearch scan;
  static const core::ProposedAlignment proposed;
  static const std::vector<const core::AlignmentStrategy*> all{&rnd, &scan,
                                                               &proposed};
  return all;
}

std::string sweep_csv(index_t threads) {
  std::vector<MultiCellResult> results;
  const std::vector<real> xs{1, 3};
  for (const real cells : xs)
    results.push_back(run_multicell(
        tiny_config(static_cast<index_t>(cells), 2, threads), strategies()));
  return render_multicell_csv("cells", xs, results);
}

TEST(MultiCellDeterminism, CsvBytesIdenticalAcrossThreadCounts) {
  const std::string serial = sweep_csv(1);
  EXPECT_EQ(serial, sweep_csv(2));
  EXPECT_EQ(serial, sweep_csv(5));
  // threads = 0 resolves to hardware concurrency — still identical.
  EXPECT_EQ(serial, sweep_csv(0));
}

TEST(MultiCellDeterminism, DeterministicMetricsIdenticalAcrossThreadCounts) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto run_and_snapshot = [&](index_t threads) {
    obs::Registry::global().reset();
    run_multicell(tiny_config(3, 2, threads), strategies());
    return obs::Registry::global().snapshot();
  };
  const auto serial = run_and_snapshot(1);
  const auto parallel = run_and_snapshot(4);
  obs::set_enabled(was_enabled);

  EXPECT_EQ(serial.counters.at("sim.multicell.cells").value,
            parallel.counters.at("sim.multicell.cells").value);
  EXPECT_EQ(serial.counters.at("sim.multicell.sessions").value,
            parallel.counters.at("sim.multicell.sessions").value);
  // The interference histogram records simulated quantities only, so its
  // per-bucket counts are thread-count-independent too (unlike the busy-
  // time histogram, which measures the wall clock).
  const auto& sh = serial.histograms.at("sim.multicell.interference_power");
  const auto& ph = parallel.histograms.at("sim.multicell.interference_power");
  EXPECT_EQ(sh.counts, ph.counts);
  EXPECT_EQ(sh.count, serial.counters.at("sim.multicell.cells").value * 2);
}

TEST(MultiCellDeterminism, RepeatedRunsAreBitIdentical) {
  auto run_once = [&] {
    return run_multicell(tiny_config(3, 1, 1), strategies());
  };
  const MultiCellResult a = run_once();
  const MultiCellResult b = run_once();
  for (const auto& [name, summary] : a.loss_db) {
    EXPECT_EQ(summary.mean, b.loss_db.at(name).mean) << name;
    EXPECT_EQ(summary.stddev, b.loss_db.at(name).stddev) << name;
    EXPECT_EQ(summary.count, b.loss_db.at(name).count) << name;
  }
  EXPECT_EQ(a.interference_over_noise_db.mean,
            b.interference_over_noise_db.mean);
}

TEST(Topology, SitePrefixStableWhenTopologyGrows) {
  // Growing the deployment never moves an existing site, so per-cell RNG
  // keys keep addressing the same geometry (spiral ring order is
  // prefix-stable by construction).
  TopologyConfig small_config;
  small_config.cells = 3;
  TopologyConfig big_config;
  big_config.cells = 19;  // two full hex rings
  const Topology small = Topology::build(small_config);
  const Topology big = Topology::build(big_config);
  for (index_t c = 0; c < small.n_cells(); ++c) {
    EXPECT_EQ(small.site(c).x, big.site(c).x) << c;
    EXPECT_EQ(small.site(c).y, big.site(c).y) << c;
  }
}

TEST(MultiCellInterference, IsolatedCellHasZeroInterference) {
  const MultiCellResult r = run_multicell(tiny_config(1, 1, 1), strategies());
  EXPECT_EQ(r.interference_over_noise_db.mean, 0.0);
  EXPECT_EQ(r.cells, 1u);
  EXPECT_EQ(r.sessions_per_strategy, 3u);  // 1 cell · 1 user · 3 trials
}

TEST(MultiCellInterference, NoiseFloorGrowsWithCellCount) {
  const MultiCellResult two = run_multicell(tiny_config(2, 1, 1), strategies());
  const MultiCellResult seven =
      run_multicell(tiny_config(7, 1, 1), strategies());
  EXPECT_GT(two.interference_over_noise_db.mean, 0.0);
  EXPECT_GT(seven.interference_over_noise_db.mean,
            two.interference_over_noise_db.mean);
}

TEST(Topology, HexSpiralGeometry) {
  TopologyConfig config;
  config.cells = 7;
  const Topology topo = Topology::build(config);
  ASSERT_EQ(topo.n_cells(), 7u);
  EXPECT_EQ(topo.site(0).x, 0.0);
  EXPECT_EQ(topo.site(0).y, 0.0);
  const real isd = std::sqrt(3.0) * config.cell_radius_m;
  for (index_t c = 1; c < 7; ++c)
    EXPECT_NEAR(std::hypot(topo.site(c).x, topo.site(c).y), isd, 1e-9)
        << "ring-1 site " << c;
}

TEST(Topology, UserDropsStayInAnnulus) {
  TopologyConfig config;
  config.cells = 7;
  const Topology topo = Topology::build(config);
  randgen::Rng rng(99);
  for (index_t i = 0; i < 200; ++i) {
    const index_t cell = i % 7;
    const UserPlacement u = topo.place_user(cell, rng);
    const real d = std::hypot(u.x - topo.site(cell).x,
                              u.y - topo.site(cell).y);
    EXPECT_GE(d, config.min_distance_m - 1e-9);
    EXPECT_LE(d, config.cell_radius_m + 1e-9);
  }
}

TEST(Topology, CouplingIsReciprocalPathlossRatio) {
  TopologyConfig config;
  config.cells = 2;
  const Topology topo = Topology::build(config);
  // A user exactly at its serving site's min-distance clamp, on the line
  // towards the interferer: coupling = (d_s/d_i)^3 under the α = 3 law.
  const UserPlacement u{topo.site(0).x + config.min_distance_m,
                        topo.site(0).y};
  const real d_s = config.min_distance_m;
  const real d_i = std::hypot(u.x - topo.site(1).x, u.y - topo.site(1).y);
  const real ratio = d_s / d_i;
  EXPECT_NEAR(topo.coupling(1, 0, u), ratio * ratio * ratio, 1e-12);
}

}  // namespace
}  // namespace mmw::sim
