// sim::Trajectory and hysteresis serving-site selection — the geometry
// half of the tracking layer. The crafted two-site ping-pong walk is the
// ISSUE-10 handover invariant: with the hysteresis margin on, a user
// jittering around the midpoint must NOT bounce between sites each epoch;
// with the margin off, the same walk flips constantly.
#include "sim/mobility.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace mmw::sim {
namespace {

TopologyConfig hex7() {
  TopologyConfig cfg;
  cfg.cells = 7;
  cfg.cell_radius_m = 100.0;
  return cfg;
}

TEST(TrajectoryTest, PositionIsPureAcrossCallOrder) {
  const Topology topo = Topology::build(hex7());
  Trajectory a(topo, 1.4, 0.5, 42, 3);
  Trajectory b(topo, 1.4, 0.5, 42, 3);
  // Query a forward, b in a scrambled order: same positions bit-exact.
  std::vector<UserPlacement> forward;
  for (index_t e = 0; e <= 50; ++e) forward.push_back(a.position_at(e));
  const index_t scrambled[] = {50, 0, 17, 33, 17, 2, 49, 8};
  for (const index_t e : scrambled) {
    const UserPlacement p = b.position_at(e);
    EXPECT_EQ(p.x, forward[e].x) << "epoch " << e;
    EXPECT_EQ(p.y, forward[e].y) << "epoch " << e;
  }
}

TEST(TrajectoryTest, DistinctUsersAndSeedsDiverge) {
  const Topology topo = Topology::build(hex7());
  Trajectory base(topo, 1.4, 0.5, 42, 3);
  Trajectory other_user(topo, 1.4, 0.5, 42, 4);
  Trajectory other_seed(topo, 1.4, 0.5, 43, 3);
  const UserPlacement p = base.position_at(0);
  const UserPlacement q = other_user.position_at(0);
  const UserPlacement r = other_seed.position_at(0);
  EXPECT_TRUE(p.x != q.x || p.y != q.y);
  EXPECT_TRUE(p.x != r.x || p.y != r.y);
}

TEST(TrajectoryTest, SpeedControlsStepLength) {
  const Topology topo = Topology::build(hex7());
  Trajectory walk(topo, 1.4, 0.5, 7, 0);
  // Consecutive positions are at most speed·τ apart (exactly that between
  // waypoints, less when a corner is turned... never more).
  for (index_t e = 0; e < 100; ++e) {
    const UserPlacement p = walk.position_at(e);
    const UserPlacement q = walk.position_at(e + 1);
    const real step = std::hypot(q.x - p.x, q.y - p.y);
    EXPECT_LE(step, 1.4 * 0.5 + 1e-9) << "epoch " << e;
  }
}

TEST(TrajectoryTest, ZeroSpeedStaysAtStart) {
  const Topology topo = Topology::build(hex7());
  Trajectory still(topo, 0.0, 0.5, 7, 0);
  const UserPlacement start = still.position_at(0);
  const UserPlacement later = still.position_at(1000);
  EXPECT_EQ(later.x, start.x);
  EXPECT_EQ(later.y, start.y);
}

TEST(TrajectoryTest, StaysInsideDeploymentBoundingBox) {
  const Topology topo = Topology::build(hex7());
  real min_x = topo.site(0).x, max_x = min_x;
  real min_y = topo.site(0).y, max_y = min_y;
  for (index_t s = 1; s < topo.n_cells(); ++s) {
    min_x = std::min(min_x, topo.site(s).x);
    max_x = std::max(max_x, topo.site(s).x);
    min_y = std::min(min_y, topo.site(s).y);
    max_y = std::max(max_y, topo.site(s).y);
  }
  const real r = hex7().cell_radius_m;
  Trajectory train(topo, 33.3, 0.5, 11, 5);
  for (index_t e = 0; e <= 400; ++e) {
    const UserPlacement p = train.position_at(e);
    EXPECT_GE(p.x, min_x - r - 1e-9);
    EXPECT_LE(p.x, max_x + r + 1e-9);
    EXPECT_GE(p.y, min_y - r - 1e-9);
    EXPECT_LE(p.y, max_y + r + 1e-9);
  }
}

TEST(NearestSiteTest, PicksClosestAndBreaksTiesLow) {
  const Topology topo = Topology::build(hex7());
  // On top of site 2 (clamped distance ties with nothing else nearby).
  const UserPlacement on2{topo.site(2).x, topo.site(2).y};
  EXPECT_EQ(nearest_site(topo, on2), 2u);
  // Equidistant from every site only at... the center site wins ties by
  // index: craft a position equidistant from sites 1 and 2 but closer to
  // them than to the rest → the lower index of the tied pair.
  const UserPlacement mid{(topo.site(1).x + topo.site(2).x) / 2.0,
                          (topo.site(1).y + topo.site(2).y) / 2.0};
  const index_t pick = nearest_site(topo, mid);
  const real d1 = topo.distance(1, mid), d2 = topo.distance(2, mid);
  if (d1 == d2) {
    EXPECT_EQ(pick, std::min<index_t>(1, 2));
  }
}

TEST(ServingSiteTest, HysteresisPreventsPingPong) {
  // The crafted two-site walk: a user jitters ±1 m around the midpoint of
  // sites 0 and 1. Without hysteresis the serving site flips every epoch;
  // with a 3 dB margin the serving site never changes, because ±1 m around
  // the midpoint moves the gain ratio far less than 3 dB.
  TopologyConfig cfg = hex7();
  cfg.cells = 2;
  const Topology topo = Topology::build(cfg);
  const real mx = (topo.site(0).x + topo.site(1).x) / 2.0;
  const real my = (topo.site(0).y + topo.site(1).y) / 2.0;
  const real ux = (topo.site(1).x - topo.site(0).x);
  const real uy = (topo.site(1).y - topo.site(0).y);
  const real norm = std::hypot(ux, uy);

  index_t with_h = nearest_site(topo, {mx, my});
  index_t without_h = with_h;
  index_t flips_with = 0, flips_without = 0;
  for (index_t e = 0; e < 64; ++e) {
    // ±1 m jitter along the inter-site axis, alternating sides.
    const real s = (e % 2 == 0) ? 1.0 : -1.0;
    const UserPlacement p{mx + s * ux / norm, my + s * uy / norm};
    const index_t nh = select_serving_site(topo, p, with_h, 3.0);
    if (nh != with_h) ++flips_with;
    with_h = nh;
    const index_t nw = select_serving_site(topo, p, without_h, 0.0);
    if (nw != without_h) ++flips_without;
    without_h = nw;
  }
  EXPECT_EQ(flips_with, 0u);
  EXPECT_EQ(flips_without, 64u);  // flips every single epoch
}

TEST(ServingSiteTest, LargeGainGapOverridesHysteresis) {
  TopologyConfig cfg = hex7();
  cfg.cells = 2;
  const Topology topo = Topology::build(cfg);
  // Standing on site 1 while served by site 0: the gap is tens of dB, so
  // even a 10 dB margin hands the user over.
  const UserPlacement on1{topo.site(1).x, topo.site(1).y};
  EXPECT_EQ(select_serving_site(topo, on1, 0, 10.0), 1u);
  // And the handover is sticky: once on site 1, site 0 can't win it back.
  EXPECT_EQ(select_serving_site(topo, on1, 1, 10.0), 1u);
}

TEST(ServingSiteTest, KeepsCurrentWithinMargin) {
  TopologyConfig cfg = hex7();
  cfg.cells = 2;
  const Topology topo = Topology::build(cfg);
  const UserPlacement mid{(topo.site(0).x + topo.site(1).x) / 2.0,
                          (topo.site(0).y + topo.site(1).y) / 2.0};
  // Exactly between the sites either one is within any positive margin of
  // the other — whichever is current stays.
  EXPECT_EQ(select_serving_site(topo, mid, 0, 1.0), 0u);
  EXPECT_EQ(select_serving_site(topo, mid, 1, 1.0), 1u);
}

}  // namespace
}  // namespace mmw::sim
