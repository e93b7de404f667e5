#include "core/strategy.h"

#include <gtest/gtest.h>

#include <set>

#include "channel/models.h"
#include "core/oracle.h"

namespace mmw::core {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using channel::Link;
using mac::Session;
using randgen::Rng;

struct Fixture {
  ArrayGeometry tx = ArrayGeometry::upa(2, 2);
  ArrayGeometry rx = ArrayGeometry::upa(4, 4);
  Rng rng{11};
  Link link;
  Codebook tx_cb;
  Codebook rx_cb;

  Fixture()
      : link(channel::make_single_path_link(tx, rx, rng)),
        tx_cb(Codebook::angular_grid(tx, 2, 2, -1.0, 1.0, -0.5, 0.5)),
        rx_cb(Codebook::angular_grid(rx, 4, 4, -1.0, 1.0, -0.5, 0.5)) {}

  Session session(index_t budget, index_t fades = 4) {
    return Session(link, tx_cb, rx_cb, 1.0, budget, rng, fades);
  }
};

void expect_no_duplicates(const Session& s) {
  std::set<std::pair<index_t, index_t>> seen;
  for (const auto& r : s.records())
    EXPECT_TRUE(seen.insert({r.tx_beam, r.rx_beam}).second)
        << "pair measured twice";
}

TEST(RandomSearchTest, SpendsExactBudget) {
  Fixture f;
  Session s = f.session(20);
  RandomSearch().run(s);
  EXPECT_EQ(s.measurements_taken(), 20u);
  expect_no_duplicates(s);
}

TEST(RandomSearchTest, FullBudgetCoversAllPairs) {
  Fixture f;
  Session s = f.session(64);
  RandomSearch().run(s);
  EXPECT_EQ(s.measurements_taken(), 64u);
  expect_no_duplicates(s);
}

TEST(RandomSearchTest, DifferentRngsGiveDifferentOrders) {
  Fixture f;
  Session s1 = f.session(64);
  RandomSearch().run(s1);
  Session s2 = f.session(64);
  RandomSearch().run(s2);
  bool any_differ = false;
  for (index_t k = 0; k < 64; ++k)
    if (s1.records()[k].tx_beam != s2.records()[k].tx_beam ||
        s1.records()[k].rx_beam != s2.records()[k].rx_beam)
      any_differ = true;
  EXPECT_TRUE(any_differ);
}

TEST(ScanSearchTest, ConsecutivePairsAreAdjacent) {
  Fixture f;
  Session s = f.session(30);
  ScanSearch().run(s);
  EXPECT_EQ(s.measurements_taken(), 30u);
  const auto& recs = s.records();
  const auto d = [](index_t a, index_t b) { return a > b ? a - b : b - a; };
  // Every step moves one grid cell in exactly one of the two codebooks;
  // the single allowed exception is the wrap point of the cyclic traversal.
  int discontinuities = 0;
  for (index_t k = 1; k < recs.size(); ++k) {
    const auto [tx1, ty1] = f.tx_cb.coordinates(recs[k - 1].tx_beam);
    const auto [tx2, ty2] = f.tx_cb.coordinates(recs[k].tx_beam);
    const auto [rx1, ry1] = f.rx_cb.coordinates(recs[k - 1].rx_beam);
    const auto [rx2, ry2] = f.rx_cb.coordinates(recs[k].rx_beam);
    const index_t total =
        d(tx1, tx2) + d(ty1, ty2) + d(rx1, rx2) + d(ry1, ry2);
    if (total != 1) ++discontinuities;
  }
  EXPECT_LE(discontinuities, 1);
  expect_no_duplicates(s);
}

TEST(ScanSearchTest, CoversAllPairsAtFullBudget) {
  Fixture f;
  Session s = f.session(64);
  ScanSearch().run(s);
  EXPECT_EQ(s.measurements_taken(), 64u);
  expect_no_duplicates(s);
}

TEST(ExhaustiveSearchTest, RasterOrder) {
  Fixture f;
  Session s = f.session(64);
  ExhaustiveSearch().run(s);
  EXPECT_EQ(s.measurements_taken(), 64u);
  for (index_t k = 0; k < 64; ++k) {
    EXPECT_EQ(s.records()[k].tx_beam, k / 16);
    EXPECT_EQ(s.records()[k].rx_beam, k % 16);
  }
}

TEST(ProposedTest, RequiresAtLeastTwoPerSlot) {
  ProposedOptions bad;
  bad.measurements_per_slot = 1;
  EXPECT_THROW(ProposedAlignment{bad}, precondition_error);
}

TEST(ProposedTest, SpendsExactBudget) {
  Fixture f;
  Session s = f.session(30);
  ProposedAlignment().run(s);
  EXPECT_EQ(s.measurements_taken(), 30u);
  expect_no_duplicates(s);
}

TEST(ProposedTest, FullBudgetMeasuresEverything) {
  Fixture f;
  Session s = f.session(64);
  ProposedAlignment().run(s);
  EXPECT_EQ(s.measurements_taken(), 64u);
  expect_no_duplicates(s);
}

TEST(ProposedTest, SlotStructureRespectsJ) {
  // The first J measurements must share one TX beam, the next J another.
  Fixture f;
  ProposedOptions opts;
  opts.measurements_per_slot = 4;
  Session s = f.session(16);
  ProposedAlignment(opts).run(s);
  const auto& recs = s.records();
  ASSERT_EQ(recs.size(), 16u);
  for (index_t slot = 0; slot < 4; ++slot) {
    const index_t u = recs[slot * 4].tx_beam;
    for (index_t j = 1; j < 4; ++j)
      EXPECT_EQ(recs[slot * 4 + j].tx_beam, u) << "slot " << slot;
  }
  // Four distinct TX beams across the four slots (one round over U).
  std::set<index_t> tx_used;
  for (index_t slot = 0; slot < 4; ++slot)
    tx_used.insert(recs[slot * 4].tx_beam);
  EXPECT_EQ(tx_used.size(), 4u);
}

TEST(ProposedTest, BeatsRandomOnAverage) {
  // The headline property at a moderate search rate on a larger codebook.
  Rng rng(3);
  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(8, 8);
  const auto tx_cb = Codebook::angular_grid(tx, 4, 4, -M_PI / 3, M_PI / 3,
                                            -M_PI / 6, M_PI / 6);
  const auto rx_cb = Codebook::angular_grid(rx, 8, 8, -M_PI / 3, M_PI / 3,
                                            -M_PI / 6, M_PI / 6);
  real proposed_loss = 0.0, random_loss = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const Link link = channel::make_single_path_link(tx, rx, rng);
    const PairGainOracle oracle(link, tx_cb, rx_cb);
    const index_t budget = 128;  // 12.5% search rate
    {
      Rng run_rng = rng.fork();
      Session s(link, tx_cb, rx_cb, 1.0, budget, run_rng, 8);
      ProposedAlignment().run(s);
      const auto best = s.best_measured();
      proposed_loss += oracle.loss_db(best->tx_beam, best->rx_beam);
    }
    {
      Rng run_rng = rng.fork();
      Session s(link, tx_cb, rx_cb, 1.0, budget, run_rng, 8);
      RandomSearch().run(s);
      const auto best = s.best_measured();
      random_loss += oracle.loss_db(best->tx_beam, best->rx_beam);
    }
  }
  EXPECT_LT(proposed_loss, random_loss);
}

TEST(ProposedTest, SolvesAdvanceTheSessionsFaultState) {
  // Proposed and PingPong hand every covariance solve the session's own
  // fault state: the scripted stress of solve 0 is tallied there, and
  // every solve lands in the session's rung histogram. A clean session's
  // tallies stay zero.
  const ProposedAlignment proposed;
  const PingPongAlignment ping_pong;
  for (const AlignmentStrategy* strategy :
       {static_cast<const AlignmentStrategy*>(&proposed),
        static_cast<const AlignmentStrategy*>(&ping_pong)}) {
    Fixture f;
    const fault::FaultPlan plan =
        fault::FaultPlan::scripted({}, ~index_t{0}, {}, {true});
    Session armed = f.session(32);
    armed.arm_faults(&plan, nullptr);
    strategy->run(armed);
    const fault::TrialFaultState& st = armed.fault_state();
    EXPECT_GT(st.solves, 1u) << strategy->name();
    EXPECT_EQ(st.stressed_solves, 1u) << strategy->name();
    std::uint64_t landed = 0;
    for (const std::uint64_t c : st.rung_counts) landed += c;
    EXPECT_EQ(landed, st.solves) << strategy->name();
    EXPECT_LT(st.rung_counts[0], st.solves) << strategy->name();

    Session clean = f.session(32);
    strategy->run(clean);
    EXPECT_EQ(clean.fault_state().solves, 0u) << strategy->name();
  }
}

TEST(HierarchicalTest, SpendsBudgetWithoutDuplicates) {
  Fixture f;
  Session s = f.session(40);
  HierarchicalSearch().run(s);
  EXPECT_EQ(s.measurements_taken(), 40u);
  expect_no_duplicates(s);
}

TEST(HierarchicalTest, CoarseStageComesFirst) {
  Fixture f;
  Session s = f.session(64);
  HierarchicalSearch().run(s);
  // First measurements enumerate the strided subgrid: 1×1 TX coarse points
  // (grid 2×2, stride 2 → 1 point) × 2×2 RX coarse points = 4 pairs.
  const auto& recs = s.records();
  for (index_t k = 0; k < 4; ++k) {
    const auto [tx_x, tx_y] = f.tx_cb.coordinates(recs[k].tx_beam);
    const auto [rx_x, rx_y] = f.rx_cb.coordinates(recs[k].rx_beam);
    EXPECT_EQ(tx_x % 2, 0u);
    EXPECT_EQ(tx_y % 2, 0u);
    EXPECT_EQ(rx_x % 2, 0u);
    EXPECT_EQ(rx_y % 2, 0u);
  }
  EXPECT_EQ(s.measurements_taken(), 64u);
  expect_no_duplicates(s);
}

}  // namespace
}  // namespace mmw::core
