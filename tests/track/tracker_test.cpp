// Tracker strategies (src/track/tracker.h): per-kind probe budgets,
// collapse/outage behavior, determinism, and the handover wire-format
// round-trip (export_state → import_state → export_state must reproduce
// the beam-space components byte for byte).
#include "track/tracker.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mac/probe.h"
#include "sim/scenario.h"
#include "track/policy.h"

namespace mmw::track {
namespace {

using randgen::Rng;

struct Rig {
  sim::Scenario sc;
  sim::CodebookPair books;
  channel::Link link;

  explicit Rig(std::uint64_t seed = 99)
      : sc(make_scenario()),
        books(sim::make_scenario_codebooks(sc)),
        link(make_link(sc, seed)) {}

  static sim::Scenario make_scenario() {
    sim::Scenario sc;
    sc.channel = sim::ChannelKind::kSinglePath;
    sc.tx_grid_x = 2;
    sc.tx_grid_y = 2;
    sc.rx_grid_x = 4;
    sc.rx_grid_y = 4;
    sc.gamma = 10000.0;  // probe noise well below the aligned peak
    return sc;
  }

  static channel::Link make_link(const sim::Scenario& sc,
                                 std::uint64_t seed) {
    Rng rng(seed);
    return sim::make_scenario_link(sc, rng);
  }

  TrackerContext context(Rng& rng) const {
    TrackerContext ctx;
    ctx.link = &link;
    ctx.tx_codebook = &books.tx;
    ctx.rx_codebook = &books.rx;
    ctx.gamma = sc.gamma;
    ctx.fades = 64;  // average fading down so argmaxes are stable
    ctx.rng = &rng;
    return ctx;
  }

  index_t pairs() const { return books.tx.size() * books.rx.size(); }

  real oracle_gain() const {
    real best = 0.0;
    for (index_t t = 0; t < books.tx.size(); ++t)
      for (index_t r = 0; r < books.rx.size(); ++r)
        best = std::max(best, link.mean_pair_gain(books.tx.codeword(t),
                                                  books.rx.codeword(r)));
    return best;
  }

  real pair_gain(index_t t, index_t r) const {
    return link.mean_pair_gain(books.tx.codeword(t), books.rx.codeword(r));
  }
};

real loss_db(const Rig& rig, index_t t, index_t r) {
  return 10.0 * std::log10(rig.oracle_gain() /
                           std::max(rig.pair_gain(t, r), real(1e-12)));
}

TEST(TrackerFactoryTest, NamesMatchKinds) {
  EXPECT_STREQ(tracker_name(TrackerKind::kColdStart), "cold_start");
  EXPECT_STREQ(tracker_name(TrackerKind::kWarmMl), "warm_ml");
  EXPECT_STREQ(tracker_name(TrackerKind::kNeighborhood), "neighborhood");
  EXPECT_STREQ(tracker_name(TrackerKind::kBanditUcb), "bandit_ucb");
  for (const TrackerKind k :
       {TrackerKind::kColdStart, TrackerKind::kWarmMl,
        TrackerKind::kNeighborhood, TrackerKind::kBanditUcb}) {
    const auto tracker = make_tracker(k, TrackerOptions{});
    ASSERT_NE(tracker, nullptr);
    EXPECT_EQ(tracker->name(), tracker_name(k));
  }
}

TEST(ColdStartTrackerTest, SweepsEveryEpochAndFindsAGoodPair) {
  const Rig rig;
  auto tracker = make_tracker(TrackerKind::kColdStart, TrackerOptions{});
  tracker->reset();
  Rng rng = Rng::stream(1, 2, 3, 4);
  for (index_t e = 0; e < 3; ++e) {
    const TrackerContext ctx = rig.context(rng);
    const TrackerReport r = tracker->step(ctx);
    EXPECT_EQ(r.probes, rig.pairs());
    EXPECT_TRUE(r.realigned);
    EXPECT_LE(loss_db(rig, r.tx_beam, r.rx_beam), 3.0);
  }
}

TEST(WarmMlTrackerTest, SteadyStateIsOneVerifyProbe) {
  const Rig rig;
  auto tracker = make_tracker(TrackerKind::kWarmMl, TrackerOptions{});
  tracker->reset();
  Rng rng = Rng::stream(2, 3, 4, 5);
  // Bootstrap epoch: a full acquisition sweep.
  TrackerContext ctx = rig.context(rng);
  TrackerReport r = tracker->step(ctx);
  EXPECT_TRUE(r.realigned);
  EXPECT_EQ(r.probes, rig.pairs());
  // Steady state: one probe, no re-alignment, stable claim.
  for (index_t e = 0; e < 4; ++e) {
    r = tracker->step(ctx);
    EXPECT_EQ(r.probes, 1u);
    EXPECT_FALSE(r.realigned);
    EXPECT_FALSE(r.outage);
  }
  EXPECT_LE(loss_db(rig, r.tx_beam, r.rx_beam), 3.0);
}

TEST(WarmMlTrackerTest, CollapseTriggersOutageAndWarmReentry) {
  const Rig rig;
  TrackerOptions opt;
  auto tracker = make_tracker(TrackerKind::kWarmMl, opt);
  tracker->reset();
  Rng rng = Rng::stream(3, 4, 5, 6);
  TrackerContext ctx = rig.context(rng);
  (void)tracker->step(ctx);  // bootstrap

  // Collapse the channel: same geometry, dominant power crushed 40 dB.
  std::vector<channel::Path> paths = rig.link.paths();
  for (channel::Path& p : paths) p.power *= 1e-4;
  const channel::Link blocked(antenna::ArrayGeometry::upa(2, 2),
                              antenna::ArrayGeometry::upa(4, 4), paths);
  TrackerContext down = ctx;
  down.link = &blocked;
  const TrackerReport r = tracker->step(down);
  EXPECT_TRUE(r.outage);
  EXPECT_EQ(r.probes, 1u);  // the verify probe that failed

  // Re-entry epochs spend warm alignment slots, not full sweeps.
  const TrackerReport re = tracker->step(ctx);
  EXPECT_TRUE(re.realigned);
  EXPECT_LT(re.probes, rig.pairs());
  EXPECT_GT(re.probes, 0u);
}

TEST(NeighborhoodTrackerTest, CollapseEscalatesWindowThenFullSweep) {
  const Rig rig;
  TrackerOptions opt;
  auto tracker = make_tracker(TrackerKind::kNeighborhood, opt);
  tracker->reset();
  Rng rng = Rng::stream(4, 5, 6, 7);
  TrackerContext ctx = rig.context(rng);
  TrackerReport r = tracker->step(ctx);  // acquisition sweep
  EXPECT_EQ(r.probes, rig.pairs());
  r = tracker->step(ctx);  // steady verify
  EXPECT_EQ(r.probes, 1u);
  EXPECT_FALSE(r.outage);

  // A 40 dB collapse the window cannot explain: the widening scan runs,
  // finds nothing above threshold, and escalates to the full-sweep
  // fallback — so probes exceed a bare sweep (verify + window + sweep).
  std::vector<channel::Path> paths = rig.link.paths();
  for (channel::Path& p : paths) p.power *= 1e-4;
  const channel::Link blocked(antenna::ArrayGeometry::upa(2, 2),
                              antenna::ArrayGeometry::upa(4, 4), paths);
  TrackerContext down = ctx;
  down.link = &blocked;
  const TrackerReport out = tracker->step(down);
  EXPECT_TRUE(out.outage);
  EXPECT_TRUE(out.realigned);
  EXPECT_GT(out.probes, rig.pairs());
}

TEST(BanditTrackerTest, SteadyStateSpendsBanditProbes) {
  const Rig rig;
  TrackerOptions opt;
  opt.bandit_probes = 2;
  auto tracker = make_tracker(TrackerKind::kBanditUcb, opt);
  tracker->reset();
  Rng rng = Rng::stream(5, 6, 7, 8);
  TrackerContext ctx = rig.context(rng);
  TrackerReport r = tracker->step(ctx);  // seeding sweep
  EXPECT_EQ(r.probes, rig.pairs());
  for (index_t e = 0; e < 6; ++e) {
    r = tracker->step(ctx);
    EXPECT_EQ(r.probes, 2u);
  }
  EXPECT_LE(loss_db(rig, r.tx_beam, r.rx_beam), 6.0);
}

TEST(TrackerDeterminismTest, IdenticalStreamsYieldIdenticalRuns) {
  const Rig rig;
  for (const TrackerKind k :
       {TrackerKind::kColdStart, TrackerKind::kWarmMl,
        TrackerKind::kNeighborhood, TrackerKind::kBanditUcb}) {
    SCOPED_TRACE(tracker_name(k));
    auto a = make_tracker(k, TrackerOptions{});
    auto b = make_tracker(k, TrackerOptions{});
    a->reset();
    b->reset();
    for (index_t e = 0; e < 8; ++e) {
      // The engine's stream discipline: a fresh epoch-keyed Rng per step.
      Rng ra = Rng::stream(7, 1, 2, e);
      Rng rb = Rng::stream(7, 1, 2, e);
      const TrackerContext ca = rig.context(ra);
      const TrackerContext cb = rig.context(rb);
      const TrackerReport x = a->step(ca);
      const TrackerReport y = b->step(cb);
      ASSERT_EQ(x.tx_beam, y.tx_beam) << "epoch " << e;
      ASSERT_EQ(x.rx_beam, y.rx_beam) << "epoch " << e;
      ASSERT_EQ(x.probes, y.probes) << "epoch " << e;
      ASSERT_EQ(x.realigned, y.realigned) << "epoch " << e;
      ASSERT_EQ(x.outage, y.outage) << "epoch " << e;
    }
    const BeamState sa = a->export_state();
    const BeamState sb = b->export_state();
    ASSERT_EQ(sa.components.size(), sb.components.size());
    if (!sa.components.empty())
      EXPECT_EQ(std::memcmp(sa.components.data(), sb.components.data(),
                            sa.components.size() *
                                sizeof(estimation::BeamComponent)),
                0);
  }
}

TEST(TrackerHandoverTest, ExportImportExportIsByteStable) {
  // The codec round-trip invariant: importing an exported state and
  // exporting again reproduces the component list byte for byte (tx/rx
  // carry over too; trained energy intentionally resets to a hypothesis).
  const Rig rig;
  for (const TrackerKind k :
       {TrackerKind::kColdStart, TrackerKind::kWarmMl,
        TrackerKind::kNeighborhood, TrackerKind::kBanditUcb}) {
    SCOPED_TRACE(tracker_name(k));
    auto source = make_tracker(k, TrackerOptions{});
    source->reset();
    Rng rng = Rng::stream(11, 1, 2, 3);
    for (index_t e = 0; e < 3; ++e) {
      Rng step_rng = Rng::stream(11, 1, 2, e);
      const TrackerContext ctx = rig.context(step_rng);
      (void)source->step(ctx);
    }
    const BeamState exported = source->export_state();
    ASSERT_FALSE(exported.components.empty());
    // Canonical form: ascending beams, positive weights.
    for (std::size_t i = 0; i + 1 < exported.components.size(); ++i)
      EXPECT_LT(exported.components[i].beam,
                exported.components[i + 1].beam);
    for (const estimation::BeamComponent& c : exported.components)
      EXPECT_GT(c.weight, 0.0f);

    auto target = make_tracker(k, TrackerOptions{});
    target->reset();
    target->import_state(exported);
    const BeamState round = target->export_state();
    EXPECT_EQ(round.tx_beam, exported.tx_beam);
    EXPECT_EQ(round.rx_beam, exported.rx_beam);
    ASSERT_EQ(round.components.size(), exported.components.size());
    EXPECT_EQ(std::memcmp(round.components.data(),
                          exported.components.data(),
                          round.components.size() *
                              sizeof(estimation::BeamComponent)),
              0);
  }
}

TEST(TrackerHandoverTest, ImportedPriorIsAHypothesisNotAClaim) {
  // A tracker re-entering from a carried state must re-verify before
  // trusting the pair: the first post-import step spends probes.
  const Rig rig;
  for (const TrackerKind k :
       {TrackerKind::kWarmMl, TrackerKind::kNeighborhood,
        TrackerKind::kBanditUcb}) {
    SCOPED_TRACE(tracker_name(k));
    auto source = make_tracker(k, TrackerOptions{});
    source->reset();
    Rng boot = Rng::stream(13, 1, 2, 0);
    TrackerContext ctx = rig.context(boot);
    (void)source->step(ctx);

    auto target = make_tracker(k, TrackerOptions{});
    target->reset();
    target->import_state(source->export_state());
    Rng rng = Rng::stream(13, 1, 2, 1);
    TrackerContext re = rig.context(rng);
    const TrackerReport r = target->step(re);
    EXPECT_GT(r.probes, 0u);
    // And no full cold sweep either — the prior is supposed to save that
    // (cold_start excluded above: re-sweeping is its contract).
    EXPECT_LT(r.probes, rig.pairs());
  }
}

TEST(TrackerPolicyTest, CursorProbesMatchLegacySweepShape) {
  // append_cursor_probes is the serving engine's historical RX-fill loop;
  // PR-9 byte-compatibility rides on this exact sequence.
  std::vector<index_t> out;
  append_cursor_probes(5, 0, 8, 3, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 5u);  // (5 + 0) % 8
  EXPECT_EQ(out[1], 6u);
  EXPECT_EQ(out[2], 7u);
  out.clear();
  append_cursor_probes(6, 6, 8, 2, out);
  EXPECT_EQ(out[0], 4u);  // (6 + 6) % 8
  EXPECT_EQ(out[1], 5u);
}

}  // namespace
}  // namespace mmw::track
