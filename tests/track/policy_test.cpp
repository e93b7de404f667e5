// track::align_slot (src/track/policy.h) on its own, over J ∈ {1, 2, 8, 16}
// on a 16-beam RX codebook, from an empty and a non-empty prior, under
// both folds: the probe set, the probe energies and draw order, and the
// fold are each recomputed here from the pieces the slot is built from.
#include "track/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/scenario.h"

namespace mmw::track {
namespace {

using estimation::BeamComponent;
using randgen::Rng;

struct SlotRig {
  sim::Scenario sc = make_scenario();
  sim::CodebookPair books = sim::make_scenario_codebooks(sc);
  channel::Link link = make_link(sc);

  static sim::Scenario make_scenario() {
    sim::Scenario sc;
    sc.channel = sim::ChannelKind::kNycMultipath;
    sc.tx_grid_x = 2;
    sc.tx_grid_y = 2;
    sc.rx_grid_x = 4;
    sc.rx_grid_y = 4;
    return sc;
  }

  static channel::Link make_link(const sim::Scenario& sc) {
    Rng rng(21);
    return sim::make_scenario_link(sc, rng);
  }

  mac::ProbeView view() const {
    mac::ProbeView v;
    v.link = &link;
    v.tx_codebook = &books.tx;
    v.rx_codebook = &books.rx;
    v.gamma = 100.0;
    v.blockage_probability = 0.1;  // one more draw per probe to keep in step
    return v;
  }
};

/// The slot's RX picks, derived from the spec: the top J − 1 positive
/// prior scores (the top one when J = 1) in (score desc, beam asc) order,
/// then the cursor sweep from (key + cursor) mod N skipping taken beams,
/// sorted ascending.
std::vector<index_t> expected_probes(const SlotRig& rig,
                                     const std::vector<BeamComponent>& prior,
                                     const SlotSpec& spec) {
  const index_t n = rig.books.rx.size();
  const index_t j = std::min(spec.probes, n);
  std::vector<index_t> picks;
  const linalg::FactoredHermitian q =
      estimation::expand_beam_space(prior, rig.books.rx);
  if (!q.empty()) {
    std::vector<real> scores(n);
    rig.books.rx.covariance_scores_into(q, scores);
    std::vector<index_t> order(n);
    for (index_t v = 0; v < n; ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return scores[a] > scores[b];
    });
    const index_t count = j > 1 ? j - 1 : 1;
    for (const index_t v : order)
      if (picks.size() < count && scores[v] > 0.0) picks.push_back(v);
  }
  for (index_t k = 0; picks.size() < j; ++k) {
    const index_t v = (spec.cursor_key + spec.cursor + k) % n;
    if (std::find(picks.begin(), picks.end(), v) == picks.end())
      picks.push_back(v);
  }
  std::sort(picks.begin(), picks.end());
  return picks;
}

void expect_same_components(const std::vector<BeamComponent>& a,
                            const std::vector<BeamComponent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].beam, b[i].beam) << "component " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << "component " << i;
  }
}

struct SlotCase {
  index_t j;
  bool with_prior;
  SlotFold fold;
};

void PrintTo(const SlotCase& c, std::ostream* os) {
  *os << "J" << c.j << (c.with_prior ? "_prior" : "_empty")
      << (c.fold == SlotFold::kWarmMl ? "_warm_ml" : "_beam_space");
}

std::vector<SlotCase> all_cases() {
  std::vector<SlotCase> cases;
  for (const index_t j : {1, 2, 8, 16})
    for (const bool with_prior : {false, true})
      for (const SlotFold fold : {SlotFold::kBeamSpace, SlotFold::kWarmMl})
        cases.push_back({j, with_prior, fold});
  return cases;
}

class AlignSlotProperty : public ::testing::TestWithParam<SlotCase> {};

TEST_P(AlignSlotProperty, MatchesItsPieces) {
  const auto [j, with_prior, fold] = GetParam();
  const SlotRig rig;
  const mac::ProbeView view = rig.view();
  const std::vector<BeamComponent> prior =
      with_prior ? std::vector<BeamComponent>{{2, 1.5}, {9, 0.4}, {13, 0.1}}
                 : std::vector<BeamComponent>{};
  SlotSpec spec;
  spec.tx_beam = 3;
  spec.probes = j;
  spec.cursor_key = 5;
  spec.cursor = 11;
  spec.fades = 3;
  spec.fold = fold;
  spec.noise_var = 0.05;  // deliberately not 1/view.gamma

  std::vector<BeamComponent> components = prior;
  Rng rng = Rng::stream(3, 1, 4, 1);
  Rng replay = rng;
  SlotScratch scratch;
  const bool converged = align_slot(view, spec, components, rng, scratch);

  // Exactly J beams, ascending, no repeats, the spec's picks.
  ASSERT_EQ(scratch.probe_rx.size(), j);
  for (std::size_t i = 0; i + 1 < scratch.probe_rx.size(); ++i)
    EXPECT_LT(scratch.probe_rx[i], scratch.probe_rx[i + 1]);
  EXPECT_EQ(scratch.probe_rx, expected_probes(rig, prior, spec));

  // The energies are mac::probe_energy over those beams in order, and the
  // slot drew nothing else from the stream.
  linalg::Vector fade(rig.link.rx_size());
  std::vector<real> energies;
  for (const index_t r : scratch.probe_rx)
    energies.push_back(
        mac::probe_energy(view, spec.tx_beam, r, spec.fades, replay, fade));
  EXPECT_EQ(scratch.probe_energy, energies);
  EXPECT_EQ(rng.uniform(), replay.uniform());

  if (fold == SlotFold::kBeamSpace) {
    std::vector<BeamComponent> excess;
    for (index_t i = 0; i < j; ++i)
      if (energies[i] - spec.noise_var > 0.0)
        excess.push_back({scratch.probe_rx[i], energies[i] - spec.noise_var});
    expect_same_components(
        components,
        estimation::merge_beam_space(prior, TrackerOptions::forgetting, excess,
                                     TrackerOptions::max_components));
    EXPECT_TRUE(converged);
  } else {
    std::vector<estimation::BeamMeasurement> meas;
    for (index_t i = 0; i < j; ++i)
      meas.push_back(
          {rig.books.rx.codeword(scratch.probe_rx[i]), energies[i]});
    std::vector<real> scores(rig.books.rx.size());
    const estimation::WarmMlFold want = estimation::fold_warm_ml(
        prior, estimation::expand_beam_space(prior, rig.books.rx), meas,
        view.gamma, TrackerOptions::forgetting, rig.books.rx,
        TrackerOptions::max_components, scores);
    expect_same_components(components, want.components);
    EXPECT_EQ(converged, want.converged);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlignSlotProperty,
                         ::testing::ValuesIn(all_cases()));

TEST(AlignSlotTest, ClampsJToTheCodebook) {
  const SlotRig rig;
  SlotSpec spec;
  spec.probes = 40;
  std::vector<BeamComponent> components;
  Rng rng(4);
  SlotScratch scratch;
  align_slot(rig.view(), spec, components, rng, scratch);
  ASSERT_EQ(scratch.probe_rx.size(), rig.books.rx.size());
  for (index_t v = 0; v < scratch.probe_rx.size(); ++v)
    EXPECT_EQ(scratch.probe_rx[v], v);
}

}  // namespace
}  // namespace mmw::track
