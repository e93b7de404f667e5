// Beam-space compact covariance codec (estimation/beamspace.h): the
// expand/compress/merge triple the serving engine's resident sessions are
// built on. The contracts under test are the ones src/serve/ relies on:
// exact round-trip for codeword-aligned covariances, canonical ascending
// beam order, lowest-beam tie-breaks, and pure-function determinism.
#include "estimation/beamspace.h"

#include <gtest/gtest.h>

#include <vector>

#include "antenna/codebook.h"
#include "antenna/geometry.h"

namespace mmw::estimation {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;

Codebook dft44() { return Codebook::dft(ArrayGeometry::upa(4, 4)); }

TEST(BeamSpace, ExpandEmptyListIsEmptyFactor) {
  const Codebook cb = dft44();
  EXPECT_TRUE(expand_beam_space({}, cb).empty());
  // Non-positive weights are skipped entirely.
  const std::vector<BeamComponent> zeros{{2, 0.0}, {5, -1.0}};
  EXPECT_TRUE(expand_beam_space(zeros, cb).empty());
}

TEST(BeamSpace, ExpandMatchesWeightedOuterProducts) {
  const Codebook cb = dft44();
  const std::vector<BeamComponent> comps{{1, 0.5}, {6, 2.0}, {11, 1.25}};
  const linalg::FactoredHermitian q = expand_beam_space(comps, cb);
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.dim(), cb.codeword(0).size());
  // DFT codewords are orthonormal, so the Rayleigh quotient at a named
  // codeword is exactly its weight, and zero at any other codeword.
  for (const auto& c : comps)
    EXPECT_NEAR(q.rayleigh(cb.codeword(c.beam)), c.weight, 1e-12);
  EXPECT_NEAR(q.rayleigh(cb.codeword(0)), 0.0, 1e-12);
  // trace(Σ w_i c_i c_iᴴ) = Σ w_i for unit-norm codewords.
  EXPECT_NEAR(q.trace(), 0.5 + 2.0 + 1.25, 1e-12);
}

TEST(BeamSpace, CompressInvertsExpandForAlignedComponents) {
  const Codebook cb = dft44();
  const std::vector<BeamComponent> comps{{3, 0.75}, {7, 3.0}, {12, 1.5}};
  const linalg::FactoredHermitian q = expand_beam_space(comps, cb);
  std::vector<real> scores(cb.size());
  const std::vector<BeamComponent> back = compress_to_beam_space(
      q, cb, static_cast<index_t>(comps.size()), scores);
  ASSERT_EQ(back.size(), comps.size());
  for (index_t i = 0; i < comps.size(); ++i) {
    EXPECT_EQ(back[i].beam, comps[i].beam);  // ascending beam order
    EXPECT_NEAR(back[i].weight, comps[i].weight, 1e-10);
  }
}

TEST(BeamSpace, CompressKeepsHeaviestAndOrdersAscending) {
  const Codebook cb = dft44();
  const std::vector<BeamComponent> comps{{2, 1.0}, {9, 4.0}, {14, 2.5}};
  const linalg::FactoredHermitian q = expand_beam_space(comps, cb);
  std::vector<real> scores(cb.size());
  const std::vector<BeamComponent> top2 =
      compress_to_beam_space(q, cb, 2, scores);
  ASSERT_EQ(top2.size(), 2u);
  // Heaviest two (beams 9 and 14), returned ascending.
  EXPECT_EQ(top2[0].beam, 9u);
  EXPECT_EQ(top2[1].beam, 14u);
}

TEST(BeamSpace, CompressScratchOverloadMatchesAllocating) {
  // A reused scratch buffer, left dirty by an unrelated pass, gives the
  // same components as a freshly allocated one.
  const Codebook cb = dft44();
  const std::vector<BeamComponent> comps{{0, 1.0}, {8, 2.0}};
  const linalg::FactoredHermitian q = expand_beam_space(comps, cb);
  const std::vector<BeamComponent> other{{5, 3.0}};
  std::vector<real> reused(cb.size(), 0.0);
  compress_to_beam_space(expand_beam_space(other, cb), cb, 2, reused);
  const auto a = compress_to_beam_space(q, cb, 2, reused);
  std::vector<real> fresh(cb.size(), 0.0);
  const auto b = compress_to_beam_space(q, cb, 2, fresh);
  ASSERT_EQ(a.size(), b.size());
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].beam, b[i].beam);
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

TEST(BeamSpace, MergeAppliesForgettingOverBeamUnion) {
  const std::vector<BeamComponent> prior{{1, 2.0}, {4, 1.0}};
  const std::vector<BeamComponent> update{{4, 3.0}, {9, 0.5}};
  const std::vector<BeamComponent> out =
      merge_beam_space(prior, 0.5, update, 6);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].beam, 1u);
  EXPECT_NEAR(out[0].weight, 1.0, 1e-15);  // 0.5·2.0
  EXPECT_EQ(out[1].beam, 4u);
  EXPECT_NEAR(out[1].weight, 3.5, 1e-15);  // 0.5·1.0 + 3.0
  EXPECT_EQ(out[2].beam, 9u);
  EXPECT_NEAR(out[2].weight, 0.5, 1e-15);
}

TEST(BeamSpace, MergeTruncatesToHeaviestInAscendingOrder) {
  const std::vector<BeamComponent> prior{{0, 0.1}, {3, 5.0}};
  const std::vector<BeamComponent> update{{7, 4.0}, {12, 0.2}};
  const std::vector<BeamComponent> out =
      merge_beam_space(prior, 1.0, update, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].beam, 3u);  // weight 5.0
  EXPECT_EQ(out[1].beam, 7u);  // weight 4.0
}

TEST(BeamSpace, MergeDropsVanishedComponents) {
  const std::vector<BeamComponent> prior{{2, 1.0}};
  // Full forgetting with an empty update leaves nothing.
  EXPECT_TRUE(merge_beam_space(prior, 0.0, {}, 6).empty());
}

}  // namespace
}  // namespace mmw::estimation
