// Beam codebooks: finite sets of unit-norm beamforming vectors arranged on a
// 2-D grid, with the spatial-adjacency structure the Scan baseline needs.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "antenna/geometry.h"
#include "linalg/factored.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mmw::antenna {

/// A beam codebook: the finite sets U (TX) and V (RX) of the paper.
///
/// Codewords sit on a gx × gy grid (index = x·gy + y), which defines the
/// "spatially adjacent" relation used by raster scanning. Two constructions:
///
///  - `dft(geometry)`: the orthonormal DFT codebook (the Kronecker product
///    of per-axis DFT bases for a UPA). Spatial frequencies are circular, so
///    grid adjacency wraps around.
///  - `angular_grid(geometry, n_az, n_el, …)`: steering vectors on a uniform
///    grid of physical angles (an oversampled codebook); no wraparound.
class Codebook {
 public:
  static Codebook dft(const ArrayGeometry& geometry);

  static Codebook angular_grid(const ArrayGeometry& geometry, index_t n_az,
                               index_t n_el, real az_min = -M_PI / 2,
                               real az_max = M_PI / 2,
                               real el_min = -M_PI / 3,
                               real el_max = M_PI / 3);

  index_t size() const { return codewords_.size(); }
  const linalg::Vector& codeword(index_t i) const { return codewords_[i]; }

  /// The codewords packed as a split-complex structure-of-arrays panel
  /// (linalg::kernels::SoAComplex): column v is codeword v, row i streams
  /// element i of every codeword — the layout the batched scoring kernels
  /// read. Built once at construction and immutable afterwards, so the
  /// panel may be read concurrently from any number of threads; it aliases
  /// nothing (it is a copy of the codewords, not a view into them).
  const linalg::kernels::SoAComplex& packed() const { return packed_; }

  index_t grid_x() const { return grid_x_; }
  index_t grid_y() const { return grid_y_; }
  bool wraps() const { return wraps_; }

  /// Grid coordinates of codeword i.
  std::pair<index_t, index_t> coordinates(index_t i) const;

  /// 4-neighbourhood of codeword i on the grid (wrapping when wraps()).
  std::vector<index_t> neighbors(index_t i) const;

  /// Codeword index maximizing |c_iᴴ v| — the codebook quantization of an
  /// arbitrary beamforming vector (used to map an eigen-beam into V).
  index_t best_match(const linalg::Vector& v) const;

  /// Rayleigh quotients c_iᴴ Q c_i for every codeword. The factored
  /// overload scores through the projected panel Bᴴ C — O(|V|·N·r +
  /// |V|·r²) instead of the dense form's O(|V|·N²) — which is the per-slot
  /// hot path of the alignment strategies. Both overloads run the batched
  /// SoA kernels (linalg/kernels.h) over packed(); results are
  /// bit-identical to per-codeword FactoredHermitian::rayleigh /
  /// hermitian_form (the kernel layer's equivalence contract).
  std::vector<real> covariance_scores(const linalg::Matrix& q) const;
  std::vector<real> covariance_scores(
      const linalg::FactoredHermitian& q) const;

  /// Allocation-free variants: write the scores into caller-owned storage
  /// (kernel workspace comes from the calling thread's scoring workspace).
  /// Feedback loops that score every slot should reuse one buffer across
  /// slots. `out` must not alias the codebook's storage.
  /// Preconditions: out.size() == size(); q sized to the codewords.
  void covariance_scores_into(const linalg::Matrix& q,
                              std::span<real> out) const;
  void covariance_scores_into(const linalg::FactoredHermitian& q,
                              std::span<real> out) const;

  /// Boustrophedon (serpentine) visiting order of the grid: consecutive
  /// entries are always grid-adjacent. Scan baselines walk this order.
  std::vector<index_t> serpentine_order() const;

  /// Hardware-constrained copy of this codebook: every codeword element is
  /// forced to constant modulus 1/√N with its phase rounded to 2^bits
  /// levels — the analog phase-shifter front end the paper's "low
  /// complexity analog beamforming" assumes (Sec. III-A). Grid structure is
  /// preserved. Precondition: 1 ≤ bits ≤ 16.
  Codebook with_quantized_phases(index_t bits) const;

 private:
  Codebook(std::vector<linalg::Vector> codewords, index_t gx, index_t gy,
           bool wraps)
      : codewords_(std::move(codewords)),
        packed_(linalg::kernels::SoAComplex::pack_columns(codewords_)),
        grid_x_(gx),
        grid_y_(gy),
        wraps_(wraps) {}

  std::vector<linalg::Vector> codewords_;
  linalg::kernels::SoAComplex packed_;  ///< SoA copy for the batched kernels
  index_t grid_x_ = 0;
  index_t grid_y_ = 0;
  bool wraps_ = false;
};

/// rank_beams' floor under which every non-NaN score above −∞ ranks.
inline constexpr real kNoFloor = -std::numeric_limits<real>::infinity();

/// The one beam-ranking rule. Appends to `out`, best first, up to `count`
/// indices i with scores[i] > floor and admit(i): Algorithm 1's J − 1
/// probes and J-th pick (paper Sec. IV-B), the tracking slot, the bandit's
/// pulls and the beam-space codec all rank through it. Equal scores go to
/// the lowest index, so the ranking is a pure function of the scores —
/// independent of standard-library sort internals — which the bit-exact
/// determinism contract (DESIGN.md §7) relies on. NaN never ranks.
/// count == 1 is one linear scan; larger counts filter into `out` and
/// partially sort, O(|scores| log count), never a full sort.
template <typename Admit>
void rank_beams(std::span<const real> scores, real floor, index_t count,
                Admit&& admit, std::vector<index_t>& out) {
  if (count == 0) return;
  if (count == 1) {
    index_t best = scores.size();
    real best_score = floor;
    for (index_t i = 0; i < scores.size(); ++i)
      if (scores[i] > best_score && admit(i)) {
        best = i;
        best_score = scores[i];
      }
    if (best < scores.size()) out.push_back(best);
    return;
  }
  const index_t base = out.size();
  out.reserve(base + scores.size());
  for (index_t i = 0; i < scores.size(); ++i)
    if (scores[i] > floor && admit(i)) out.push_back(i);
  const index_t keep = std::min(count, out.size() - base);
  std::partial_sort(out.begin() + base, out.begin() + base + keep, out.end(),
                    [&](index_t a, index_t b) {
                      return scores[a] != scores[b] ? scores[a] > scores[b]
                                                    : a < b;
                    });
  out.resize(base + keep);
}

inline void rank_beams(std::span<const real> scores, real floor,
                       index_t count, std::vector<index_t>& out) {
  rank_beams(scores, floor, count, [](index_t) { return true; }, out);
}

}  // namespace mmw::antenna
