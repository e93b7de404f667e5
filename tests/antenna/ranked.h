// The beam ranking as a value: the tests' shorthand for antenna::rank_beams
// over a score vector (Codebook::covariance_scores or a kernel's output).
#pragma once

#include <span>
#include <vector>

#include "antenna/codebook.h"

namespace mmw::antenna {

/// The best `count` indices of `scores`, best first, under rank_beams with
/// no floor: equal scores go to the lowest index, NaN never ranks.
inline std::vector<index_t> ranked(std::span<const real> scores,
                                   index_t count) {
  std::vector<index_t> out;
  rank_beams(scores, kNoFloor, count, out);
  return out;
}

}  // namespace mmw::antenna
