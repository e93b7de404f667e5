#include "track/policy.h"

#include <algorithm>

namespace mmw::track {

namespace {

bool contains(const std::vector<index_t>& v, index_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

void append_covariance_probes(std::span<const real> scores, index_t count,
                              std::vector<index_t>& out) {
  for (index_t pick = 0; pick < count; ++pick) {
    index_t best = scores.size();
    real best_score = 0.0;
    for (index_t v = 0; v < scores.size(); ++v) {
      if (!(scores[v] > best_score)) continue;  // ties → lowest v
      if (contains(out, v)) continue;
      best = v;
      best_score = scores[v];
    }
    if (best == scores.size()) break;  // no positive mass left
    out.push_back(best);
  }
}

void append_cursor_probes(std::uint64_t user_key, std::uint64_t cursor,
                          index_t n_rx, index_t want,
                          std::vector<index_t>& out) {
  MMW_REQUIRE(n_rx >= 1 && want <= n_rx);
  index_t cand = static_cast<index_t>((user_key + cursor) %
                                      static_cast<std::uint64_t>(n_rx));
  while (out.size() < want) {
    while (contains(out, cand)) cand = (cand + 1) % n_rx;
    out.push_back(cand);
    cand = (cand + 1) % n_rx;
  }
}

}  // namespace mmw::track
