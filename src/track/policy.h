// Deterministic RX probe-selection policies shared by the tracking layer
// and the serving engine. Each selector is a pure function of its inputs —
// no RNG, no hidden state — so a 96-byte resident UserSession (serve/) can
// run the same selection logic as a heap-backed Tracker (track/tracker.h):
// the session's cursor/beam fields ARE the tracker state.
//
// A covariance-directed alignment slot (the paper's measurement) picks its
// J RX probes in two steps: append_covariance_probes takes the top J − 1
// codewords of the prior covariance's Rayleigh scores, then
// append_cursor_probes tops the set up with sequential exploration.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/common.h"

namespace mmw::track {

/// Covariance-directed candidates: appends, highest score first, up to
/// `count` indices v of `scores` that are not already in `out`. Only
/// positive scores qualify (zero, negative and NaN never do), so the picks
/// stop early once the positive mass runs out; equal scores go to the
/// lowest index.
void append_covariance_probes(std::span<const real> scores, index_t count,
                              std::vector<index_t>& out);

/// Cursor-sweep candidates: appends probes (user_key + cursor + i) mod n_rx,
/// skipping indices already in `out`, until out has `want` entries.
/// Preconditions: want ≤ n_rx, n_rx ≥ 1.
void append_cursor_probes(std::uint64_t user_key, std::uint64_t cursor,
                          index_t n_rx, index_t want,
                          std::vector<index_t>& out);

}  // namespace mmw::track
