// Resident per-user state of the serving engine — the ONLY thing the
// engine keeps per session between epochs.
//
// The city-scale contract (DESIGN.md §13) is that resident memory is a hard
// per-session byte budget times the live-session count, independent of the
// array sizes, the codebook sizes, and the epoch count. So a UserSession
// holds no link, no codebook, no measurement records, and no N-dimensional
// vector: the channel is rebuilt on demand from the session's deterministic
// RNG identity stream (seed, site, user_key), and the covariance estimate
// lives in beam-space component form (estimation/beamspace.h) — at most
// kMaxComponents (codeword index, weight) pairs — instead of any {B, Q_r}
// factor, whose O(N·r) basis alone would blow the budget a thousand times
// over at N = 64.
//
// The struct is a trivially-copyable POD with no heap members so the slab
// pool (serve/slab.h) can hold millions of them in flat arrays with zero
// per-session allocations.
#pragma once

#include <cstdint>
#include <type_traits>

#include "linalg/common.h"
#include "track/policy.h"

namespace mmw::serve {

/// Beam-space covariance components kept per session (r in the paper's
/// low-rank story; 6 covers the NYC multipath clusters with room to spare)
/// — the trackers' budget too.
inline constexpr index_t kMaxComponents =
    track::TrackerOptions::max_components;

/// Hard resident-memory budget per session, enforced at compile time below
/// and re-checked against the slab pool's accounting in the E9 bench
/// manifest. Headroom over sizeof(UserSession) is deliberate: it is the
/// budget a field addition must fit in before the slab math changes.
inline constexpr std::size_t kSessionByteBudget = 96;

/// Sentinel departure epoch: the session never leaves on its own.
inline constexpr std::uint32_t kNoDeparture = 0xffffffffu;

/// One resident alignment session. All randomness the session ever
/// consumes is derived from (master seed, its site, user_key, epoch) — no
/// field here feeds an RNG — so a session's trajectory is a pure function
/// of its own identity and the epoch clock, never of its neighbours
/// (the churn-invariance contract, tests/serve/serve_test.cpp).
struct UserSession {
  /// Per-site arrival ordinal, assigned serially at admission; the RNG
  /// identity key that regenerates the drop, the channel, and the sojourn.
  std::uint64_t user_key = 0;

  std::uint32_t birth_epoch = 0;
  /// First epoch the session no longer participates in (kNoDeparture =
  /// immortal). Drawn at admission from the identity stream.
  std::uint32_t departure_epoch = kNoDeparture;
  /// Measurement-slot ledger cursor: total training slots consumed, the
  /// serving analogue of mac::Session::measurements_taken().
  std::uint32_t cursor = 0;

  /// Largest mean pair gain over the codebook product (linear), fixed at
  /// admission — the grading oracle reduced to the one number loss needs.
  float optimal_gain = 0.0f;
  /// Mean pair gain of the claimed pair (linear; valid when !aligning).
  float claimed_gain = 0.0f;
  /// Effective noise variance 1/γ_eff with the serving pathloss folded in.
  float noise_var = 0.0f;
  /// While aligning: best probe energy observed so far (< 0 = none yet).
  /// While tracking: the claimed pair's trained energy — the outage
  /// reference of the collapse test.
  float trained_energy = -1.0f;

  /// Claimed (tracking) or best-so-far (aligning) beam pair.
  std::uint16_t tx_beam = 0;
  std::uint16_t rx_beam = 0;

  /// Beam-space covariance: comp_weight[i] on RX codeword comp_beam[i],
  /// entries [0, rank) strictly ascending by beam index (the canonical
  /// order of estimation/beamspace.h).
  std::uint16_t comp_beam[kMaxComponents] = {};

  /// 1 while the session spends epochs on alignment slots; 0 once it has
  /// claimed a pair and dropped to the O(1) tracking fast path.
  std::uint8_t aligning = 1;
  std::uint8_t slots_aligned = 0;  ///< alignment slots completed this phase
  std::uint8_t rank = 0;           ///< live beam-space components
  std::uint8_t realigns = 0;       ///< outage-triggered re-alignments (sat.)

  float comp_weight[kMaxComponents] = {};
};

static_assert(std::is_trivially_copyable_v<UserSession>);
static_assert(sizeof(UserSession) <= kSessionByteBudget,
              "UserSession outgrew the per-session resident byte budget");

}  // namespace mmw::serve
