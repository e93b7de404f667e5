// Tracker strategies: how a served user keeps a claimed beam pair good as
// the channel evolves underneath it (channel::LinkEvolution). Where
// core::AlignmentStrategy answers "align once from nothing inside a
// budget", a Tracker answers the steady-state question: each epoch it may
// spend a few probes, must report a servable pair, and decides for itself
// when the pair has collapsed and a re-alignment is worth the probes.
//
// The four implementations span the paper-adjacent design space:
//  - kColdStart: exhaustive re-sweep every epoch. The probe-cost upper
//    bound and loss lower bound the E10 bench grades everything against.
//  - kWarmMl: covariance-ML re-entry — verify one probe per epoch; on
//    collapse, re-align with covariance-directed slots warm-started from
//    the resident beam-space prior (track::align_slot, the serving
//    engine's alignment slot).
//  - kNeighborhood: verify one probe per epoch; on collapse, re-scan
//    widening Chebyshev windows around the last pair (mac::rescan_windows,
//    the loop of Session::verify_and_realign), falling back to a full
//    sweep.
//  - kBanditUcb: a correlated UCB bandit over beam pairs with exponential
//    forgetting and neighbor-discounted reward sharing; the arm prior is
//    seeded from the factored Q̂ beam scores carried through handover.
//
// Determinism: step() draws only from ctx.rng (the caller supplies the
// reserved track-measure stream per (tracker, user, epoch)), all ranking
// ties break toward the lowest index, and export_state() returns the
// canonical beam-space form — so two trackers fed identical contexts are
// bit-identical, which the engine's thread-count CSV contract rests on.
#pragma once

#include <memory>
#include <vector>

#include "antenna/codebook.h"
#include "channel/link.h"
#include "estimation/beamspace.h"
#include "randgen/rng.h"
#include "track/policy.h"

namespace mmw::track {

/// Session state a tracker carries across epochs — and across HANDOVER:
/// the beam-space component list is exactly the serving engine's resident
/// wire format (estimation/beamspace.h: ≤ max_components entries, ascending
/// beam order, u16-expressible beams + f32-expressible weights), so this is
/// what survives a site change. Everything else is rebuilt on re-entry.
struct BeamState {
  std::vector<estimation::BeamComponent> components;  ///< canonical order
  index_t tx_beam = 0;
  index_t rx_beam = 0;
  /// Matched-filter energy the pair trained at (−1 = nothing claimed yet).
  real trained_energy = -1.0;
};

/// Everything one tracking epoch needs; all pointers borrowed, non-null.
struct TrackerContext {
  const channel::Link* link = nullptr;
  const antenna::Codebook* tx_codebook = nullptr;
  const antenna::Codebook* rx_codebook = nullptr;
  /// Effective pre-beamforming SNR (pathloss folded in by the engine).
  real gamma = 1.0;
  /// Independent fades averaged per probe.
  index_t fades = 4;
  /// The epoch's measurement stream (reserved track-measure lane).
  randgen::Rng* rng = nullptr;
};

/// What one epoch of tracking did.
struct TrackerReport {
  index_t tx_beam = 0;
  index_t rx_beam = 0;
  index_t probes = 0;      ///< measurement probes spent this epoch
  bool realigned = false;  ///< spent probes re-deciding the pair
  bool outage = false;     ///< collapse test failed this epoch
};

enum class TrackerKind : std::uint8_t {
  kColdStart = 0,
  kWarmMl = 1,
  kNeighborhood = 2,
  kBanditUcb = 3,
};

/// A freshly built tracker is in the never-aligned state.
class Tracker {
 public:
  virtual ~Tracker() = default;
  /// One tracking epoch over the context's link.
  virtual TrackerReport step(const TrackerContext& ctx) = 0;
  /// Canonical beam-space snapshot (the handover wire format).
  virtual BeamState export_state() const = 0;
  /// Re-enters with a prior carried from another site: the tracker must
  /// treat the pair as a hypothesis (re-verify / re-align), not a claim.
  virtual void import_state(const BeamState& state) = 0;
};

const char* tracker_name(TrackerKind kind);

std::unique_ptr<Tracker> make_tracker(TrackerKind kind);

}  // namespace mmw::track
