// The tracking lifecycle's shared core, used by the serving engine
// (serve::ServingEngine::step_align) and the warm-ML tracker
// (track/tracker.h): the constants both run with, the two deterministic RX
// probe selectors, and one covariance-directed alignment slot. Everything
// here is stateless — a pure function of its inputs and the caller's Rng —
// so a 96-byte resident UserSession (serve/) and a heap-backed Tracker run
// the same slot over their own copy of the state: the session's cursor and
// beam fields ARE the tracker state.
//
// A slot (align_slot) picks its J RX probes in two steps:
// antenna::rank_beams takes the top J − 1 positive Rayleigh scores of the
// prior covariance, then append_cursor_probes tops the set up with
// sequential exploration. It probes them in ascending order and folds the
// energies back into the resident beam-space list.
#pragma once

#include <cstdint>
#include <vector>

#include "estimation/beamspace.h"
#include "mac/probe.h"

namespace mmw::track {

/// The tracking constants, each defined once. No caller tunes them; the
/// serving engine shares collapse_db, forgetting and max_components
/// (ServeConfig::collapse_db, ServeConfig::forgetting,
/// serve::kMaxComponents).
struct TrackerOptions {
  // -- verify/re-align (warm + neighborhood; serve) -------------------------
  static constexpr real collapse_db = mac::kCollapseDb;  ///< outage depth
  static constexpr real forgetting = 0.7;  ///< beam-space merge across slots
  static constexpr index_t max_components = 6;   ///< resident budget
  static constexpr index_t probes_per_slot = 8;  ///< J per warm slot
  static constexpr index_t align_slots = 2;  ///< warm slots before a claim
  // -- neighborhood window --------------------------------------------------
  static constexpr index_t widen_radius = 2;  ///< radius growth per retry
  static constexpr index_t max_retries = 2;   ///< before the full sweep
  // -- bandit ---------------------------------------------------------------
  static constexpr index_t bandit_probes = 2;      ///< arms pulled per epoch
  static constexpr real ucb_c = 2.0;               ///< exploration weight
  static constexpr real bandit_forgetting = 0.98;  ///< per-epoch arm decay
  static constexpr real neighbor_coupling = 0.5;   ///< adjacent-arm share
};

/// Cursor-sweep candidates: appends probes (user_key + cursor + i) mod n_rx,
/// skipping indices already in `out`, until out has `want` entries.
/// Preconditions: want ≤ n_rx, n_rx ≥ 1.
void append_cursor_probes(std::uint64_t user_key, std::uint64_t cursor,
                          index_t n_rx, index_t want,
                          std::vector<index_t>& out);

/// How align_slot folds a slot's energies into the resident list.
enum class SlotFold : std::uint8_t {
  kBeamSpace,  ///< (energy − noise_var)₊ excess, merged with forgetting
  kWarmMl,     ///< estimation::fold_warm_ml at the view's SNR
};

/// One slot's inputs besides the link and the resident list.
struct SlotSpec {
  index_t tx_beam = 0;           ///< the slot's TX dwell beam
  index_t probes = 1;            ///< J, clamped to the RX codebook size
  std::uint64_t cursor_key = 0;  ///< append_cursor_probes' user_key
  std::uint64_t cursor = 0;      ///< append_cursor_probes' cursor
  index_t fades = 1;             ///< fades averaged per probe
  SlotFold fold = SlotFold::kBeamSpace;
  real noise_var = 0.0;          ///< the kBeamSpace excess floor
};

/// Caller-owned scratch of align_slot, reused across slots. On return
/// probe_rx holds the slot's RX probes (ascending, exactly J of them) and
/// probe_energy their energies in the same order.
struct SlotScratch {
  std::vector<index_t> probe_rx;
  std::vector<real> probe_energy;
  std::vector<real> scores;
  std::vector<estimation::BeamMeasurement> measurements;
  std::vector<estimation::BeamComponent> update;
  linalg::Vector fade;
};

/// One covariance-directed alignment slot over the resident list
/// `components` (canonical order; replaced by the folded list). Expands it
/// once, scores the RX codebook, picks the top J − 1 covariance probes and
/// the cursor probes, probes each in ascending order on spec.tx_beam through
/// mac::probe_energy (drawing from `rng` in that order), and folds the
/// energies back with TrackerOptions::forgetting into at most
/// TrackerOptions::max_components components. Returns the fold's
/// convergence label: the ML solve's under kWarmMl, true under kBeamSpace.
bool align_slot(const mac::ProbeView& view, const SlotSpec& spec,
                std::vector<estimation::BeamComponent>& components,
                randgen::Rng& rng, SlotScratch& scratch);

}  // namespace mmw::track
