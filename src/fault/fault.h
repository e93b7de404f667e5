// Deterministic fault injection for the alignment runtime.
//
// A FaultPlan is the complete, pre-drawn fault schedule of ONE trial:
// which measurement slots are dropped or corrupted, whether and when a
// blockage event hits the link, and which covariance solves are stressed.
// Drawing the whole schedule up front (instead of flipping coins inside
// the measurement chain) keeps two contracts intact:
//  - determinism: the plan comes from a reserved key range of the
//    three-key Rng::stream partition (DESIGN.md §9/§11), so any shard can
//    rebuild any trial's plan with no shared state and results stay
//    byte-identical for any thread count;
//  - fairness: every strategy evaluated on a trial faces the SAME fault
//    pattern, because the plan is a function of (seed, entity, trial)
//    only — not of how many random draws a strategy happens to consume.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/common.h"
#include "randgen/keylanes.h"
#include "randgen/rng.h"

namespace mmw::fault {

/// Fault-injection knobs, carried on sim::Scenario. All probabilities are
/// in [0, 1]; everything defaults to off, and a default FaultConfig is a
/// guaranteed no-op on every code path (the golden-figure byte-identity
/// contract relies on this).
struct FaultConfig {
  /// Probability that the trial suffers a blockage event: at a uniformly
  /// drawn onset slot the link's per-path mean powers drop suddenly
  /// (channel::blocked_link) and stay down for the rest of the trial.
  real blockage_probability = 0.0;
  /// Mean attenuation depth (dB) of a shadowed path; the per-path depth is
  /// jittered uniformly in [0.5, 1.5]× this value.
  static constexpr real blockage_attenuation_db = 20.0;
  /// Each path is shadowed independently with this probability (at least
  /// one path is always shadowed when the blockage event fires). Partial
  /// shadowing keeps multipath recovery via alternate beams possible.
  static constexpr real blockage_path_probability = 0.75;

  /// Per-measurement-slot probability of a heavy-tailed energy outlier:
  /// the recorded energy is multiplied by a Pareto(outlier_shape) spike of
  /// at least outlier_scale — a calibration glitch or interference burst.
  real outlier_probability = 0.0;
  static constexpr real outlier_shape = 1.5;   ///< Pareto tail index (> 1)
  static constexpr real outlier_scale = 10.0;  ///< minimum spike multiplier

  /// Per-measurement-slot probability that the slot is lost outright (the
  /// sync/control channel dropped): the radio records zero energy and the
  /// measurement chain consumes NO random draws for the slot.
  real drop_probability = 0.0;

  /// Per-covariance-solve probability of forced solver stress: the primary
  /// estimator runs with a starved iteration budget (a real-time deadline
  /// abort) and is treated as failed, engaging the degradation ladder
  /// (estimation::robust_estimate_covariance).
  real solver_stress_probability = 0.0;

  /// Monte-Carlo driver behavior: when true, a trial/shard that throws is
  /// recorded and excluded from the reduction (sim.trials.quarantined)
  /// instead of aborting the whole run. Orthogonal to the injection knobs
  /// above — it may be set alone to harden a clean run.
  bool quarantine_trials = false;

  /// True when any fault is actually injected (quarantine alone is not an
  /// injection: it changes error handling, not the data).
  bool any() const {
    return blockage_probability > 0.0 || outlier_probability > 0.0 ||
           drop_probability > 0.0 || solver_stress_probability > 0.0;
  }
};

/// Faults applying to one measurement slot.
struct SlotFault {
  bool dropped = false;     ///< slot lost: zero energy, no RNG draws
  real energy_scale = 1.0;  ///< multiplicative outlier on the recorded energy
};

/// The pre-drawn fault schedule of one trial. Immutable after draw();
/// shared read-only across the strategies evaluated on the trial.
class FaultPlan {
 public:
  /// No-fault plan (every accessor reports a clean slot/solve).
  FaultPlan() = default;

  /// Draws a plan covering `budget` measurement slots, up to 2·budget
  /// covariance solves, and `n_paths` link paths. Every random quantity
  /// comes from `rng`, which callers derive via fault_stream() so the plan
  /// is a pure function of (seed, entity, trial). The draw order is fixed
  /// and every coin is flipped even when its probability is 0 or 1, so a
  /// plan never depends on which faults are enabled alongside it.
  static FaultPlan draw(const FaultConfig& config, index_t budget,
                        index_t n_paths, randgen::Rng& rng);

  /// Hand-scripted plan for tests and tooling: explicit slot faults,
  /// blockage onset (>= slots.size() or npos-like large value = never),
  /// per-path power scales, and stressed-solve flags.
  static FaultPlan scripted(std::vector<SlotFault> slots,
                            index_t blockage_onset,
                            std::vector<real> path_power_scale,
                            std::vector<bool> stressed_solves);

  /// Fault state of measurement slot `i`; slots beyond the drawn schedule
  /// are clean (recovery probes after training are never slot-faulted).
  SlotFault slot(index_t i) const {
    return i < slots_.size() ? slots_[i] : SlotFault{};
  }

  /// True when solve number `k` (0-based, counted per strategy run) is
  /// scheduled for forced stress; solves beyond the schedule are clean.
  bool solve_stressed(index_t k) const {
    return k < stressed_solves_.size() && stressed_solves_[k];
  }

  bool has_blockage() const { return blockage_onset_ < kNeverBlocked; }
  /// First slot at which the blockage attenuation applies.
  index_t blockage_onset() const { return blockage_onset_; }
  bool blockage_active(index_t slot) const {
    return slot >= blockage_onset_;
  }

  /// Per-path linear power scale of the post-onset (blocked) link; size 0
  /// when the plan has no blockage, else n_paths with entries in (0, 1].
  std::span<const real> path_power_scale() const {
    return path_power_scale_;
  }

 private:
  static constexpr index_t kNeverBlocked = ~index_t{0};

  std::vector<SlotFault> slots_;
  std::vector<bool> stressed_solves_;
  index_t blockage_onset_ = kNeverBlocked;
  std::vector<real> path_power_scale_;
};

/// Mutable state of one (trial, strategy) run under fault injection. The
/// run's mac::Session owns it: arm_faults sets the plan, and the
/// degradation ladder (estimation::robust_estimate_covariance) advances the
/// tallies through the pointer the strategies pass it.
struct TrialFaultState {
  const FaultPlan* plan = nullptr;  ///< borrowed; null on a clean run

  /// Covariance solves consumed so far — the index into the plan's
  /// stressed-solve schedule.
  index_t solves = 0;
  std::uint64_t stressed_solves = 0;  ///< solves hit by forced stress

  /// Final-rung histogram over this run's solves, indexed by
  /// estimation::SolveRung (0 = primary succeeded, then em/sample/uniform).
  std::array<std::uint64_t, 4> rung_counts{};
};

/// Reserved key_a base of the fault plans inside the three-key stream
/// partition. The multi-cell engine owns key_a ∈ [0, 3·n_cells)
/// (sim/multicell.cpp); fault plans live at kFaultKeyBase + entity, far
/// outside any realistic cell count, so adding fault injection never
/// collides with — or perturbs — an existing stream (DESIGN.md §11).
/// Aliases the registry entry in randgen/keylanes.h (the registry test
/// keeps every reserved lane pairwise disjoint).
inline constexpr std::uint64_t kFaultKeyBase = randgen::lanes::kFaultLaneBase;

/// The fault stream of (seed, entity, trial), drawn by
/// sim::draw_trial_faults. The entity is what fails independently: 0 for
/// the single-link fig5–8 sweeps, the fault-case index in the E8
/// robustness matrix, and cell·users_per_cell + user in the multi-cell
/// engine.
inline randgen::Rng fault_stream(std::uint64_t seed, std::uint64_t entity,
                                 std::uint64_t trial) {
  return randgen::Rng::stream(seed, kFaultKeyBase + entity, trial, 0);
}

}  // namespace mmw::fault
