// Temporal channel evolution on a fixed path geometry. The paper assumes
// the covariance "doesn't change dramatically between consecutive
// TX-slots" while the instantaneous H_j refades; within a trial the probe
// chain refades H on every draw and the geometry stays put. Across epochs
// LinkEvolution moves that geometry (angle drift, shadowing, blockage),
// and blocked_link applies a one-off blockage event to a link.
#pragma once

#include "antenna/geometry.h"
#include "channel/link.h"

namespace mmw::channel {

/// Sudden blockage as a large-scale temporal transition: the post-onset
/// link is `link` with each path's mean power scaled by
/// per_path_gain[l] ∈ (0, 1] (1 = unshadowed, small = deeply shadowed).
/// Small-scale refading keeps the covariance stationary; a blockage event
/// is the complementary NON-stationary jump — the paper's
/// geometry holds but a blocker suppresses a subset of paths, which is the
/// regime the fault-injection runtime (src/fault) stresses.
/// Preconditions: one gain per path, entries in (0, 1].
Link blocked_link(const Link& link, std::span<const real> per_path_gain);

/// Epoch-scale large-scale evolution knobs for LinkEvolution. Everything is
/// expressed per meter traveled where it physically scales with motion, so
/// one config covers walking and train speeds by changing `speed_mps` only
/// — the property tests (drift ∝ speed) pin exactly that scaling.
struct EvolutionConfig {
  real epoch_seconds = 0.5;   ///< wall time between epochs (τ)
  real speed_mps = 1.4;       ///< terminal speed (walking default)

  /// Angular random-walk scale: each path's AoA/AoD azimuth and elevation
  /// gain an independent N(0, (drift_rad_per_meter·d)²) increment per epoch,
  /// d = speed·τ meters traveled.
  real drift_rad_per_meter = 0.004;

  /// Log-normal shadow fading: per-path AR(1) process in dB with stationary
  /// std `shadow_sigma_db` and correlation exp(−d / shadow_coherence_m) per
  /// epoch (Gudmundson's model). 0 disables shadowing.
  real shadow_sigma_db = 0.0;
  real shadow_coherence_m = 15.0;

  /// Blockage as a two-state Markov chain over epochs: an UNBLOCKED link
  /// becomes blocked with probability onset_per_meter·d (clamped to
  /// [0, 1]); a BLOCKED link clears with clear_probability. While blocked,
  /// the dominant path's mean power is scaled by blockage_gain (partial
  /// shadowing — secondary paths survive, which is what lets a tracker
  /// recover via an alternate beam).
  real blockage_onset_per_meter = 0.0;
  real blockage_clear_probability = 0.2;
  real blockage_gain = 0.02;

  real meters_per_epoch() const { return speed_mps * epoch_seconds; }
  real drift_std_rad() const {
    return drift_rad_per_meter * meters_per_epoch();
  }
  real shadow_correlation() const;  ///< exp(−d/coherence), 0 if coherence ≤ 0
  real onset_probability() const;   ///< clamped per-epoch onset
};

/// Deterministic epoch-by-epoch evolution of one link's LARGE-SCALE state:
/// path angles drift as a seeded random walk, per-path shadow fading follows
/// an AR(1) log-normal, and blockage switches on/off as a Markov chain. The
/// small-scale Rayleigh refades stay where they always were (the probe
/// chain); this class only moves the geometry the paper holds fixed within
/// a trial.
///
/// Determinism contract: the state at epoch e is a pure function of
/// (seed, key_a, key_b, e) — epoch k's innovations are drawn from the
/// epoch-keyed stream Rng::stream(seed, key_a, key_b, k) in a fixed order
/// (per path: 4 angle normals, 1 shadow normal; then 1 blockage uniform) and
/// accumulated in ascending-epoch order. seek() therefore reaches identical
/// state whether called once, stepwise, or backwards (a backward seek
/// replays from the base state), and distinct users/sites never share a
/// stream. Callers pick key_a from the reserved temporal lane
/// (randgen/keylanes.h).
class LinkEvolution {
 public:
  /// Preconditions: at least one path; config rates in range (probabilities
  /// in [0, 1], blockage_gain in (0, 1], epoch_seconds and speed ≥ 0).
  LinkEvolution(antenna::ArrayGeometry tx, antenna::ArrayGeometry rx,
                std::vector<Path> base_paths, EvolutionConfig config,
                std::uint64_t seed, std::uint64_t key_a, std::uint64_t key_b);

  index_t epoch() const { return epoch_; }
  bool blocked() const { return blocked_; }
  const EvolutionConfig& config() const { return config_; }
  const std::vector<Path>& base_paths() const { return base_; }
  /// The path whose power a blockage event suppresses (largest base power,
  /// ties toward the lowest index).
  index_t dominant_path() const { return dominant_; }
  /// Current shadow state of path l, dB.
  real shadow_db(index_t l) const { return shadow_db_[l]; }
  /// Current cumulative AoA azimuth drift of path l, radians.
  real aoa_azimuth_drift(index_t l) const { return daoa_az_[l]; }

  /// Moves the state to `epoch` (0 = the unperturbed base state). Forward
  /// seeks advance incrementally; backward seeks replay from the base.
  void seek(index_t epoch);

  /// Realizes the link at the current state: drifted angles, shadowed and
  /// blockage-scaled mean powers, on the constructor's array geometries.
  Link current() const;

 private:
  void step(index_t epoch);  ///< applies epoch `epoch`'s innovations

  antenna::ArrayGeometry tx_;
  antenna::ArrayGeometry rx_;
  std::vector<Path> base_;
  EvolutionConfig config_;
  std::uint64_t seed_ = 0, key_a_ = 0, key_b_ = 0;
  index_t epoch_ = 0;
  index_t dominant_ = 0;
  bool blocked_ = false;
  std::vector<real> daoa_az_, daoa_el_, daod_az_, daod_el_;  ///< drift, rad
  std::vector<real> shadow_db_;                              ///< AR(1) state
};

}  // namespace mmw::channel
