// [R] per-layer costs: a replay of the public calls a workload's steps make,
// on live inputs sampled from the run (sessions, trials, user-epochs). Each
// call is timed in a loop over the sample with the benchmark's own clock
// and allocation counter; the workload multiplies the per-call costs by its
// run's call counts to attribute seconds to layers ("computed" numbers).
#pragma once

#include <functional>
#include <vector>

#include "channel/temporal.h"
#include "estimation/beamspace.h"
#include "estimation/covariance_ml.h"
#include "harness.h"
#include "obs/digest.h"
#include "sim/scenario.h"

namespace mmwb {

/// One sampled live input.
struct ReplayPoint {
  explicit ReplayPoint(std::function<mmw::channel::Link()> rebuild)
      : link(rebuild()), regen(std::move(rebuild)) {}

  mmw::channel::Link link;
  /// Resident beam-space state (canonical order); may be empty.
  std::vector<mmw::estimation::BeamComponent> prior;
  index_t tx_beam = 0;
  /// RX beams of the point's probe slot, ascending; empty = J beams spread
  /// evenly over the codebook.
  std::vector<index_t> probe_beams;
  real gamma = 1.0;  ///< effective SNR the point's probes see
  /// Rebuilds `link` from its stream exactly as the workload's step does.
  std::function<mmw::channel::Link()> regen;
  /// Key triple of the point's per-step measurement stream.
  std::uint64_t key_a = 0, key_b = 0, key_c = 0;
};

/// One step of the serving engine's tracking fast path: a resident
/// session's claimed pair, as the step sees it.
struct TrackPoint {
  /// Key triple of the step's epoch stream.
  std::uint64_t key_a = 0, key_b = 0, key_c = 0;
  real claimed_gain = 0.0;
  real optimal_gain = 0.0;
  real noise_var = 1.0;
  real trained_energy = 0.0;
};

/// ServingEngine::step_track through the public calls it makes: the epoch
/// stream, the blockage and fade draws, the loss into `losses` and the
/// collapse test. Returns whether the step declares an outage.
bool replay_track_step(std::uint64_t seed, const TrackPoint& p,
                       real blockage_probability, index_t track_fades,
                       real collapse_scale,
                       mmw::obs::QuantileDigest& losses);

struct ReplaySpec {
  const mmw::sim::Scenario* scenario = nullptr;
  const mmw::sim::CodebookPair* codebooks = nullptr;
  std::vector<ReplayPoint> points;
  /// Tracking steps of the serving engine; empty = one per point, on the
  /// point's link with its TX beam and first probe beam as the claimed pair.
  std::vector<TrackPoint> track_points;
  real collapse_db = 10.0;
  /// Warm-started ML (serving, tracking) or the cold solve of the paper's
  /// Proposed strategy.
  bool warm_ml = true;
  index_t probes_per_slot = 8;
  index_t track_fades = 4;
  /// Per-probe blockage probability of the workload's probe chain.
  real blockage_probability = 0.0;
  /// ML solves replayed (a prefix of `points`): they dominate replay time.
  index_t ml_points = 200;
  mmw::channel::EvolutionConfig evolution;
};

/// Replays every primitive over the sample. Call with obs disabled so the
/// replay leaves the run's counters and trace untouched.
ReplayCosts replay_costs(const ReplaySpec& spec);

/// The warm-started ML settings of the serving engine and the warm_ml
/// tracker.
mmw::estimation::CovarianceMlOptions warm_ml_options(real gamma);

/// The E10 channel-evolution settings (bench/ext_tracking_mobility.cpp).
mmw::channel::EvolutionConfig tracking_evolution();

}  // namespace mmwb
