#include "track/tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mac/probe.h"
#include "track/policy.h"

namespace mmw::track {

namespace {

real collapse_scale(const TrackerOptions& o) {
  return std::pow(10.0, -o.collapse_db / 10.0);
}

/// One matched-filter probe through the shared mac chain (no blockage
/// Bernoulli here — blockage is a deterministic large-scale state of the
/// evolved link, not per-probe noise).
class ProbeRig {
 public:
  real probe(const TrackerContext& ctx, index_t tx, index_t rx) {
    if (scratch_.size() != ctx.link->rx_size())
      scratch_ = linalg::Vector(ctx.link->rx_size());
    mac::ProbeView view;
    view.link = ctx.link;
    view.tx_codebook = ctx.tx_codebook;
    view.rx_codebook = ctx.rx_codebook;
    view.gamma = ctx.gamma;
    return mac::probe_energy(view, tx, rx, ctx.fades, *ctx.rng, scratch_);
  }

 private:
  linalg::Vector scratch_;
};

struct SweepOutcome {
  index_t tx = 0, rx = 0;
  real energy = -1.0;
  index_t probes = 0;
};

/// Exhaustive raster sweep; per-RX best excess lands in `rx_excess` (sized
/// by the callee) for beam-space compression. Ties → first seen (lowest
/// raster index).
SweepOutcome full_sweep(const TrackerContext& ctx, ProbeRig& rig,
                        std::vector<real>& rx_excess) {
  const index_t m = ctx.tx_codebook->size();
  const index_t n = ctx.rx_codebook->size();
  const real noise = 1.0 / ctx.gamma;
  rx_excess.assign(n, 0.0);
  SweepOutcome out;
  for (index_t t = 0; t < m; ++t)
    for (index_t r = 0; r < n; ++r) {
      const real e = rig.probe(ctx, t, r);
      if (e > out.energy) {
        out.energy = e;
        out.tx = t;
        out.rx = r;
      }
      rx_excess[r] = std::max(rx_excess[r], e - noise);
      ++out.probes;
    }
  return out;
}

/// Compresses per-RX excess energies to the canonical component list (top
/// max_components positive weights, ascending beam order) via the codec's
/// merge with an empty prior.
std::vector<estimation::BeamComponent> components_from_excess(
    const std::vector<real>& rx_excess, index_t max_components) {
  std::vector<estimation::BeamComponent> update;
  for (index_t r = 0; r < rx_excess.size(); ++r)
    if (rx_excess[r] > 0.0) update.push_back({r, rx_excess[r]});
  return estimation::merge_beam_space({}, 0.0, update, max_components);
}

// ---------------------------------------------------------------------------
// Cold start: the baseline that re-aligns from scratch every epoch.
class ColdStartTracker final : public Tracker {
 public:
  explicit ColdStartTracker(const TrackerOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "cold_start"; }

  void reset() override { state_ = BeamState{}; }

  TrackerReport step(const TrackerContext& ctx) override {
    const SweepOutcome sweep = full_sweep(ctx, rig_, rx_excess_);
    state_.tx_beam = sweep.tx;
    state_.rx_beam = sweep.rx;
    state_.trained_energy = sweep.energy;
    state_.components =
        components_from_excess(rx_excess_, options_.max_components);
    TrackerReport report;
    report.tx_beam = sweep.tx;
    report.rx_beam = sweep.rx;
    report.probes = sweep.probes;
    report.realigned = true;
    return report;
  }

  BeamState export_state() const override { return state_; }

  void import_state(const BeamState& state) override {
    // A cold-start tracker re-sweeps next epoch regardless; the imported
    // pair only seeds the report until then.
    state_ = state;
  }

 private:
  TrackerOptions options_;
  ProbeRig rig_;
  std::vector<real> rx_excess_;
  BeamState state_;
};

// ---------------------------------------------------------------------------
// Warm covariance-ML re-entry.
class WarmMlTracker final : public Tracker {
 public:
  explicit WarmMlTracker(const TrackerOptions& options) : options_(options) {}

  std::string_view name() const override { return "warm_ml"; }

  void reset() override {
    state_ = BeamState{};
    aligning_ = true;
    bootstrapped_ = false;
    slots_ = 0;
    cursor_ = 0;
    phase_energy_ = -1.0;
  }

  TrackerReport step(const TrackerContext& ctx) override {
    TrackerReport report;
    if (!aligning_) {
      const real e = rig_.probe(ctx, state_.tx_beam, state_.rx_beam);
      report.probes = 1;
      if (e < state_.trained_energy * collapse_scale(options_)) {
        report.outage = true;
        aligning_ = true;
        slots_ = 0;
        phase_energy_ = -1.0;
      }
      report.tx_beam = state_.tx_beam;
      report.rx_beam = state_.rx_beam;
      return report;
    }
    report.realigned = true;
    if (!bootstrapped_) {
      // Nothing to warm-start from: acquire once like a cold attach.
      const SweepOutcome sweep = full_sweep(ctx, rig_, scores_);
      state_.tx_beam = sweep.tx;
      state_.rx_beam = sweep.rx;
      state_.trained_energy = sweep.energy;
      state_.components =
          components_from_excess(scores_, options_.max_components);
      report.probes = sweep.probes;
      bootstrapped_ = true;
      aligning_ = false;
      report.tx_beam = sweep.tx;
      report.rx_beam = sweep.rx;
      return report;
    }
    report.probes = align_slot(ctx);
    report.tx_beam = state_.tx_beam;
    report.rx_beam = state_.rx_beam;
    return report;
  }

  BeamState export_state() const override { return state_; }

  void import_state(const BeamState& state) override {
    state_ = state;
    state_.trained_energy = -1.0;  // foreign site: the claim is a hypothesis
    aligning_ = true;
    bootstrapped_ = true;  // the prior replaces the bootstrap sweep
    slots_ = 0;
    phase_energy_ = -1.0;
  }

 private:
  /// One covariance-directed re-alignment slot (the serving engine's
  /// alignment shape, warm-started from the resident prior): TX dwells on
  /// the last claimed beam then cycles, RX probes the prior's top scoring
  /// codewords plus cursor exploration, energies feed the warm-ML fold.
  index_t align_slot(const TrackerContext& ctx) {
    const index_t m = ctx.tx_codebook->size();
    const index_t n = ctx.rx_codebook->size();
    const index_t j = std::min(options_.probes_per_slot, n);
    const real noise = 1.0 / ctx.gamma;
    const index_t tx =
        static_cast<index_t>((state_.tx_beam + slots_) % m);

    const linalg::FactoredHermitian prior_q =
        estimation::expand_beam_space(state_.components, *ctx.rx_codebook);
    if (scores_.size() != n) scores_.assign(n, 0.0);
    probe_rx_.clear();
    if (!prior_q.empty()) {
      ctx.rx_codebook->covariance_scores_into(prior_q, scores_);
      append_covariance_probes(scores_, j > 1 ? j - 1 : 1, probe_rx_);
    }
    append_cursor_probes(0, cursor_, n, j, probe_rx_);
    std::sort(probe_rx_.begin(), probe_rx_.end());
    cursor_ += j;

    measurements_.clear();
    for (const index_t rx : probe_rx_) {
      const real e = rig_.probe(ctx, tx, rx);
      measurements_.push_back({ctx.rx_codebook->codeword(rx), e});
      if (e > phase_energy_) {
        phase_energy_ = e;
        phase_tx_ = tx;
        phase_rx_ = rx;
      }
    }
    state_.components =
        estimation::fold_warm_ml(state_.components, prior_q, measurements_,
                                 ctx.gamma, options_.forgetting,
                                 *ctx.rx_codebook, options_.max_components,
                                 scores_)
            .components;

    ++slots_;
    if (slots_ >= options_.align_slots && phase_energy_ > noise) {
      state_.tx_beam = phase_tx_;
      state_.rx_beam = phase_rx_;
      state_.trained_energy = phase_energy_;
      aligning_ = false;
    }
    return j;
  }

  TrackerOptions options_;
  ProbeRig rig_;
  BeamState state_;
  bool aligning_ = true;
  bool bootstrapped_ = false;
  index_t slots_ = 0;
  std::uint64_t cursor_ = 0;
  real phase_energy_ = -1.0;
  index_t phase_tx_ = 0, phase_rx_ = 0;
  std::vector<real> scores_;
  std::vector<index_t> probe_rx_;
  std::vector<estimation::BeamMeasurement> measurements_;
};

// ---------------------------------------------------------------------------
// Neighborhood re-scan (the session's widened-window recovery as a
// tracker).
class NeighborhoodTracker final : public Tracker {
 public:
  explicit NeighborhoodTracker(const TrackerOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "neighborhood"; }

  void reset() override {
    state_ = BeamState{};
    aligned_ = false;
    reacquire_ = false;
  }

  TrackerReport step(const TrackerContext& ctx) override {
    TrackerReport report;
    if (!aligned_) {
      const SweepOutcome sweep = full_sweep(ctx, rig_, rx_excess_);
      state_.tx_beam = sweep.tx;
      state_.rx_beam = sweep.rx;
      state_.trained_energy = sweep.energy;
      state_.components =
          components_from_excess(rx_excess_, options_.max_components);
      aligned_ = true;
      report.tx_beam = sweep.tx;
      report.rx_beam = sweep.rx;
      report.probes = sweep.probes;
      report.realigned = true;
      return report;
    }
    if (reacquire_) {
      // Post-handover: the imported pair is a hypothesis on a new site —
      // rescan its widest window immediately instead of trusting it.
      reacquire_ = false;
      report.probes = scan_windows(ctx, options_.max_retries);
      report.tx_beam = state_.tx_beam;
      report.rx_beam = state_.rx_beam;
      report.realigned = true;
      return report;
    }
    const real e = rig_.probe(ctx, state_.tx_beam, state_.rx_beam);
    report.probes = 1;
    if (e >= state_.trained_energy * collapse_scale(options_)) {
      report.tx_beam = state_.tx_beam;
      report.rx_beam = state_.rx_beam;
      return report;
    }
    report.outage = true;
    report.realigned = true;
    best_ = {state_.tx_beam, state_.rx_beam, e};
    report.probes += scan_windows(ctx, options_.max_retries);
    report.tx_beam = state_.tx_beam;
    report.rx_beam = state_.rx_beam;
    return report;
  }

  BeamState export_state() const override { return state_; }

  void import_state(const BeamState& state) override {
    state_ = state;
    state_.trained_energy = -1.0;
    aligned_ = true;
    reacquire_ = true;
  }

 private:
  /// The widened-window rescan (mac::rescan_windows) around the claimed
  /// pair; exhausting every retry falls back to a full sweep. Unlike
  /// Session::verify_and_realign the ledger starts empty, so after an
  /// outage the first window re-probes the pair just verified. Returns
  /// probes spent, updates state_.
  index_t scan_windows(const TrackerContext& ctx, index_t retries) {
    const index_t m = ctx.tx_codebook->size();
    const index_t n = ctx.rx_codebook->size();
    const real threshold =
        state_.trained_energy > 0.0
            ? state_.trained_energy * collapse_scale(options_)
            : std::numeric_limits<real>::infinity();
    if (best_.energy < 0.0) {
      best_.tx_beam = state_.tx_beam;
      best_.rx_beam = state_.rx_beam;
    }
    index_t probes = 0;
    probed_.assign(m * n, false);
    const bool recovered = mac::rescan_windows(
        m, n, retries, options_.widen_radius, threshold, probed_, best_,
        [&](index_t t, index_t r) {
          ++probes;
          return rig_.probe(ctx, t, r);
        });
    if (!recovered && state_.trained_energy > 0.0) {
      // The window missed: the pair moved further than drift explains.
      const SweepOutcome sweep = full_sweep(ctx, rig_, rx_excess_);
      probes += sweep.probes;
      best_ = {sweep.tx, sweep.rx, sweep.energy};
      state_.components =
          components_from_excess(rx_excess_, options_.max_components);
    }
    state_.tx_beam = best_.tx_beam;
    state_.rx_beam = best_.rx_beam;
    state_.trained_energy = best_.energy;
    best_.energy = -1.0;
    return probes;
  }

  TrackerOptions options_;
  ProbeRig rig_;
  BeamState state_;
  bool aligned_ = false;
  bool reacquire_ = false;
  mac::MeasurementRecord best_{0, 0, -1.0};  ///< energy < 0: unseeded
  std::vector<bool> probed_;
  std::vector<real> rx_excess_;
};

// ---------------------------------------------------------------------------
// Correlated UCB bandit over beam pairs.
class BanditTracker final : public Tracker {
 public:
  explicit BanditTracker(const TrackerOptions& options) : options_(options) {}

  std::string_view name() const override { return "bandit_ucb"; }

  void reset() override {
    mu_.clear();
    weight_.clear();
    initialized_ = false;
    t_ = 0;
    state_ = BeamState{};
  }

  TrackerReport step(const TrackerContext& ctx) override {
    const index_t m = ctx.tx_codebook->size();
    const index_t n = ctx.rx_codebook->size();
    ensure_arms(m, n);
    TrackerReport report;
    if (!initialized_) {
      // Cold attach: one exhaustive pass seeds every arm.
      const SweepOutcome sweep = full_sweep(ctx, rig_, rx_excess_);
      const real noise = 1.0 / ctx.gamma;
      // Storing every pair's sweep energy would defeat the point of a
      // bandit; seed arm means from the per-RX excess (shared across the
      // TX axis) and let subsequent pulls re-localize TX.
      for (index_t t = 0; t < m; ++t)
        for (index_t r = 0; r < n; ++r) mu_[t * n + r] = rx_excess_[r] + noise;
      weight_.assign(m * n, 0.5);
      mu_[sweep.tx * n + sweep.rx] = sweep.energy;
      weight_[sweep.tx * n + sweep.rx] = 1.0;
      initialized_ = true;
      t_ = 1;
      report.probes = sweep.probes;
      report.realigned = true;
      claim(n);
      report.tx_beam = state_.tx_beam;
      report.rx_beam = state_.rx_beam;
      return report;
    }

    ++t_;
    for (real& w : weight_) w *= options_.bandit_forgetting;
    const index_t pulls =
        std::min<index_t>(options_.bandit_probes, mu_.size());
    // Select all arms first (UCB without replacement, ties → lowest
    // index), then probe in ascending arm order — the canonical
    // measurement order every other engine uses.
    pulls_.clear();
    real scale = 0.0;
    for (const real v : mu_) scale += v;
    scale /= static_cast<real>(mu_.size());
    for (index_t k = 0; k < pulls; ++k) {
      index_t best = mu_.size();
      real best_score = -std::numeric_limits<real>::infinity();
      for (index_t a = 0; a < mu_.size(); ++a) {
        if (std::find(pulls_.begin(), pulls_.end(), a) != pulls_.end())
          continue;
        const real bonus =
            options_.ucb_c * scale *
            std::sqrt(std::log(static_cast<real>(t_) + 1.0) /
                      std::max(weight_[a], 1e-3));
        const real score = mu_[a] + bonus;
        if (score > best_score) {  // ties → lowest a
          best_score = score;
          best = a;
        }
      }
      pulls_.push_back(best);
    }
    std::sort(pulls_.begin(), pulls_.end());
    const index_t old_tx = state_.tx_beam, old_rx = state_.rx_beam;
    for (const index_t a : pulls_) {
      const index_t t = a / n, r = a % n;
      const real e = rig_.probe(ctx, t, r);
      absorb(a, e, 1.0);
      // Correlated update: adjacent arms on either beam axis share the
      // reward at a discount (the angular overlap of neighboring
      // codewords makes their means strongly correlated).
      const real k = options_.neighbor_coupling;
      if (r > 0) absorb(a - 1, e, k);
      if (r + 1 < n) absorb(a + 1, e, k);
      if (t > 0) absorb(a - n, e, k);
      if (t + 1 < m) absorb(a + n, e, k);
      ++report.probes;
    }
    claim(n);
    report.tx_beam = state_.tx_beam;
    report.rx_beam = state_.rx_beam;
    report.realigned =
        state_.tx_beam != old_tx || state_.rx_beam != old_rx;
    return report;
  }

  BeamState export_state() const override {
    BeamState out = state_;
    if (!mu_.empty()) {
      const index_t n = rx_count_;
      std::vector<real> rx_best(n, 0.0);
      for (index_t a = 0; a < mu_.size(); ++a)
        rx_best[a % n] = std::max(rx_best[a % n], mu_[a]);
      // Weights are energies above the global floor so the codec's ≥ 0
      // contract holds whatever the noise level was.
      const real floor = *std::min_element(rx_best.begin(), rx_best.end());
      for (real& v : rx_best) v = std::max(v - floor, 0.0);
      out.components =
          components_from_excess(rx_best, options_.max_components);
    }
    return out;
  }

  void import_state(const BeamState& state) override {
    state_ = state;
    state_.trained_energy = -1.0;
    pending_prior_ = state.components;
    has_pending_prior_ = true;
    initialized_ = false;  // ensure_arms + first step consume the prior
  }

 private:
  void ensure_arms(index_t m, index_t n) {
    if (mu_.size() == m * n && !has_pending_prior_) return;
    if (mu_.size() != m * n) {
      mu_.assign(m * n, 0.0);
      weight_.assign(m * n, 0.0);
    }
    rx_count_ = n;
    if (has_pending_prior_) {
      // Prior carried through handover: seed every TX row of each named RX
      // beam (the component list is TX-blind) with a weak weight, so UCB
      // exploits the angular prior but still explores.
      std::fill(mu_.begin(), mu_.end(), 0.0);
      weight_.assign(m * n, 0.25);
      for (const estimation::BeamComponent& c : pending_prior_)
        for (index_t t = 0; t < m; ++t) mu_[t * n + c.beam] = c.weight;
      has_pending_prior_ = false;
      initialized_ = true;
      t_ = 1;
      claim(n);
    }
  }

  void absorb(index_t arm, real energy, real w) {
    const real total = weight_[arm] + w;
    mu_[arm] = (weight_[arm] * mu_[arm] + w * energy) / total;
    weight_[arm] = total;
  }

  void claim(index_t n) {
    index_t best = 0;
    for (index_t a = 1; a < mu_.size(); ++a)
      if (mu_[a] > mu_[best]) best = a;  // ties → lowest arm
    state_.tx_beam = best / n;
    state_.rx_beam = best % n;
    state_.trained_energy = mu_[best];
  }

  TrackerOptions options_;
  ProbeRig rig_;
  std::vector<real> mu_;      ///< arm mean energy
  std::vector<real> weight_;  ///< arm evidence weight (decayed)
  std::vector<index_t> pulls_;
  std::vector<real> rx_excess_;
  std::vector<estimation::BeamComponent> pending_prior_;
  bool has_pending_prior_ = false;
  bool initialized_ = false;
  std::uint64_t t_ = 0;
  BeamState state_;
  index_t rx_count_ = 0;
};

}  // namespace

const char* tracker_name(TrackerKind kind) {
  switch (kind) {
    case TrackerKind::kColdStart: return "cold_start";
    case TrackerKind::kWarmMl: return "warm_ml";
    case TrackerKind::kNeighborhood: return "neighborhood";
    case TrackerKind::kBanditUcb: return "bandit_ucb";
  }
  MMW_REQUIRE_MSG(false, "unknown tracker kind");
  return "";
}

std::unique_ptr<Tracker> make_tracker(TrackerKind kind,
                                      const TrackerOptions& options) {
  switch (kind) {
    case TrackerKind::kColdStart:
      return std::make_unique<ColdStartTracker>(options);
    case TrackerKind::kWarmMl:
      return std::make_unique<WarmMlTracker>(options);
    case TrackerKind::kNeighborhood:
      return std::make_unique<NeighborhoodTracker>(options);
    case TrackerKind::kBanditUcb:
      return std::make_unique<BanditTracker>(options);
  }
  MMW_REQUIRE_MSG(false, "unknown tracker kind");
  return nullptr;
}

}  // namespace mmw::track
