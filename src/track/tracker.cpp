#include "track/tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mmw::track {

namespace {

/// Compresses per-RX excess energies to the canonical component list (top
/// max_components positive weights, ascending beam order) via the codec's
/// merge with an empty prior.
std::vector<estimation::BeamComponent> components_from_excess(
    const std::vector<real>& rx_excess) {
  std::vector<estimation::BeamComponent> update;
  for (index_t r = 0; r < rx_excess.size(); ++r)
    if (rx_excess[r] > 0.0) update.push_back({r, rx_excess[r]});
  return estimation::merge_beam_space({}, 0.0, update,
                                      TrackerOptions::max_components);
}

mac::ProbeView probe_view(const TrackerContext& ctx) {
  mac::ProbeView view;
  view.link = ctx.link;
  view.tx_codebook = ctx.tx_codebook;
  view.rx_codebook = ctx.rx_codebook;
  view.gamma = ctx.gamma;
  return view;
}

/// What every tracker shares: the claimed BeamState, one matched-filter
/// probe through the shared mac chain (no blockage Bernoulli here —
/// blockage is a deterministic large-scale state of the evolved link, not
/// per-probe noise), the acquisition sweep, the one-probe collapse check
/// and the report.
class TrackerCore : public Tracker {
 public:
  BeamState export_state() const override { return state_; }

 protected:
  real probe(const TrackerContext& ctx, index_t tx, index_t rx) {
    if (fade_.size() != ctx.link->rx_size())
      fade_ = linalg::Vector(ctx.link->rx_size());
    return mac::probe_energy(probe_view(ctx), tx, rx, ctx.fades, *ctx.rng,
                             fade_);
  }

  /// Exhaustive raster sweep, claimed outright: the best pair (ties → first
  /// seen, the lowest raster index) and its energy, plus the components of
  /// the per-RX best excess, which stays in rx_excess_. Returns the probes.
  index_t acquire(const TrackerContext& ctx) {
    const index_t m = ctx.tx_codebook->size();
    const index_t n = ctx.rx_codebook->size();
    const real noise = 1.0 / ctx.gamma;
    rx_excess_.assign(n, 0.0);
    mac::MeasurementRecord best{0, 0, -1.0};
    for (index_t t = 0; t < m; ++t)
      for (index_t r = 0; r < n; ++r) {
        const real e = probe(ctx, t, r);
        if (e > best.energy) best = {t, r, e};
        rx_excess_[r] = std::max(rx_excess_[r], e - noise);
      }
    state_.tx_beam = best.tx_beam;
    state_.rx_beam = best.rx_beam;
    state_.trained_energy = best.energy;
    state_.components = components_from_excess(rx_excess_);
    return m * n;
  }

  /// Energy below which the claimed pair counts as collapsed.
  real collapse_threshold() const {
    return state_.trained_energy *
           mac::collapse_scale(TrackerOptions::collapse_db);
  }

  /// The one-probe collapse check of the claimed pair.
  struct Verify {
    real energy;
    bool collapsed;
  };
  Verify verify(const TrackerContext& ctx) {
    const real e = probe(ctx, state_.tx_beam, state_.rx_beam);
    return {e, e < collapse_threshold()};
  }

  TrackerReport report(index_t probes, bool realigned,
                       bool outage = false) const {
    return {state_.tx_beam, state_.rx_beam, probes, realigned, outage};
  }

  BeamState state_;
  std::vector<real> rx_excess_;

 private:
  linalg::Vector fade_;
};

// ---------------------------------------------------------------------------
// Cold start: the baseline that re-aligns from scratch every epoch.
class ColdStartTracker final : public TrackerCore {
 public:
  TrackerReport step(const TrackerContext& ctx) override {
    return report(acquire(ctx), true);
  }

  void import_state(const BeamState& state) override {
    // A cold-start tracker re-sweeps next epoch regardless; the imported
    // pair only seeds the report until then.
    state_ = state;
  }
};

// ---------------------------------------------------------------------------
// Warm covariance-ML re-entry.
class WarmMlTracker final : public TrackerCore {
 public:
  TrackerReport step(const TrackerContext& ctx) override {
    if (!aligning_) {
      const bool outage = verify(ctx).collapsed;
      if (outage) restart();
      return report(1, false, outage);
    }
    if (!bootstrapped_) {
      // Nothing to warm-start from: acquire once like a cold attach.
      const index_t probes = acquire(ctx);
      bootstrapped_ = true;
      aligning_ = false;
      return report(probes, true);
    }
    return report(realign_slot(ctx), true);
  }

  void import_state(const BeamState& state) override {
    state_ = state;
    state_.trained_energy = -1.0;  // foreign site: the claim is a hypothesis
    bootstrapped_ = true;  // the prior replaces the bootstrap sweep
    restart();
  }

 private:
  void restart() {
    aligning_ = true;
    slots_ = 0;
    phase_energy_ = -1.0;
  }

  /// One re-alignment slot (track::align_slot, warm-started from the
  /// resident prior): TX dwells on the last claimed beam then cycles, the
  /// cursor sweep is keyed 0, and after align_slots slots the phase's best
  /// probe is claimed if it clears the noise floor. Returns probes spent.
  index_t realign_slot(const TrackerContext& ctx) {
    SlotSpec spec;
    spec.tx_beam = (state_.tx_beam + slots_) % ctx.tx_codebook->size();
    spec.probes = TrackerOptions::probes_per_slot;
    spec.cursor = cursor_;
    spec.fades = ctx.fades;
    spec.fold = SlotFold::kWarmMl;
    align_slot(probe_view(ctx), spec, state_.components, *ctx.rng, slot_);
    const index_t j = slot_.probe_rx.size();
    for (index_t i = 0; i < j; ++i)
      if (slot_.probe_energy[i] > phase_energy_) {
        phase_energy_ = slot_.probe_energy[i];
        phase_tx_ = spec.tx_beam;
        phase_rx_ = slot_.probe_rx[i];
      }
    cursor_ += j;
    ++slots_;
    if (slots_ >= TrackerOptions::align_slots &&
        phase_energy_ > 1.0 / ctx.gamma) {
      state_.tx_beam = phase_tx_;
      state_.rx_beam = phase_rx_;
      state_.trained_energy = phase_energy_;
      aligning_ = false;
    }
    return j;
  }

  bool aligning_ = true;
  bool bootstrapped_ = false;
  index_t slots_ = 0;
  std::uint64_t cursor_ = 0;
  real phase_energy_ = -1.0;
  index_t phase_tx_ = 0, phase_rx_ = 0;
  SlotScratch slot_;
};

// ---------------------------------------------------------------------------
// Neighborhood re-scan (the session's widened-window recovery as a
// tracker).
class NeighborhoodTracker final : public TrackerCore {
 public:
  TrackerReport step(const TrackerContext& ctx) override {
    if (!aligned_) {
      aligned_ = true;
      return report(acquire(ctx), true);
    }
    if (reacquire_) {
      // Post-handover: the imported pair is a hypothesis on a new site —
      // rescan its widest window immediately instead of trusting it.
      reacquire_ = false;
      return report(scan_windows(ctx), true);
    }
    const Verify v = verify(ctx);
    if (!v.collapsed) return report(1, false);
    best_ = {state_.tx_beam, state_.rx_beam, v.energy};
    return report(1 + scan_windows(ctx), true, true);
  }

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
  index_t scan_windows(const TrackerContext& ctx) {
    const index_t m = ctx.tx_codebook->size();
    const index_t n = ctx.rx_codebook->size();
    const real threshold = state_.trained_energy > 0.0
                               ? collapse_threshold()
                               : std::numeric_limits<real>::infinity();
    if (best_.energy < 0.0) {
      best_.tx_beam = state_.tx_beam;
      best_.rx_beam = state_.rx_beam;
    }
    index_t probes = 0;
    probed_.assign(m * n, false);
    const bool recovered = mac::rescan_windows(
        m, n, TrackerOptions::max_retries, TrackerOptions::widen_radius,
        threshold, probed_, best_, [&](index_t t, index_t r) {
          ++probes;
          return probe(ctx, t, r);
        });
    if (!recovered && state_.trained_energy > 0.0) {
      // The window missed: the pair moved further than drift explains.
      probes += acquire(ctx);
    } else {
      state_.tx_beam = best_.tx_beam;
      state_.rx_beam = best_.rx_beam;
      state_.trained_energy = best_.energy;
    }
    best_.energy = -1.0;
    return probes;
  }

  bool aligned_ = false;
  bool reacquire_ = false;
  mac::MeasurementRecord best_{0, 0, -1.0};  ///< energy < 0: unseeded
  std::vector<bool> probed_;
};

// ---------------------------------------------------------------------------
// Correlated UCB bandit over beam pairs.
class BanditTracker final : public TrackerCore {
 public:
  TrackerReport step(const TrackerContext& ctx) override {
    const index_t m = ctx.tx_codebook->size();
    const index_t n = ctx.rx_codebook->size();
    ensure_arms(m, n);
    if (!initialized_) {
      // Cold attach: one exhaustive pass seeds every arm.
      const index_t probes = acquire(ctx);
      const real noise = 1.0 / ctx.gamma;
      // Storing every pair's sweep energy would defeat the point of a
      // bandit; seed arm means from the per-RX excess (shared across the
      // TX axis) and let subsequent pulls re-localize TX.
      for (index_t t = 0; t < m; ++t)
        for (index_t r = 0; r < n; ++r) mu_[t * n + r] = rx_excess_[r] + noise;
      weight_.assign(m * n, 0.5);
      const index_t swept = state_.tx_beam * n + state_.rx_beam;
      mu_[swept] = state_.trained_energy;
      weight_[swept] = 1.0;
      initialized_ = true;
      t_ = 1;
      claim(n);
      return report(probes, true);
    }

    ++t_;
    for (real& w : weight_) w *= TrackerOptions::bandit_forgetting;
    const index_t pulls =
        std::min<index_t>(TrackerOptions::bandit_probes, mu_.size());
    // Select all arms first (the top UCB scores, ties → lowest index),
    // then probe in ascending arm order — the canonical measurement order
    // every other engine uses.
    real scale = 0.0;
    for (const real v : mu_) scale += v;
    scale /= static_cast<real>(mu_.size());
    ucb_.resize(mu_.size());
    for (index_t a = 0; a < mu_.size(); ++a) {
      const real bonus = TrackerOptions::ucb_c * scale *
                         std::sqrt(std::log(static_cast<real>(t_) + 1.0) /
                                   std::max(weight_[a], 1e-3));
      ucb_[a] = mu_[a] + bonus;
    }
    pulls_.clear();
    antenna::rank_beams(ucb_, antenna::kNoFloor, pulls, pulls_);
    std::sort(pulls_.begin(), pulls_.end());
    const index_t old_tx = state_.tx_beam, old_rx = state_.rx_beam;
    for (const index_t a : pulls_) {
      const index_t t = a / n, r = a % n;
      const real e = probe(ctx, t, r);
      absorb(a, e, 1.0);
      // Correlated update: adjacent arms on either beam axis share the
      // reward at a discount (the angular overlap of neighboring
      // codewords makes their means strongly correlated).
      const real k = TrackerOptions::neighbor_coupling;
      if (r > 0) absorb(a - 1, e, k);
      if (r + 1 < n) absorb(a + 1, e, k);
      if (t > 0) absorb(a - n, e, k);
      if (t + 1 < m) absorb(a + n, e, k);
    }
    claim(n);
    return report(pulls_.size(),
                  state_.tx_beam != old_tx || state_.rx_beam != old_rx);
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
      out.components = components_from_excess(rx_best);
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

  std::vector<real> mu_;      ///< arm mean energy
  std::vector<real> weight_;  ///< arm evidence weight (decayed)
  std::vector<real> ucb_;  ///< arm UCB scores of the current epoch
  std::vector<index_t> pulls_;
  std::vector<estimation::BeamComponent> pending_prior_;
  bool has_pending_prior_ = false;
  bool initialized_ = false;
  std::uint64_t t_ = 0;
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

std::unique_ptr<Tracker> make_tracker(TrackerKind kind) {
  switch (kind) {
    case TrackerKind::kColdStart:
      return std::make_unique<ColdStartTracker>();
    case TrackerKind::kWarmMl:
      return std::make_unique<WarmMlTracker>();
    case TrackerKind::kNeighborhood:
      return std::make_unique<NeighborhoodTracker>();
    case TrackerKind::kBanditUcb:
      return std::make_unique<BanditTracker>();
  }
  MMW_REQUIRE_MSG(false, "unknown tracker kind");
  return nullptr;
}

}  // namespace mmw::track
