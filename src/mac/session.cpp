#include "mac/session.h"

#include <algorithm>

#include "obs/metrics.h"

namespace mmw::mac {

namespace {

struct SessionMetrics {
  obs::Counter measurements;
  obs::Counter blocked;
  obs::Counter dropped;
  obs::Counter outliers;
  obs::Counter realign_checks;
  obs::Counter realign_outages;
  obs::Counter realign_recoveries;
  obs::Counter realign_slots;
  static const SessionMetrics& get() {
    static const SessionMetrics m{
        obs::Registry::global().counter("mac.session.measurements"),
        obs::Registry::global().counter("mac.session.blocked"),
        obs::Registry::global().counter("mac.session.dropped"),
        obs::Registry::global().counter("mac.session.outliers"),
        obs::Registry::global().counter("mac.session.realign.checks"),
        obs::Registry::global().counter("mac.session.realign.outages"),
        obs::Registry::global().counter("mac.session.realign.recoveries"),
        obs::Registry::global().counter("mac.session.realign.slots"),
    };
    return m;
  }
};

}  // namespace

Session::Session(const channel::Link& link,
                 const antenna::Codebook& tx_codebook,
                 const antenna::Codebook& rx_codebook, real gamma,
                 index_t budget, randgen::Rng& rng,
                 index_t fades_per_measurement)
    : link_(&link),
      tx_codebook_(&tx_codebook),
      rx_codebook_(&rx_codebook),
      gamma_(gamma),
      budget_(std::min(budget, tx_codebook.size() * rx_codebook.size())),
      fades_(fades_per_measurement),
      rng_(&rng),
      measured_(tx_codebook.size() * rx_codebook.size(), false),
      fade_scratch_(link.rx_size()) {
  MMW_REQUIRE_MSG(gamma > 0.0, "SNR gamma must be positive");
  MMW_REQUIRE_MSG(budget > 0, "measurement budget must be positive");
  MMW_REQUIRE_MSG(fades_per_measurement > 0,
                  "need at least one fade per measurement");
  MMW_REQUIRE_MSG(tx_codebook.codeword(0).size() == link.tx_size(),
                  "TX codebook does not match the TX array");
  MMW_REQUIRE_MSG(rx_codebook.codeword(0).size() == link.rx_size(),
                  "RX codebook does not match the RX array");
}

bool Session::has_measured(index_t tx_beam, index_t rx_beam) const {
  MMW_REQUIRE(tx_beam < tx_codebook_->size());
  MMW_REQUIRE(rx_beam < rx_codebook_->size());
  return measured_[tx_beam * rx_codebook_->size() + rx_beam];
}

void Session::set_blockage_probability(real p) {
  MMW_REQUIRE_MSG(p >= 0.0 && p <= 1.0,
                  "blockage probability must be in [0, 1]");
  MMW_REQUIRE_MSG(records_.empty(),
                  "blockage must be configured before training starts");
  blockage_probability_ = p;
}

void Session::set_interference(std::vector<real> per_rx_beam_power) {
  MMW_REQUIRE_MSG(per_rx_beam_power.size() == rx_codebook_->size(),
                  "interference profile must cover every RX codeword");
  MMW_REQUIRE_MSG(records_.empty(),
                  "interference must be configured before training starts");
  for (const real p : per_rx_beam_power)
    MMW_REQUIRE_MSG(p >= 0.0, "interference power must be non-negative");
  interference_ = std::move(per_rx_beam_power);
}

void Session::arm_faults(const fault::FaultPlan* plan,
                         const channel::Link* degraded_link) {
  MMW_REQUIRE_MSG(records_.empty(),
                  "faults must be armed before training starts");
  if (plan != nullptr && plan->has_blockage()) {
    MMW_REQUIRE_MSG(degraded_link != nullptr,
                    "a blockage plan needs the post-onset degraded link");
    MMW_REQUIRE_MSG(degraded_link->tx_size() == link_->tx_size() &&
                        degraded_link->rx_size() == link_->rx_size(),
                    "degraded link must match the clean link's array sizes");
  }
  faults_.plan = plan;
  degraded_link_ = degraded_link;
}

real Session::probe_energy(index_t tx_beam, index_t rx_beam, index_t fades,
                           index_t slot) {
  ProbeView view;
  // A blockage event is a large-scale transition: once active, every probe
  // (training or recovery) sees the degraded link until the session ends.
  const fault::FaultPlan* plan = faults_.plan;
  view.link =
      (plan != nullptr && plan->has_blockage() && plan->blockage_active(slot))
          ? degraded_link_
          : link_;
  view.tx_codebook = tx_codebook_;
  view.rx_codebook = rx_codebook_;
  view.gamma = gamma_;
  view.blockage_probability = blockage_probability_;
  view.interference = interference_;
  return mac::probe_energy(view, tx_beam, rx_beam, fades, *rng_,
                           fade_scratch_);
}

real Session::measure(index_t tx_beam, index_t rx_beam) {
  MMW_REQUIRE_MSG(!exhausted(), "measurement budget exhausted");
  MMW_REQUIRE_MSG(!has_measured(tx_beam, rx_beam),
                  "beam pair measured twice");

  const index_t slot = records_.size();
  const fault::SlotFault slot_fault =
      faults_.plan != nullptr ? faults_.plan->slot(slot) : fault::SlotFault{};
  real energy = 0.0;
  if (slot_fault.dropped) {
    // Control-channel loss: the slot is spent and nothing is observed. No
    // random draws are consumed, so the sequence of draws for the
    // remaining slots is exactly the clean run's (determinism contract).
    if (obs::enabled()) SessionMetrics::get().dropped.add();
  } else {
    energy = probe_energy(tx_beam, rx_beam, fades_, slot) *
             slot_fault.energy_scale;
    if (slot_fault.energy_scale != 1.0 && obs::enabled())
      SessionMetrics::get().outliers.add();
  }

  measured_[tx_beam * rx_codebook_->size() + rx_beam] = true;
  records_.push_back({tx_beam, rx_beam, energy});
  if (obs::enabled()) SessionMetrics::get().measurements.add();
  return energy;
}

std::optional<MeasurementRecord> Session::best_measured() const {
  if (records_.empty()) return std::nullopt;
  return *std::max_element(records_.begin(), records_.end(),
                           [](const MeasurementRecord& a,
                              const MeasurementRecord& b) {
                             return a.energy < b.energy;
                           });
}

Session::RealignmentReport Session::verify_and_realign() {
  using Policy = RealignmentPolicy;
  RealignmentReport report;
  const std::optional<MeasurementRecord> best = best_measured();
  if (!best) return report;

  // Recovery probes occupy slot indices past the training schedule, so the
  // per-slot fault schedule (sized to the budget) never applies to them;
  // a blockage event, being a persistent large-scale state, still does.
  auto probe = [&](index_t tx_beam, index_t rx_beam) {
    const index_t slot = budget_ + recovery_slots_;
    const real e = probe_energy(tx_beam, rx_beam, Policy::verify_fades, slot);
    ++recovery_slots_;
    if (obs::enabled()) SessionMetrics::get().realign_slots.add();
    return e;
  };

  if (obs::enabled()) SessionMetrics::get().realign_checks.add();
  const real threshold = best->energy * collapse_scale(Policy::collapse_db);
  MeasurementRecord found{best->tx_beam, best->rx_beam,
                          probe(best->tx_beam, best->rx_beam)};
  if (found.energy < threshold) {
    report.outage = true;
    if (obs::enabled()) SessionMetrics::get().realign_outages.add();
    const index_t n_tx = tx_codebook_->size();
    const index_t n_rx = rx_codebook_->size();
    std::vector<bool> probed(n_tx * n_rx, false);
    probed[best->tx_beam * n_rx + best->rx_beam] = true;
    report.recovered =
        rescan_windows(n_tx, n_rx, Policy::max_retries, Policy::widen_radius,
                       threshold, probed, found, probe);
    if (report.recovered && obs::enabled())
      SessionMetrics::get().realign_recoveries.add();
  }

  report.tx_beam = found.tx_beam;
  report.rx_beam = found.rx_beam;
  report.energy = found.energy;
  return report;
}

}  // namespace mmw::mac
