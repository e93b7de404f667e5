// The MAC-layer measurement session: the interface an alignment strategy
// uses to train beam pairs. It owns the measurement budget, the no-repeat
// ledger, and the noisy matched-filter measurement chain (paper Sec. III-B).
//
// Ownership: a Session BORROWS the link, both codebooks, and the Rng (it
// stores non-owning pointers); the caller must keep all four alive for the
// session's lifetime. It OWNS its measurement records, its ledger and its
// run's fault tallies (fault::TrialFaultState; the plan inside is borrowed).
//
// Thread-safety: a Session is single-threaded by design — measure() mutates
// the ledger and advances the borrowed Rng, so a session must be confined
// to one thread at a time, and sessions sharing an Rng must not run
// concurrently. The parallel Monte-Carlo drivers give every trial its own
// Session + Rng stream; the borrowed Link and Codebooks are only read
// through const methods and may be shared across threads freely.
//
// Units: gamma is LINEAR pre-beamforming Es/N0 (callers convert from dB);
// recorded energies are linear |z|² averages, not dB.
#pragma once

#include <optional>
#include <vector>

#include "antenna/codebook.h"
#include "channel/link.h"
#include "fault/fault.h"
#include "mac/probe.h"
#include "randgen/rng.h"

namespace mmw::mac {

/// A beam-training session over one realized link.
///
/// Each measure() call simulates the full chain of paper eqs. (4)–(10):
/// the TX dwells on codeword u, the RX points codeword v, the channel fades
/// independently (H_j iid), and the matched filter yields
///   z = vᴴ H u + n,   n ~ CN(0, 1/γ).
/// A measurement slot spans `fades_per_measurement` independent fades
/// (OFDM-style frequency/time diversity within the slot); the recorded
/// energy is the average of the per-fade |z|², so its mean is the paper's
/// λ = vᴴ(Q_u + γ⁻¹I)v with relative spread 1/√K. K = 1 reproduces the
/// strict single-sample model of eq. (9); the paper's premise that a 100%
/// scan finds the optimal pair with no loss requires K ≫ 1.
///
/// Beam pairs are never measured twice (paper Sec. V: "if a beam pair has
/// already been measured, it will no longer be measured") — a repeat is a
/// strategy bug and throws.
class Session {
 public:
  /// `budget` is L, the total number of measurements allowed; it is clamped
  /// to the codebook product T = |U|·|V|.
  Session(const channel::Link& link, const antenna::Codebook& tx_codebook,
          const antenna::Codebook& rx_codebook, real gamma, index_t budget,
          randgen::Rng& rng, index_t fades_per_measurement = 1);

  const antenna::Codebook& tx_codebook() const { return *tx_codebook_; }
  const antenna::Codebook& rx_codebook() const { return *rx_codebook_; }
  real gamma() const { return gamma_; }
  index_t fades_per_measurement() const { return fades_; }
  randgen::Rng& rng() { return *rng_; }

  index_t budget() const { return budget_; }
  index_t measurements_taken() const { return records_.size(); }
  index_t remaining_budget() const { return budget_ - records_.size(); }
  bool exhausted() const { return remaining_budget() == 0; }

  bool has_measured(index_t tx_beam, index_t rx_beam) const;

  /// Failure injection: with this probability a measurement slot is
  /// blocked — the mmWave path is shadowed (a passing pedestrian/vehicle)
  /// and the matched filter sees noise only. Models the blockage events
  /// mmWave links are notorious for. Default 0 (no blockage).
  /// Precondition: 0 ≤ p ≤ 1. Must be set before training starts.
  void set_blockage_probability(real p);
  real blockage_probability() const { return blockage_probability_; }

  /// Inter-cell interference, folded into the matched-filter noise floor:
  /// entry v is the mean co-channel interference power seen by RX codeword
  /// v (linear, same units as the 1/γ noise variance), precomputed by the
  /// multi-cell engine from the other cells' currently-active TX beams
  /// (sim/multicell.h). Each fade of a measurement on RX beam v then draws
  /// its additive term from CN(0, 1/γ + I_v) — interference from many
  /// unsynchronized co-channel fades is Gaussian to the matched filter, so
  /// it raises the noise floor beam-selectively without changing how many
  /// random draws a measurement consumes (the serial/parallel determinism
  /// contract is untouched).
  /// Preconditions: size == |V|, entries ≥ 0, set before training starts.
  void set_interference(std::vector<real> per_rx_beam_power);

  /// Arms deterministic fault injection (DESIGN.md §11): slot drops and
  /// energy outliers follow `plan`'s schedule keyed by the slot index, and
  /// from the plan's blockage onset onwards measurements draw their signal
  /// from `degraded_link` instead of the clean link. Both pointers are
  /// BORROWED for the session's lifetime; `degraded_link` is required
  /// exactly when the plan has a blockage event and must share the clean
  /// link's array sizes. Must be armed before training starts. A dropped
  /// slot consumes NO random draws; every other fault leaves the draw
  /// sequence untouched, so the determinism contract is preserved.
  void arm_faults(const fault::FaultPlan* plan,
                  const channel::Link* degraded_link);

  /// The run's fault state for the degradation ladder: null until a plan
  /// is armed, so a clean run's solves take the clean path; once armed,
  /// every covariance solve a strategy makes on this session advances it.
  fault::TrialFaultState* armed_faults() {
    return faults_.plan != nullptr ? &faults_ : nullptr;
  }
  /// The armed plan and this run's solve tallies (all zero on a clean run).
  const fault::TrialFaultState& fault_state() const { return faults_; }

  /// Performs one measurement and returns the observed energy |z|².
  /// Preconditions: budget not exhausted, indices valid, pair unmeasured.
  real measure(index_t tx_beam, index_t rx_beam);

  /// All measurements, in the order they were taken.
  const std::vector<MeasurementRecord>& records() const { return records_; }

  /// The pair with the highest measured energy so far (the best pair a
  /// receiver can claim from its observations, paper eq. 30), or nullopt if
  /// nothing has been measured.
  std::optional<MeasurementRecord> best_measured() const;

  /// Post-alignment verification / re-alignment policy (DESIGN.md §11).
  struct RealignmentPolicy {
    /// Independent fades averaged per verification/recovery probe.
    static constexpr index_t verify_fades = 4;
    /// Outage declaration: the verified energy of the claimed pair fell
    /// this many dB below its trained energy (SNR collapse — blockage).
    static constexpr real collapse_db = kCollapseDb;
    /// Bounded retry rounds after an outage; round r probes the widened
    /// neighborhood of Chebyshev radius r·widen_radius.
    static constexpr index_t max_retries = 2;
    static constexpr index_t widen_radius = 1;
  };

  struct RealignmentReport {
    bool outage = false;     ///< verified energy collapsed below threshold
    bool recovered = false;  ///< a recovery probe restored energy above it
    index_t tx_beam = 0;     ///< final claimed pair (post-recovery)
    index_t rx_beam = 0;
    real energy = 0.0;       ///< verified energy of the final pair
  };

  /// Verifies the claimed best pair with fresh fades and, on SNR collapse
  /// (mid-alignment blockage), retries with a widened-beam fallback
  /// (mac::rescan_windows around the claimed pair, which counts as already
  /// probed), keeping the best energy seen; it stops early when a probe
  /// clears the collapse threshold. All probes are charged to the separate
  /// recovery ledger (recovery_slots()), NOT to the training budget or
  /// records() — prefix grading of the training trajectory is untouched,
  /// and cost metrics add recovery_slots() explicitly (bench E8). Returns
  /// the best pair found (best-effort even when recovery fails); a session
  /// with no measurements reports a default (no-outage) record.
  RealignmentReport verify_and_realign();

  /// Extra measurement slots spent on verification and recovery.
  index_t recovery_slots() const { return recovery_slots_; }

 private:
  /// Shared measurement chain of measure() and the recovery probes:
  /// `slot` indexes the fault plan (training slot or post-training
  /// recovery slot) and selects the clean or post-onset-degraded link.
  real probe_energy(index_t tx_beam, index_t rx_beam, index_t fades,
                    index_t slot);
  const channel::Link* link_;
  const antenna::Codebook* tx_codebook_;
  const antenna::Codebook* rx_codebook_;
  real gamma_;
  index_t budget_;
  index_t fades_;
  real blockage_probability_ = 0.0;
  std::vector<real> interference_;  ///< per-RX-beam power; empty = none
  fault::TrialFaultState faults_;  ///< plan borrowed; null on a clean run
  const channel::Link* degraded_link_ = nullptr;  ///< borrowed; may be null
  randgen::Rng* rng_;
  std::vector<MeasurementRecord> records_;
  index_t recovery_slots_ = 0;
  std::vector<bool> measured_;  ///< tx_beam·|V| + rx_beam
  linalg::Vector fade_scratch_;  ///< reused per-fade effective channel H·u
};

}  // namespace mmw::mac
