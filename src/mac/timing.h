// Protocol timing model: converts measurement counts into air-time and
// alignment overhead — the quantity the paper's introduction is really
// about ("direction finding ... would significantly compromise the
// transmission capacity").
#pragma once

#include "linalg/common.h"

namespace mmw::mac {

/// Durations of the MAC primitives involved in beam training, representative
/// of 802.15.3c/5G-NR-style numerology (microseconds).
struct ProtocolTiming {
  /// One beam-pair sounding + matched filter.
  static constexpr real measurement_slot_us = 10.0;
  /// Analog phase-shifter retune.
  static constexpr real beam_switch_us = 0.5;
  /// RX→TX report at the end of a TX-slot.
  static constexpr real feedback_slot_us = 25.0;
  /// Covariance-estimate compute budget.
  static constexpr real estimation_us = 50.0;

  /// Air time to take `measurements` measurements organized into
  /// `tx_slots` TX-slots (one feedback + one estimation per TX-slot, one
  /// beam switch per measurement). Preconditions: tx_slots ≥ 1 when
  /// measurements > 0, and measurements ≥ tx_slots.
  real alignment_latency_us(index_t measurements, index_t tx_slots) const;

  /// Fraction of a frame lost to alignment when re-training every
  /// `frame_us` microseconds. Clamped to [0, 1].
  real overhead_fraction(index_t measurements, index_t tx_slots,
                         real frame_us) const;

  /// Net spectral efficiency (bit/s/Hz) after paying the alignment
  /// overhead: (1 − overhead)·log2(1 + post_beamforming_snr).
  real net_spectral_efficiency(index_t measurements, index_t tx_slots,
                               real frame_us,
                               real post_beamforming_snr) const;
};

}  // namespace mmw::mac
