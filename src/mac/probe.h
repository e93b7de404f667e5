// The resident-state-free measurement chain: one matched-filter probe of a
// beam pair over a realized link, with blockage and interference folded in.
//
// mac::Session owns per-run resident state (budget, ledger, records) around
// this chain; the serving engine (src/serve/) rebuilds links from RNG
// streams every epoch and probes through the SAME chain without holding a
// Session per user — which is why the chain lives here as a borrowed-view
// free function instead of a Session private (DESIGN.md §13).
//
// The widened-window rescan (rescan_windows) lives here for the same
// reason: the Session's re-alignment and the neighborhood tracker run one
// loop over their own probes.
//
// Determinism: probe_energy consumes a fixed draw sequence from `rng` —
// one uniform when blockage_probability > 0, then per fade one
// complex-normal noise draw plus (unless the slot is blocked) one effective
// channel draw — identical to the historical Session::probe_energy, so
// extracting it moved no bytes in any golden CSV.
#pragma once

#include <span>
#include <vector>

#include "antenna/codebook.h"
#include "channel/link.h"
#include "randgen/rng.h"

namespace mmw::mac {

/// Borrowed view of everything one probe needs. All pointers are non-owning
/// and must outlive the call; `link` is the ACTIVE link (callers with a
/// fault plan resolve clean vs degraded before building the view).
struct ProbeView {
  const channel::Link* link = nullptr;
  const antenna::Codebook* tx_codebook = nullptr;
  const antenna::Codebook* rx_codebook = nullptr;
  /// Linear pre-beamforming Es/N0 (noise variance is 1/gamma).
  real gamma = 0.0;
  /// Per-slot Bernoulli blockage: with this probability the whole probe is
  /// shadowed and the matched filter sees noise only. 0 = never.
  real blockage_probability = 0.0;
  /// Mean co-channel interference power per RX codeword (linear, added to
  /// the noise floor); empty = no interference.
  std::span<const real> interference = {};
};

/// Simulates one measurement slot of `fades` independent fades on the pair
/// (tx_beam, rx_beam) and returns the average matched-filter energy |z|².
/// `scratch` is the caller's reusable effective-channel buffer; it must be
/// sized to the link's RX array and must not alias anything in `view`.
/// Preconditions: indices valid, fades ≥ 1, view pointers non-null,
/// view.interference empty or sized to the RX codebook.
real probe_energy(const ProbeView& view, index_t tx_beam, index_t rx_beam,
                  index_t fades, randgen::Rng& rng, linalg::Vector& scratch);

/// Outage depth: a verify probe more than this many dB below the trained
/// energy declares the claimed pair collapsed (blockage). Session, the
/// serving engine and the trackers all use this one value.
inline constexpr real kCollapseDb = 10.0;

/// 10^(−collapse_db/10): the share of the trained energy below which a
/// verify probe declares the claimed pair collapsed (Session, the serving
/// engine and the trackers all apply this one test).
real collapse_scale(real collapse_db);

/// One completed beam-pair measurement.
struct MeasurementRecord {
  index_t tx_beam = 0;   ///< index into the TX codebook (u_i)
  index_t rx_beam = 0;   ///< index into the RX codebook (v_j)
  real energy = 0.0;     ///< matched-filter energy |z|²
};

/// The widened-beam rescan of a collapsed pair, shared by
/// Session::verify_and_realign and track's neighborhood tracker. Retry
/// r = 1..retries sweeps the Chebyshev window of radius r·widen_radius
/// around `best`'s pair at entry: for each offset, first the TX ring
/// against the centre RX beam, then the centre TX beam against the RX
/// window, indices wrapping mod n_tx / n_rx (the codebooks tile the angular
/// domain). probe(tx, rx) takes one measurement and returns its energy.
/// Pairs already marked in the caller's ledger `probed` (index tx·n_rx + rx)
/// are skipped and every probed pair is marked; `best` is raised to every
/// better energy. Returns true at the first probe at or above `threshold`.
template <typename Probe>
bool rescan_windows(index_t n_tx, index_t n_rx, index_t retries,
                    index_t widen_radius, real threshold,
                    std::vector<bool>& probed, MeasurementRecord& best,
                    Probe&& probe) {
  const index_t center_tx = best.tx_beam;
  const index_t center_rx = best.rx_beam;
  const auto wrap = [](index_t center, long long offset, index_t size) {
    const long long s = static_cast<long long>(size);
    return static_cast<index_t>(
        (static_cast<long long>(center) + offset % s + s) % s);
  };
  const auto try_pair = [&](index_t tx_beam, index_t rx_beam) {
    if (probed[tx_beam * n_rx + rx_beam]) return false;
    probed[tx_beam * n_rx + rx_beam] = true;
    const real e = probe(tx_beam, rx_beam);
    if (e > best.energy) best = {tx_beam, rx_beam, e};
    return e >= threshold;
  };
  for (index_t retry = 1; retry <= retries; ++retry) {
    const long long radius = static_cast<long long>(retry * widen_radius);
    for (long long off = -radius; off <= radius; ++off)
      if (try_pair(wrap(center_tx, off, n_tx), center_rx) ||
          try_pair(center_tx, wrap(center_rx, off, n_rx)))
        return true;
  }
  return false;
}

}  // namespace mmw::mac
