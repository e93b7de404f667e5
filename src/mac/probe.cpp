#include "mac/probe.h"

#include <cmath>

#include "linalg/matrix.h"
#include "obs/metrics.h"

namespace mmw::mac {

real probe_energy(const ProbeView& view, index_t tx_beam, index_t rx_beam,
                  index_t fades, randgen::Rng& rng, linalg::Vector& scratch) {
  MMW_REQUIRE(view.link != nullptr && view.tx_codebook != nullptr &&
              view.rx_codebook != nullptr);
  MMW_REQUIRE(tx_beam < view.tx_codebook->size());
  MMW_REQUIRE(rx_beam < view.rx_codebook->size());
  MMW_REQUIRE(fades > 0);
  MMW_REQUIRE(view.interference.empty() ||
              view.interference.size() == view.rx_codebook->size());
  const linalg::Vector& u = view.tx_codebook->codeword(tx_beam);
  const linalg::Vector& v = view.rx_codebook->codeword(rx_beam);
  // Bernoulli blockage shadows the whole slot, not individual fades.
  const bool blocked = view.blockage_probability > 0.0 &&
                       rng.uniform() < view.blockage_probability;
  // Effective noise floor: thermal 1/γ plus the beam's mean co-channel
  // interference power (multi-cell runs; 0 otherwise).
  const real noise_var =
      1.0 / view.gamma +
      (view.interference.empty() ? 0.0 : view.interference[rx_beam]);
  // Average matched-filter energy over the slot's independent fades.
  real energy = 0.0;
  for (index_t k = 0; k < fades; ++k) {
    cx z = rng.complex_normal(noise_var);
    if (!blocked) {
      view.link->draw_effective_channel_into(u, rng, scratch);
      z += linalg::dot(v, scratch);
    }
    energy += std::norm(z);
  }
  if (blocked && obs::enabled()) {
    static const obs::Counter counter =
        obs::Registry::global().counter("mac.session.blocked");
    counter.add();
  }
  return energy / static_cast<real>(fades);
}

real collapse_scale(real collapse_db) {
  return std::pow(10.0, -collapse_db / 10.0);
}

}  // namespace mmw::mac
