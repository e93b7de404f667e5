#include "core/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace mmw::core {

PairGainOracle::PairGainOracle(const channel::Link& link,
                               const antenna::Codebook& tx_codebook,
                               const antenna::Codebook& rx_codebook)
    : gains_(tx_codebook.size(), rx_codebook.size()) {
  MMW_REQUIRE(tx_codebook.codeword(0).size() == link.tx_size());
  MMW_REQUIRE(rx_codebook.codeword(0).size() == link.rx_size());

  // G(t, r) = NM · Σ_l p_l |a_tx,lᴴ u_t|² |v_rᴴ a_rx,l|² factorizes into
  // per-path coupling tables, so the full T-pair table costs
  // O(paths · (|U| + |V|)) inner products instead of O(paths · T).
  const auto& paths = link.paths();
  const index_t nt = tx_codebook.size();
  const index_t nr = rx_codebook.size();
  std::vector<real> tx_coupling(paths.size() * nt);
  std::vector<real> rx_coupling(paths.size() * nr);
  for (index_t l = 0; l < paths.size(); ++l) {
    for (index_t t = 0; t < nt; ++t)
      tx_coupling[l * nt + t] =
          std::norm(linalg::dot(link.tx_steering(l), tx_codebook.codeword(t)));
    for (index_t r = 0; r < nr; ++r)
      rx_coupling[l * nr + r] =
          std::norm(linalg::dot(rx_codebook.codeword(r), link.rx_steering(l)));
  }
  const real nm = static_cast<real>(link.tx_size() * link.rx_size());
  for (index_t t = 0; t < nt; ++t) {
    for (index_t r = 0; r < nr; ++r) {
      real acc = 0.0;
      for (index_t l = 0; l < paths.size(); ++l)
        acc += paths[l].power * tx_coupling[l * nt + t] *
               rx_coupling[l * nr + r];
      const real g = nm * acc;
      gains_(t, r) = cx{g, 0.0};
      if (g > optimal_gain_) {
        optimal_gain_ = g;
        optimal_ = {t, r};
      }
    }
  }
  MMW_REQUIRE_MSG(optimal_gain_ > 0.0,
                  "degenerate link: every codebook pair has zero gain");
}

real PairGainOracle::gain(index_t tx_beam, index_t rx_beam) const {
  MMW_REQUIRE(tx_beam < tx_size() && rx_beam < rx_size());
  return gains_(tx_beam, rx_beam).real();
}

real PairGainOracle::loss_db(index_t tx_beam, index_t rx_beam) const {
  const real g = gain(tx_beam, rx_beam);
  if (g <= 0.0) return std::numeric_limits<real>::infinity();
  return 10.0 * std::log10(optimal_gain_ / g);
}

real best_mean_pair_gain(const channel::Link& link,
                         const antenna::Codebook& tx_codebook,
                         const antenna::Codebook& rx_codebook) {
  real best = 0.0;
  for (index_t t = 0; t < tx_codebook.size(); ++t)
    for (index_t r = 0; r < rx_codebook.size(); ++r)
      best = std::max(best, link.mean_pair_gain(tx_codebook.codeword(t),
                                                rx_codebook.codeword(r)));
  return best;
}

}  // namespace mmw::core
