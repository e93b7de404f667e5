#include "antenna/codebook.h"

#include <algorithm>
#include <cmath>

#include "antenna/steering.h"
#include "obs/metrics.h"

namespace mmw::antenna {

namespace {

/// Codebook scoring telemetry: one "pass" = scoring every codeword against
/// one covariance estimate. Factored vs. dense passes are split because
/// the factored path is the PR-3 optimization the metrics exist to witness.
struct ScoreMetrics {
  obs::Counter passes_factored;
  obs::Counter passes_dense;
  obs::Counter scored_codewords;
  static const ScoreMetrics& get() {
    static const ScoreMetrics m{
        obs::Registry::global().counter(
            "antenna.codebook.score_passes_factored"),
        obs::Registry::global().counter("antenna.codebook.score_passes_dense"),
        obs::Registry::global().counter("antenna.codebook.scored_codewords"),
    };
    return m;
  }
};

}  // namespace

Codebook Codebook::dft(const ArrayGeometry& geometry) {
  const index_t nx = geometry.grid_x();
  const index_t ny = geometry.grid_y();
  const index_t n = geometry.size();
  MMW_REQUIRE_MSG(nx * ny == n, "DFT codebook requires a grid geometry");

  const real scale = 1.0 / std::sqrt(static_cast<real>(n));
  std::vector<linalg::Vector> codewords;
  codewords.reserve(n);
  // Element index is row-major over (ix, iy), matching ArrayGeometry::upa.
  for (index_t kx = 0; kx < nx; ++kx) {
    for (index_t ky = 0; ky < ny; ++ky) {
      linalg::Vector c(n);
      for (index_t ix = 0; ix < nx; ++ix) {
        for (index_t iy = 0; iy < ny; ++iy) {
          const real phase =
              2.0 * M_PI *
              (static_cast<real>(ix * kx) / static_cast<real>(nx) +
               static_cast<real>(iy * ky) / static_cast<real>(ny));
          c[ix * ny + iy] = scale * cx{std::cos(phase), std::sin(phase)};
        }
      }
      codewords.push_back(std::move(c));
    }
  }
  return Codebook(std::move(codewords), nx, ny, /*wraps=*/true);
}

Codebook Codebook::angular_grid(const ArrayGeometry& geometry, index_t n_az,
                                index_t n_el, real az_min, real az_max,
                                real el_min, real el_max) {
  MMW_REQUIRE(n_az > 0 && n_el > 0);
  MMW_REQUIRE(az_min < az_max || (n_az == 1 && az_min == az_max));
  MMW_REQUIRE(el_min < el_max || (n_el == 1 && el_min == el_max));
  std::vector<linalg::Vector> codewords;
  codewords.reserve(n_az * n_el);
  for (index_t ia = 0; ia < n_az; ++ia) {
    const real az =
        n_az == 1 ? az_min
                  : az_min + (az_max - az_min) * static_cast<real>(ia) /
                                 static_cast<real>(n_az - 1);
    for (index_t ie = 0; ie < n_el; ++ie) {
      const real el =
          n_el == 1 ? el_min
                    : el_min + (el_max - el_min) * static_cast<real>(ie) /
                                   static_cast<real>(n_el - 1);
      codewords.push_back(steering_vector(geometry, {az, el}));
    }
  }
  return Codebook(std::move(codewords), n_az, n_el, /*wraps=*/false);
}

std::pair<index_t, index_t> Codebook::coordinates(index_t i) const {
  MMW_REQUIRE(i < size());
  return {i / grid_y_, i % grid_y_};
}

std::vector<index_t> Codebook::neighbors(index_t i) const {
  const auto [x, y] = coordinates(i);
  std::vector<index_t> out;
  out.reserve(4);
  auto push = [&](index_t nx_, index_t ny_) {
    out.push_back(nx_ * grid_y_ + ny_);
  };
  if (x > 0)
    push(x - 1, y);
  else if (wraps_ && grid_x_ > 1)
    push(grid_x_ - 1, y);
  if (x + 1 < grid_x_)
    push(x + 1, y);
  else if (wraps_ && grid_x_ > 1)
    push(0, y);
  if (y > 0)
    push(x, y - 1);
  else if (wraps_ && grid_y_ > 1)
    push(x, grid_y_ - 1);
  if (y + 1 < grid_y_)
    push(x, y + 1);
  else if (wraps_ && grid_y_ > 1)
    push(x, 0);
  // Wraparound on a 2-wide axis can produce the same neighbour twice.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

index_t Codebook::best_match(const linalg::Vector& v) const {
  MMW_REQUIRE(size() > 0);
  index_t best = 0;
  real best_mag = -1.0;
  for (index_t i = 0; i < size(); ++i) {
    const real mag = std::abs(linalg::dot(codewords_[i], v));
    if (mag > best_mag) {
      best_mag = mag;
      best = i;
    }
  }
  return best;
}

void Codebook::covariance_scores_into(const linalg::Matrix& q,
                                      std::span<real> out) const {
  MMW_REQUIRE(q.rows() == codewords_.front().size());
  MMW_REQUIRE(out.size() == size());
  if (obs::enabled()) {
    const ScoreMetrics& m = ScoreMetrics::get();
    m.passes_dense.add();
    m.scored_codewords.add(static_cast<std::uint64_t>(size()));
  }
  linalg::kernels::dense_scores(q, packed_, out);
}

void Codebook::covariance_scores_into(const linalg::FactoredHermitian& q,
                                      std::span<real> out) const {
  MMW_REQUIRE(q.dim() == codewords_.front().size());
  MMW_REQUIRE(out.size() == size());
  if (obs::enabled()) {
    const ScoreMetrics& m = ScoreMetrics::get();
    m.passes_factored.add();
    m.scored_codewords.add(static_cast<std::uint64_t>(size()));
  }
  // Full mode has no stored basis (the identity is implicit) and must keep
  // matching the dense formulas bit-for-bit, so it takes the dense kernel
  // on the core — exactly what FactoredHermitian::rayleigh does per
  // codeword.
  if (q.is_full())
    linalg::kernels::dense_scores(q.core(), packed_, out);
  else
    linalg::kernels::factored_scores(q.basis(), q.core(), packed_, out);
}

std::vector<real> Codebook::covariance_scores(const linalg::Matrix& q) const {
  std::vector<real> score(size());
  covariance_scores_into(q, score);
  return score;
}

std::vector<real> Codebook::covariance_scores(
    const linalg::FactoredHermitian& q) const {
  std::vector<real> score(size());
  covariance_scores_into(q, score);
  return score;
}

Codebook Codebook::with_quantized_phases(index_t bits) const {
  MMW_REQUIRE_MSG(bits >= 1 && bits <= 16, "phase bits out of range");
  const real levels = std::pow(2.0, static_cast<real>(bits));
  const real step = 2.0 * M_PI / levels;
  std::vector<linalg::Vector> out;
  out.reserve(size());
  for (const linalg::Vector& c : codewords_) {
    const real modulus = 1.0 / std::sqrt(static_cast<real>(c.size()));
    linalg::Vector q(c.size());
    for (index_t i = 0; i < c.size(); ++i) {
      const real phase = step * std::round(std::arg(c[i]) / step);
      q[i] = modulus * cx{std::cos(phase), std::sin(phase)};
    }
    out.push_back(std::move(q));
  }
  return Codebook(std::move(out), grid_x_, grid_y_, wraps_);
}

std::vector<index_t> Codebook::serpentine_order() const {
  std::vector<index_t> order;
  order.reserve(size());
  for (index_t x = 0; x < grid_x_; ++x) {
    if (x % 2 == 0) {
      for (index_t y = 0; y < grid_y_; ++y) order.push_back(x * grid_y_ + y);
    } else {
      for (index_t y = grid_y_; y-- > 0;) order.push_back(x * grid_y_ + y);
    }
  }
  return order;
}

}  // namespace mmw::antenna
