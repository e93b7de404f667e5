// Bit pins of the covariance-ML solve and of the eigensolver paths under
// it. Each test runs ~300 seeded problems and folds the raw bytes of every
// output into one FNV-1a hash, so a change that moves a single bit of Q̂,
// the objective, the iteration count or an eigenvector fails here even
// when no beam decision (and so no committed CSV byte) flips. The
// constants were taken from the allocating solver this one replaced, so
// they pin its bits: a refactor of these paths must pass them unedited.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "antenna/codebook.h"
#include "antenna/geometry.h"
#include "estimation/covariance_ml.h"
#include "linalg/eig.h"
#include "linalg/functions.h"
#include "randgen/rng.h"

namespace mmw::estimation {
namespace {

using linalg::FactoredHermitian;
using linalg::Matrix;
using linalg::Vector;

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(real x) { bytes(&x, sizeof x); }
  void add(int x) { bytes(&x, sizeof x); }
  void add(bool x) {
    const unsigned char b = x ? 1 : 0;
    bytes(&b, 1);
  }
  void add(const Matrix& m) {
    const std::uint64_t shape[2] = {m.rows(), m.cols()};
    bytes(shape, sizeof shape);
    bytes(m.data().data(), m.data().size() * sizeof(cx));
  }
  void add(const std::vector<real>& v) {
    bytes(v.data(), v.size() * sizeof(real));
  }
  void add(const FactoredHermitian& q) {
    add(q.is_full());
    if (!q.is_full()) add(q.basis());
    add(q.core());
  }
  void add(const CovarianceMlResult& r) {
    add(r.q);
    add(r.objective);
    add(r.iterations);
    add(r.converged);
  }
  void add(const linalg::EigResult& e) {
    add(e.eigenvalues);
    add(e.eigenvectors);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Random PSD matrix of rank `rank`: Σ_k p_k x_k x_kᴴ with unit x_k and
/// p_k uniform in [0.5, 4]·power.
Matrix random_psd(randgen::Rng& rng, index_t n, index_t rank,
                  real power = 1.0) {
  Matrix q(n, n);
  for (index_t k = 0; k < rank; ++k) {
    const Vector x = rng.random_unit_vector(n);
    q.add_scaled_outer(cx{power * rng.uniform(0.5, 4.0), 0.0}, x, x);
  }
  return q;
}

/// One seeded solver problem: J distinct codewords of `codebook`, each
/// measured as the average of `fades` exponential energies around its
/// expected energy under a random rank-2 truth of the given power.
struct Problem {
  index_t n = 0;
  std::vector<BeamMeasurement> measurements;
  CovarianceMlOptions opts;
  FactoredHermitian prior;
};

Problem make_problem(const antenna::Codebook& codebook, index_t j,
                     real gamma, index_t fades, real power,
                     std::uint64_t seed) {
  randgen::Rng rng = randgen::Rng::stream(seed, j);
  Problem p;
  p.n = codebook.codeword(0).size();
  p.opts.gamma = gamma;
  const Matrix truth = random_psd(rng, p.n, 2, power);
  std::vector<bool> used(codebook.size(), false);
  while (p.measurements.size() < j) {
    const index_t v = static_cast<index_t>(
        rng.uniform(0.0, static_cast<real>(codebook.size())));
    if (v >= codebook.size() || used[v]) continue;
    used[v] = true;
    const Vector& beam = codebook.codeword(v);
    const real lambda = expected_energy(truth, beam, gamma);
    real energy = 0.0;
    for (index_t f = 0; f < fades; ++f) energy += rng.exponential(lambda);
    p.measurements.push_back({beam, energy / static_cast<real>(fades)});
  }
  return p;
}

/// The serving engine's warm solve: 4×4 angular-grid RX codebook (N = 16),
/// J = 8, γ = 1 and 1000, the warm options of fold_warm_ml and a dense
/// prior (r = 8 after the beam-span reduction).
std::vector<Problem> warm_problems() {
  const antenna::Codebook cb = antenna::Codebook::angular_grid(
      antenna::ArrayGeometry::upa(4, 4), 4, 4);
  std::vector<Problem> out;
  for (const real gamma : {1.0, 1000.0})
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      Problem p = make_problem(cb, 8, gamma, 4, 1.0, 1000 + seed);
      randgen::Rng rng = randgen::Rng::stream(seed, 77);
      p.prior = FactoredHermitian::from_dense(random_psd(rng, p.n, 3));
      p.opts.max_iterations = 40;
      p.opts.tolerance = 1e-4;
      out.push_back(std::move(p));
    }
  return out;
}

/// The paper scenario's cold solve: 8×8 angular-grid RX codebook (N = 64),
/// γ = 0 dB, 8 fades per measurement, J = 5, 6 and 8, default options. The
/// truth's power is scaled by N, which makes the solves long: about half of
/// them stop at the 150-iteration cap.
std::vector<Problem> cold_problems() {
  const antenna::Codebook cb = antenna::Codebook::angular_grid(
      antenna::ArrayGeometry::upa(8, 8), 8, 8);
  std::vector<Problem> out;
  for (const index_t j : {5, 6, 8})
    for (std::uint64_t seed = 1; seed <= 60; ++seed)
      out.push_back(make_problem(cb, j, 1.0, 8, 64.0, 2000 + seed));
  return out;
}

CovarianceMlResult solve(const Problem& p) {
  return p.prior.empty()
             ? estimate_covariance_ml(p.n, p.measurements, p.opts)
             : estimate_covariance_ml_warm(p.n, p.measurements, p.opts,
                                           p.prior);
}

/// Hermitian inputs for the eigensolver pins, derived from each problem's
/// solve: Q̂'s core (PSD, clustered zero eigenvalues), the core shifted by
/// half its mean eigenvalue (indefinite), and the N×N moment estimate
/// (rank ≤ J in N dimensions).
struct EigInputs {
  Matrix core;
  Matrix shifted;
  Matrix moment;
};

std::vector<EigInputs> eig_inputs() {
  std::vector<EigInputs> out;
  for (const auto& family : {warm_problems(), cold_problems()})
    for (const Problem& p : family) {
      const CovarianceMlResult r = solve(p);
      EigInputs in;
      in.core = r.q.core();
      const index_t rank = in.core.rows();
      const real shift =
          0.5 * in.core.trace().real() / static_cast<real>(rank);
      in.shifted = in.core - Matrix::identity(rank) * cx{shift, 0.0};
      in.moment = sample_covariance_estimate(p.n, p.measurements,
                                             p.opts.gamma);
      out.push_back(std::move(in));
    }
  return out;
}

TEST(MlSolverPin, WarmSolves) {
  Fnv1a h;
  for (const Problem& p : warm_problems()) h.add(solve(p));
  EXPECT_EQ(h.value(), 0xd0f3a36ac4b54924ULL);
}

TEST(MlSolverPin, ColdSolves) {
  Fnv1a h;
  for (const Problem& p : cold_problems()) h.add(solve(p));
  EXPECT_EQ(h.value(), 0x60f1803ae3cc29a6ULL);
}

TEST(MlSolverPin, EmSolves) {
  Fnv1a h;
  for (const auto& family : {warm_problems(), cold_problems()})
    for (const Problem& p : family) {
      CovarianceEmOptions em;
      em.gamma = p.opts.gamma;
      em.mu = p.opts.mu;
      h.add(estimate_covariance_em(p.n, p.measurements, em));
    }
  EXPECT_EQ(h.value(), 0x45c9c4f77df06dacULL);
}

TEST(MlSolverPin, HermitianEig) {
  Fnv1a h;
  for (const EigInputs& in : eig_inputs()) {
    h.add(linalg::hermitian_eig(in.core));
    h.add(linalg::hermitian_eig(in.shifted));
    h.add(linalg::hermitian_eig(in.moment));
  }
  EXPECT_EQ(h.value(), 0xf72c5259117575f7ULL);
}

TEST(MlSolverPin, MatrixFunctions) {
  Fnv1a soft, psd, root;
  for (const EigInputs& in : eig_inputs()) {
    soft.add(linalg::eigenvalue_soft_threshold(in.shifted, 0.05));
    soft.add(linalg::eigenvalue_soft_threshold(in.moment, 0.05));
    psd.add(linalg::psd_project(in.shifted));
    psd.add(linalg::psd_project(in.moment));
    root.add(linalg::hermitian_sqrt(in.core));
    root.add(linalg::hermitian_sqrt(linalg::psd_project(in.shifted)));
  }
  EXPECT_EQ(soft.value(), 0x30cb65c2e5d4c6d9ULL);
  EXPECT_EQ(psd.value(), 0x63318d9352b92e5cULL);
  EXPECT_EQ(root.value(), 0x35e5a87a620f51e8ULL);
}

}  // namespace
}  // namespace mmw::estimation
