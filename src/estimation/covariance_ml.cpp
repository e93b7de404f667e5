#include "estimation/covariance_ml.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "linalg/eig.h"
#include "linalg/functions.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmw::estimation {

using linalg::FactoredHermitian;
using linalg::Matrix;
using linalg::Vector;

namespace {

/// Dense solver output before the factored wrap-up.
struct SolveResult {
  Matrix q;
  real objective = 0.0;
  int iterations = 0;
  int backtracks = 0;  ///< rejected trial points across all iterations
  bool converged = false;
  bool stalled = false;  ///< ended by the exhausted-backtracking exit
};

/// Telemetry handles for the proximal-gradient solver (DESIGN.md §8).
struct MlMetrics {
  obs::Counter solves;
  obs::Counter nonconverged;
  obs::Counter stalled;
  obs::Counter backtracks;
  obs::Histogram iterations;
  obs::Histogram recovered_rank;
  static const MlMetrics& get() {
    static const MlMetrics m{
        obs::Registry::global().counter("estimation.ml.solves"),
        obs::Registry::global().counter("estimation.ml.nonconverged"),
        obs::Registry::global().counter("estimation.ml.stalled"),
        obs::Registry::global().counter("estimation.ml.backtracks"),
        obs::Registry::global().histogram(
            "estimation.ml.iterations",
            obs::HistogramBuckets::exponential(1.0, 2.0, 12)),
        obs::Registry::global().histogram(
            "estimation.ml.recovered_rank",
            obs::HistogramBuckets::linear(0.0, 1.0, 17)),
    };
    return m;
  }
};

struct EmMetrics {
  obs::Counter solves;
  obs::Counter nonconverged;
  obs::Histogram iterations;
  static const EmMetrics& get() {
    static const EmMetrics m{
        obs::Registry::global().counter("estimation.em.solves"),
        obs::Registry::global().counter("estimation.em.nonconverged"),
        obs::Registry::global().histogram(
            "estimation.em.iterations",
            obs::HistogramBuckets::exponential(1.0, 2.0, 12)),
    };
    return m;
  }
};

/// Numerical rank of the recovered covariance: eigenvalues above a relative
/// floor. Only evaluated when instrumentation is on — it costs an r×r
/// eigendecomposition (r ≤ J) per solve.
index_t recovered_rank(const FactoredHermitian& q) {
  if (q.empty()) return 0;
  const linalg::EigResult eig = q.eig();
  if (eig.eigenvalues.empty()) return 0;
  const real floor = 1e-12 * std::max(eig.eigenvalues[0], real{0.0});
  index_t rank = 0;
  for (const real lambda : eig.eigenvalues)
    if (lambda > floor) ++rank;
  return rank;
}

/// Records the per-solve metrics shared by both wrapper entry points.
/// Non-converged and stalled solves are counted (estimation.ml.nonconverged,
/// estimation.ml.stalled) and surface in run manifests. Beam selection is
/// unchanged — the estimate is still used as-is.
void record_ml_solve(const SolveResult& solve,
                     const CovarianceMlResult& result) {
  if (!obs::enabled()) return;
  const MlMetrics& m = MlMetrics::get();
  m.solves.add();
  if (!solve.converged) m.nonconverged.add();
  if (solve.stalled) m.stalled.add();
  if (solve.backtracks > 0)
    m.backtracks.add(static_cast<std::uint64_t>(solve.backtracks));
  m.iterations.record(static_cast<real>(solve.iterations));
  m.recovered_rank.record(static_cast<real>(recovered_rank(result.q)));
}

/// Re tr(Aᴴ B) — the real inner product on Hermitian matrices.
real inner_real(const Matrix& a, const Matrix& b) {
  const std::span<const cx> x = a.data();
  const std::span<const cx> y = b.data();
  real acc = 0.0;
  for (index_t i = 0; i < x.size(); ++i)
    acc += (std::conj(x[i]) * y[i]).real();
  return acc;
}

/// The calling thread's storage for solve_full, sized to the n×n problem
/// and its J measurements by `prepare` at the start of every solve. It
/// grows to the largest problem the thread solves and is never shrunk, so
/// the iterations allocate nothing. Every buffer is written in full before
/// it is read within a solve, so a solve that throws (the degradation
/// ladder catches it) leaves nothing a later solve reads.
struct SolveWorkspace {
  Matrix q;      ///< current iterate
  Matrix grad;   ///< ∇J at q
  Matrix arg;    ///< q − step·∇J, the prox argument
  Matrix trial;  ///< prox of arg, the trial point
  Matrix delta;  ///< trial − q
  std::vector<cx> outer;     ///< v_j v_jᴴ, J row-major n×n blocks
  std::vector<real> noise;   ///< ‖v_j‖²/γ
  std::vector<real> lambda;  ///< λ_j at q
  std::vector<real> trial_lambda;  ///< λ_j at trial
  linalg::EigWorkspace eig;

  void prepare(index_t n, std::span<const BeamMeasurement> ms, real gamma) {
    for (Matrix* m : {&grad, &arg, &trial, &delta}) m->reset(n, n);
    outer.resize(ms.size() * n * n);
    noise.resize(ms.size());
    lambda.resize(ms.size());
    trial_lambda.resize(ms.size());
    cx* o = outer.data();
    for (index_t j = 0; j < ms.size(); ++j) {
      const Vector& v = ms[j].beam;
      for (index_t a = 0; a < n; ++a)
        for (index_t b = 0; b < n; ++b) *o++ = v[a] * std::conj(v[b]);
      noise[j] = v.squared_norm() / gamma;
    }
  }

  /// Euclidean gradient of the smooth part J(Q) = Σ log λ_j + w_j/λ_j at
  /// q, from the λ_j its likelihood pass stored:
  ///   ∇J = Σ_j (λ_j − w_j)/λ_j² · v_j v_jᴴ   (Hermitian).
  void gradient(std::span<const BeamMeasurement> ms) {
    const std::span<cx> g = grad.data();
    std::fill(g.begin(), g.end(), cx{0.0, 0.0});
    const cx* o = outer.data();
    for (index_t j = 0; j < ms.size(); ++j, o += g.size()) {
      const real coeff = (lambda[j] - ms[j].energy) / (lambda[j] * lambda[j]);
      const cx alpha{coeff, 0.0};
      for (index_t e = 0; e < g.size(); ++e) g[e] += o[e] * alpha;
    }
  }
};

SolveWorkspace& solve_workspace() {
  thread_local SolveWorkspace ws;
  return ws;
}

/// Core projected proximal-gradient loop on an n-dimensional problem.
/// After the beam-span reduction n is the span rank r ≤ J, so every matrix
/// here — gradient, trial point, eigendecomposition inside the prox — is
/// r×r. The eigendecomposition is NOT hoisted out of the backtracking loop:
/// each trial point q − step·∇J has a different eigenbasis, so reusing one
/// across step sizes would change the iterates (and the golden figure
/// CSVs); one decomposition per trial point is the exact-arithmetic
/// optimum. The smooth objective, however, IS cached: the accepted trial's
/// likelihood (and its λ_j) is reused for both the convergence test and
/// the next iteration's gradient, saving two full likelihood passes per
/// iteration at bit-identical results. All of it runs in the calling
/// thread's SolveWorkspace, with v_j v_jᴴ and ‖v_j‖²/γ formed once per
/// solve; every quantity keeps its std::complex expression and summation
/// order, which is what keeps Q̂ bit for bit (DESIGN.md §7b).
/// `init`, when non-null, replaces the moment-based starting iterate (the
/// warm-start entry point projects a prior estimate here); it must be an
/// n×n Hermitian PSD matrix. Null reproduces the cold start bit-for-bit.
SolveResult solve_full(index_t n,
                       std::span<const BeamMeasurement> measurements,
                       const CovarianceMlOptions& opts,
                       const Matrix* init = nullptr) {
  obs::TraceScope span("estimation.ml.solve", "estimation");
  span.arg("n", static_cast<double>(n));
  span.arg("measurements", static_cast<double>(measurements.size()));
  const bool tracing = span.active();

  SolveWorkspace& ws = solve_workspace();
  ws.prepare(n, measurements, opts.gamma);
  // Moment-based warm start keeps the likelihood well-conditioned from the
  // first iteration (Q = 0 would put all mass on the noise floor).
  if (init != nullptr)
    ws.q = *init;
  else
    ws.q = sample_covariance_estimate(n, measurements, opts.gamma);

  SolveResult result;
  // Smooth part J(Q) at the current iterate; the penalized objective is
  // nll_cur + μ·tr(Q) (‖Q‖₁ = tr(Q) on the PSD cone).
  real nll_cur =
      negative_log_likelihood(ws.q, measurements, ws.noise, ws.lambda);
  real f_prev = nll_cur + opts.mu * ws.q.trace().real();
  real step = opts.initial_step;
  if (tracing)
    obs::TraceCollector::global().counter("estimation.ml.nll", nll_cur);

  for (int it = 0; it < opts.max_iterations; ++it) {
    ws.gradient(measurements);
    const real f_smooth = nll_cur;

    // Backtracking proximal gradient step.
    const std::span<const cx> q = ws.q.data();
    const std::span<const cx> grad = ws.grad.data();
    const std::span<cx> arg = ws.arg.data();
    const std::span<cx> delta = ws.delta.data();
    real nll_next = nll_cur;
    bool accepted = false;
    for (int bt = 0; bt < opts.max_backtracks; ++bt) {
      for (index_t e = 0; e < arg.size(); ++e)
        arg[e] = q[e] - grad[e] * cx{step, 0.0};
      linalg::eigenvalue_soft_threshold(ws.arg, step * opts.mu, ws.eig,
                                        ws.trial);
      const std::span<const cx> trial = ws.trial.data();
      for (index_t e = 0; e < delta.size(); ++e) delta[e] = trial[e] - q[e];
      const real quad =
          f_smooth + inner_real(ws.grad, ws.delta) +
          inner_real(ws.delta, ws.delta) / (2.0 * step);
      const real f_trial = negative_log_likelihood(
          ws.trial, measurements, ws.noise, ws.trial_lambda);
      if (f_trial <= quad + 1e-12 * std::abs(quad)) {
        nll_next = f_trial;
        accepted = true;
        break;
      }
      step *= 0.5;
      ++result.backtracks;
    }
    if (!accepted) {
      // The step has shrunk below usefulness: we are at (numerical)
      // stationarity.
      result.converged = true;
      result.stalled = true;
      result.iterations = it;
      break;
    }

    // The trial and its λ_j become the iterate's (buffers swap, no copy).
    std::swap(ws.q, ws.trial);
    std::swap(ws.lambda, ws.trial_lambda);
    nll_cur = nll_next;
    const real f_now = nll_cur + opts.mu * ws.q.trace().real();
    result.iterations = it + 1;
    if (tracing)
      obs::TraceCollector::global().counter("estimation.ml.nll", nll_cur);
    if (std::abs(f_prev - f_now) <=
        opts.tolerance * std::max(1.0, std::abs(f_prev))) {
      result.converged = true;
      f_prev = f_now;
      break;
    }
    f_prev = f_now;
    // Gentle step recovery so one conservative backtrack doesn't pin the
    // step size for the rest of the run.
    step = std::min(step * 2.0, opts.initial_step);
  }

  result.q = ws.q;
  result.objective = f_prev;
  span.arg("iterations", static_cast<double>(result.iterations));
  span.arg("converged", result.converged ? 1.0 : 0.0);
  return result;
}

/// Exact subspace reduction shared by both likelihood solvers. The
/// likelihood depends on Q only through v_jᴴ Q v_j, and replacing Q by
/// P Q P (P = projector onto span{v_j}) leaves every λ_j unchanged while
/// never increasing tr(Q); hence an optimum exists inside the beam span
/// and an r×r problem (r ≤ J ≪ N) can be solved instead of an N×N one.
struct ReducedProblem {
  std::vector<Vector> basis;             ///< orthonormal basis of span{v_j}
  std::vector<BeamMeasurement> reduced;  ///< measurements with ṽ = Bᴴv

  /// Basis packed as the N×r matrix FactoredHermitian stores (column k =
  /// basis[k]).
  Matrix basis_matrix(index_t n) const {
    Matrix b(n, basis.size());
    for (index_t k = 0; k < basis.size(); ++k) b.set_col(k, basis[k]);
    return b;
  }
};

ReducedProblem reduce_to_beam_span(
    std::span<const BeamMeasurement> measurements) {
  ReducedProblem out;
  // Modified Gram–Schmidt, dropping nearly dependent beams.
  for (const BeamMeasurement& m : measurements) {
    Vector v = m.beam;
    for (const Vector& b : out.basis) v -= linalg::dot(b, v) * b;
    if (v.norm() > 1e-9 * m.beam.norm())
      out.basis.push_back(v.normalized());
  }
  const index_t r = out.basis.size();
  out.reduced.reserve(measurements.size());
  for (const BeamMeasurement& m : measurements) {
    Vector vt(r);
    for (index_t k = 0; k < r; ++k) vt[k] = linalg::dot(out.basis[k], m.beam);
    out.reduced.push_back({std::move(vt), m.energy});
  }
  return out;
}

void check_measurements(index_t n,
                        std::span<const BeamMeasurement> measurements) {
  MMW_REQUIRE_MSG(!measurements.empty(), "need at least one measurement");
  for (const BeamMeasurement& m : measurements)
    MMW_REQUIRE_MSG(m.beam.size() == n, "beam dimension mismatch");
}

/// Projects a prior into the measured beam span: q₀(k,l) = b_kᴴ(Q b_l).
/// The compression B Bᴴ Q B Bᴴ of a PSD prior is PSD, so the solver starts
/// inside its feasible cone. Explicit Hermitization kills the rounding
/// asymmetry of computing the two triangles from separate apply() calls.
Matrix project_prior(const FactoredHermitian& prior,
                     const std::vector<Vector>& basis) {
  const index_t r = basis.size();
  Matrix init(r, r);
  for (index_t l = 0; l < r; ++l) {
    const Vector ql = prior.apply(basis[l]);
    for (index_t k = 0; k < r; ++k) init(k, l) = linalg::dot(basis[k], ql);
  }
  for (index_t k = 0; k < r; ++k) {
    init(k, k) = cx{init(k, k).real(), 0.0};
    for (index_t l = k + 1; l < r; ++l) {
      const cx avg = 0.5 * (init(k, l) + std::conj(init(l, k)));
      init(k, l) = avg;
      init(l, k) = std::conj(avg);
    }
  }
  return init;
}

/// The one covariance-ML solve behind both public entry points: reduce to
/// the beam span (unless the beams already span the full space), solve,
/// wrap the estimate in factored form. An empty prior starts from the
/// moment estimate; a non-empty one is the solver's first iterate.
CovarianceMlResult solve_ml(index_t n,
                            std::span<const BeamMeasurement> measurements,
                            const CovarianceMlOptions& opts,
                            const FactoredHermitian& prior) {
  check_measurements(n, measurements);
  MMW_REQUIRE_MSG(prior.empty() || prior.dim() == n,
                  "prior dimension mismatch");
  MMW_REQUIRE(opts.mu >= 0.0);
  MMW_REQUIRE(opts.gamma > 0.0);
  MMW_REQUIRE(opts.max_iterations > 0);

  const ReducedProblem rp = reduce_to_beam_span(measurements);
  const bool full_span = rp.basis.size() == n;
  Matrix init;
  if (!prior.empty())
    init = full_span ? prior.dense() : project_prior(prior, rp.basis);
  const Matrix* start = prior.empty() ? nullptr : &init;
  SolveResult solve =
      full_span ? solve_full(n, measurements, opts, start)
                : solve_full(rp.basis.size(), rp.reduced, opts, start);

  CovarianceMlResult result;
  result.q = full_span
                 ? FactoredHermitian::from_dense(std::move(solve.q))
                 : FactoredHermitian(rp.basis_matrix(n), std::move(solve.q));
  result.objective = solve.objective;
  result.iterations = solve.iterations;
  result.converged = solve.converged;
  result.stalled = solve.stalled;
  record_ml_solve(solve, result);
  return result;
}

}  // namespace

CovarianceMlResult estimate_covariance_ml(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceMlOptions& opts) {
  return solve_ml(n, measurements, opts, FactoredHermitian{});
}

CovarianceMlResult estimate_covariance_ml_warm(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceMlOptions& opts,
    const linalg::FactoredHermitian& prior) {
  return solve_ml(n, measurements, opts, prior);
}

CovarianceMlResult estimate_covariance_em(
    index_t n, std::span<const BeamMeasurement> measurements,
    const CovarianceEmOptions& opts) {
  check_measurements(n, measurements);
  MMW_REQUIRE(opts.mu >= 0.0);
  MMW_REQUIRE(opts.gamma > 0.0);
  MMW_REQUIRE(opts.max_iterations > 0);

  const ReducedProblem rp = reduce_to_beam_span(measurements);
  const bool reduced = rp.basis.size() < n;
  const std::span<const BeamMeasurement> ms =
      reduced ? std::span<const BeamMeasurement>(rp.reduced)
              : measurements;
  const index_t dim = reduced ? rp.basis.size() : n;
  const real j_count = static_cast<real>(ms.size());

  obs::TraceScope span("estimation.em.solve", "estimation");
  span.arg("n", static_cast<double>(dim));
  span.arg("measurements", static_cast<double>(ms.size()));
  const bool tracing = span.active();

  Matrix q = sample_covariance_estimate(dim, ms, opts.gamma);
  // A zero warm start is an EM fixed point; nudge it off the boundary.
  if (q.trace().real() <= 0.0)
    q = Matrix::identity(dim) * cx{1.0 / opts.gamma, 0.0};

  CovarianceMlResult result;
  real nll_prev = negative_log_likelihood(q, ms, opts.gamma);
  for (int it = 0; it < opts.max_iterations; ++it) {
    // E-step folded into the M-step update:
    //   S = Q − (1/J) Σ_j (1 − w_j/λ_j)·(Q v_j)(Q v_j)ᴴ / λ_j.
    Matrix s = q;
    for (const BeamMeasurement& m : ms) {
      const real lambda = expected_energy(q, m.beam, opts.gamma);
      const Vector qv = q * m.beam;
      const real coeff =
          (1.0 - m.energy / lambda) / (lambda * j_count);
      s.add_scaled_outer(cx{-coeff, 0.0}, qv, qv);
    }
    if (opts.mu == 0.0) {
      q = std::move(s);
    } else {
      // Penalized M-step: with S = U diag(d) Uᴴ, each eigenvalue solves
      // μ·q² + J·q − J·d = 0 (trace penalty μ on the complete-data ML).
      const linalg::EigResult eig = linalg::hermitian_eig(s);
      std::vector<real> shrunk(eig.eigenvalues.size());
      for (index_t k = 0; k < shrunk.size(); ++k) {
        const real d = std::max(eig.eigenvalues[k], 0.0);
        shrunk[k] = (-j_count + std::sqrt(j_count * j_count +
                                          4.0 * opts.mu * j_count * d)) /
                    (2.0 * opts.mu);
      }
      Matrix rebuilt(dim, dim);
      for (index_t k = 0; k < shrunk.size(); ++k) {
        if (shrunk[k] == 0.0) continue;
        const Vector uk = eig.eigenvectors.col(k);
        rebuilt.add_scaled_outer(cx{shrunk[k], 0.0}, uk, uk);
      }
      q = std::move(rebuilt);
    }

    const real nll = negative_log_likelihood(q, ms, opts.gamma);
    result.iterations = it + 1;
    if (tracing)
      obs::TraceCollector::global().counter("estimation.em.nll", nll);
    if (std::abs(nll_prev - nll) <=
        opts.tolerance * std::max(1.0, std::abs(nll_prev))) {
      result.converged = true;
      nll_prev = nll;
      break;
    }
    nll_prev = nll;
  }
  result.objective = nll_prev + opts.mu * q.trace().real();
  result.q = reduced
                 ? FactoredHermitian(rp.basis_matrix(n), std::move(q))
                 : FactoredHermitian::from_dense(std::move(q));
  span.arg("iterations", static_cast<double>(result.iterations));
  span.arg("converged", result.converged ? 1.0 : 0.0);
  if (obs::enabled()) {
    const EmMetrics& m = EmMetrics::get();
    m.solves.add();
    if (!result.converged) m.nonconverged.add();
    m.iterations.record(static_cast<real>(result.iterations));
  }
  return result;
}

Matrix sample_covariance_estimate(index_t n,
                                  std::span<const BeamMeasurement> ms,
                                  real gamma) {
  MMW_REQUIRE(!ms.empty());
  MMW_REQUIRE(gamma > 0.0);
  Matrix q(n, n);
  for (const BeamMeasurement& m : ms) {
    MMW_REQUIRE(m.beam.size() == n);
    const real excess =
        std::max(m.energy - m.beam.squared_norm() / gamma, 0.0);
    q.add_scaled_outer(cx{excess, 0.0}, m.beam, m.beam);
  }
  const real scale =
      static_cast<real>(n) / static_cast<real>(ms.size());
  return q * cx{scale, 0.0};
}

Matrix diagonal_loading_estimate(index_t n,
                                 std::span<const BeamMeasurement> ms,
                                 real gamma, real epsilon) {
  MMW_REQUIRE(epsilon >= 0.0);
  Matrix q = sample_covariance_estimate(n, ms, gamma);
  const real load = epsilon * q.trace().real() / static_cast<real>(n);
  return q + Matrix::identity(n) * cx{load, 0.0};
}

}  // namespace mmw::estimation
