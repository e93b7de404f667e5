#include "host_speed.h"

#include <cmath>
#include <random>
#include <utility>

#include "harness.h"

namespace mmwb {

namespace {

// Amounts of each kind of work in one pass. At the nominal speed they take
// about 30%, 60% and 10% of the pass: the mix whose time, over repeated
// runs of all four workloads on a shared host, moved most like theirs.
constexpr int kDim = 32;                    ///< complex matrices kDim × kDim
constexpr int kProducts = 8;                ///< matrix products per pass
constexpr int kSeedings = 480;              ///< generators seeded per pass
constexpr int kDraws = 16;                  ///< draws per seeded generator
constexpr std::uint32_t kTable = 1u << 19;  ///< 2 MiB of uint32 entries
constexpr int kSteps = 8'000;               ///< dependent table steps per pass

/// Reference time after each segment, as a share of the segment's time.
constexpr double kReferenceShare = 0.125;
/// The first block, before any step.
constexpr double kFirstBlockS = 0.05;

/// Where each block leaves its result, so no pass can be optimized away.
volatile double g_sink = 0.0;

}  // namespace

NominalClock::NominalClock()
    : a_(kDim * kDim), b_(kDim * kDim), c_(kDim * kDim), next_(kTable) {
  std::mt19937_64 g(20160610);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < kDim * kDim; ++i) {
    a_[i] = {u(g), u(g)};
    b_[i] = {u(g), u(g)};
  }
  // Sattolo's shuffle: a single cycle, so the walk visits the whole table.
  for (std::uint32_t i = 0; i < kTable; ++i) next_[i] = i;
  for (std::uint32_t i = kTable - 1; i > 0; --i)
    std::swap(next_[i], next_[g() % i]);
  pass_before_ = sample(kFirstBlockS);
}

void NominalClock::begin() {
  step_ = {};
  segment_start_ = now_s();
}

void NominalClock::split() {
  const double dt = now_s() - segment_start_;
  const double after = sample(kReferenceShare * dt);
  const double around = 0.5 * (pass_before_ + after);
  step_.measured_s += dt;
  step_.nominal_s +=
      dt * std::pow(kReferencePassNominalS / around, kHostSensitivity);
  pass_before_ = after;
  segment_start_ = now_s();
}

StepTime NominalClock::end() {
  split();
  return step_;
}

void NominalClock::pass() {
  for (int p = 0; p < kProducts; ++p) {
    for (int i = 0; i < kDim; ++i)
      for (int j = 0; j < kDim; ++j) {
        std::complex<double> acc = 0.0;
        for (int k = 0; k < kDim; ++k)
          acc += a_[i * kDim + k] * b_[k * kDim + j];
        c_[i * kDim + j] = acc;
      }
    // Feed the product back, scaled, so no product can be skipped.
    a_[p] += 1e-9 * c_[p];
    sink_ += c_[p].real();
  }
  for (int s = 0; s < kSeedings; ++s) {
    std::mt19937_64 g(seed_++);
    std::uint64_t x = 0;
    for (int d = 0; d < kDraws; ++d) x ^= g();
    sink_ += static_cast<double>(x & 1u);
  }
  std::uint32_t at = cursor_;
  for (int s = 0; s < kSteps; ++s) at = next_[at];
  cursor_ = at;
  sink_ += at;
}

double NominalClock::sample(double budget_s) {
  const double t0 = now_s();
  int passes = 0;
  double elapsed = 0.0;
  while (passes < 2 || elapsed < budget_s) {
    pass();
    ++passes;
    elapsed = now_s() - t0;
  }
  g_sink = sink_;
  return elapsed / passes;
}

}  // namespace mmwb
