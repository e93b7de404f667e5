// Step times at a nominal host speed, tracked by a fixed reference
// computation.
//
// The machines this benchmark runs on are shared: other tenants on the same
// cores, caches and memory change how fast the same code runs by tens of
// percent, over seconds and over hours. So the driver splits every timed
// step (a set-up, a round) into segments at the workload's library calls and
// runs a block of reference passes — fixed work in the benchmark's own code
// that calls nothing in the library — after each segment. A segment counts
//
//   measured × (kReferencePassNominalS / mean pass time around it)^kHostSensitivity
//
// where "around it" is the blocks just before and just after it. A change to
// the library cannot move a reference pass; only the host can. The measured
// times stay in the result file next to the scaled ones.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

namespace mmwb {

/// Seconds of one reference pass at the nominal host speed: about its time
/// on a quiet 4-vCPU Xeon (Sapphire Rapids class, g++ 12, -O3).
inline constexpr double kReferencePassNominalS = 0.002;

/// How much of the reference's slowdown the workloads' times show: over four
/// sets of ten runs of each workload on a shared host, they slowed by 0.5
/// (paper_figs, track_mobility) to 1.1 (serve_*) times the reference's
/// relative slowdown, and this exponent left the least spread.
inline constexpr double kHostSensitivity = 0.8;

/// A step's time as measured (reference blocks excluded) and at the
/// nominal host speed.
struct StepTime {
  double measured_s = 0.0;
  double nominal_s = 0.0;
};

class NominalClock {
 public:
  /// Builds the reference's tables and runs a first block.
  NominalClock();

  /// Starts a step.
  void begin();
  /// Ends a segment of the current step (at a boundary between library
  /// calls) and runs a reference block.
  void split();
  /// Ends the current step.
  StepTime end();

 private:
  /// Runs reference passes for about `budget_s` seconds (at least two) and
  /// returns the mean seconds of one pass.
  double sample(double budget_s);
  /// One pass: the kinds of work the workloads do, in fixed amounts —
  /// dense complex products (the ML solve, scoring), generator seeding and
  /// draws (Rng::stream), and a dependent walk over a 2 MiB table (slab and
  /// codebook lookups).
  void pass();

  std::vector<std::complex<double>> a_, b_, c_;
  std::vector<std::uint32_t> next_;  ///< one cycle through every entry
  std::uint32_t cursor_ = 0;
  std::uint64_t seed_ = 1;
  double sink_ = 0.0;

  double pass_before_ = 0.0;  ///< mean pass time of the last block
  double segment_start_ = 0.0;
  StepTime step_;
};

}  // namespace mmwb
