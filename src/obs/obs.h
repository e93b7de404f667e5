// Global on/off switch for the instrumentation layer (metrics + tracing).
//
// Design constraint (DESIGN.md §8): the DISABLED path must be near-free so
// instrumentation can stay compiled into release binaries. Every recording
// site guards itself with `obs::enabled()`, which is a single relaxed
// atomic load — no locks, no TLS lookups, no clock reads happen before that
// check passes. The toggle is runtime state, not a compile-time option, so
// one binary serves both instrumented and bare runs (the micro-bench
// overhead gate in CI holds the disabled path to within 3% of the
// pre-instrumentation baseline).
//
// Determinism: instrumentation only OBSERVES — no hook feeds a value back
// into the simulation and no hook touches an Rng — so toggling it cannot
// change any experiment output. tests/sim/parallel_determinism_test.cpp
// asserts byte-identical CSVs with the layer enabled and disabled.
#pragma once

#include <atomic>
#include <cstdint>

#include "linalg/common.h"

namespace mmw::obs {

namespace detail {
/// Single process-wide flag; relaxed is sufficient — readers only need to
/// see *some* recent value, and recording is tolerant of a stale read
/// during the toggle itself.
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// True when metric/trace recording is active. The disabled fast path of
/// every hook is exactly this one relaxed load.
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

/// Turns recording on or off at runtime. Safe to call from any thread;
/// counts recorded before a disable are retained until Registry::reset().
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Applies the MMW_FLIGHT environment variable to the flight recorder's
/// armed flag: "off"/"0"/"false" disarms it, anything else (or unset) keeps
/// it armed, the default (see flight.h). Binaries (benches, CLI) call this
/// once at startup; it is the library's only read of the environment.
void init_from_env();

/// Deterministic merge key for the calling thread's metric shards and trace
/// buffers. The thread pool labels its workers 1..n (core::ThreadPool);
/// the main thread keeps the default 0. Snapshot/export walk shards sorted
/// by (ordinal, registration sequence), so merged output has a stable
/// thread order regardless of which worker raced ahead.
void set_thread_ordinal(std::uint64_t ordinal);

/// The calling thread's current ordinal (0 unless set_thread_ordinal ran).
std::uint64_t thread_ordinal();

}  // namespace mmw::obs
