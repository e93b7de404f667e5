// The serving engine's tracking fast path performs no per-session heap
// allocation: one all-tracking epoch allocates no more at 12,000 sessions
// than at 6,400. Counted with replacements of the global allocation
// functions, which is why this is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "serve/serve.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mmw::serve {
namespace {

/// 4 sites with one slab each, one alignment slot per session, 64 fades
/// per verify probe so no pair collapses.
ServeConfig tracking_config(index_t sessions) {
  ServeConfig cfg;
  cfg.scenario.channel = sim::ChannelKind::kSinglePath;
  cfg.scenario.tx_grid_x = 2;
  cfg.scenario.tx_grid_y = 1;
  cfg.scenario.rx_grid_x = 2;
  cfg.scenario.rx_grid_y = 2;
  cfg.scenario.fades_per_measurement = 2;
  cfg.scenario.gamma = 1000.0;
  cfg.scenario.seed = 7;
  cfg.scenario.threads = 1;
  cfg.topology.cells = 4;
  cfg.initial_sessions = sessions;
  cfg.align_epochs = 1;
  cfg.probes_per_slot = 3;
  cfg.track_fades = 64;
  cfg.session_block = sessions / 4;
  return cfg;
}

/// Allocations of one epoch in which every one of `sessions` sessions
/// takes the tracking fast path.
std::uint64_t tracking_epoch_allocations(index_t sessions) {
  ServingEngine engine(tracking_config(sessions));
  const EpochReport aligned = engine.step_epoch();
  EXPECT_EQ(aligned.claims, sessions);

  const std::uint64_t before = g_allocations.load();
  const EpochReport tracked = engine.step_epoch();
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(tracked.tracking_steps, sessions);
  EXPECT_EQ(tracked.outages, 0u);
  return allocations;
}

TEST(ServingAllocations, TrackingEpochDoesNotAllocatePerSession) {
  const std::uint64_t small = tracking_epoch_allocations(6'400);
  const std::uint64_t large = tracking_epoch_allocations(12'000);
  EXPECT_GT(small, 0u);  // the counter is live
  EXPECT_LE(large, small) << "6,400 sessions: " << small
                          << " allocations; 12,000 sessions: " << large;
}

}  // namespace
}  // namespace mmw::serve
