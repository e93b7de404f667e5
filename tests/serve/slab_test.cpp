// SessionPool (serve/slab.h): slot reuse, liveness accounting, and the
// monotone byte accounting the E9 fixed-memory evidence is built from.
#include "serve/slab.h"

#include <gtest/gtest.h>

#include <vector>

namespace mmw::serve {
namespace {

TEST(SessionPool, AllocatesAscendingWithinAFreshSlab) {
  SessionPool pool(4);
  EXPECT_EQ(pool.n_slabs(), 0u);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(pool.allocate(), i);
  EXPECT_EQ(pool.n_slabs(), 1u);
  EXPECT_EQ(pool.allocate(), 4u);  // second slab
  EXPECT_EQ(pool.n_slabs(), 2u);
  EXPECT_EQ(pool.live_count(), 5u);
}

TEST(SessionPool, ReleasedSlotsAreReusedLifoBeforeGrowth) {
  SessionPool pool(4);
  for (index_t i = 0; i < 4; ++i) pool.allocate();
  pool.release(1);
  pool.release(3);
  EXPECT_EQ(pool.live_count(), 2u);
  EXPECT_EQ(pool.allocate(), 3u);  // most recently released first
  EXPECT_EQ(pool.allocate(), 1u);
  EXPECT_EQ(pool.n_slabs(), 1u);  // no growth while the free list serves
}

TEST(SessionPool, AllocateValueInitializesRecycledSlots) {
  SessionPool pool(2);
  const index_t slot = pool.allocate();
  pool[slot].user_key = 42;
  pool[slot].rank = 3;
  pool.release(slot);
  const index_t again = pool.allocate();
  ASSERT_EQ(again, slot);
  EXPECT_EQ(pool[again].user_key, 0u);
  EXPECT_EQ(pool[again].rank, 0u);
  EXPECT_EQ(pool[again].trained_energy, -1.0f);  // default field values
  EXPECT_EQ(pool[again].departure_epoch, kNoDeparture);
}

TEST(SessionPool, AllocateValueInitializesFreshCellsOnEveryPage) {
  // A new slab is raw storage and each cell is constructed when it is
  // handed out. Check every cell of two slabs that span several pages,
  // the first cell on each page and the first of the second slab among
  // them, for the default field values a zero page would not have.
  constexpr index_t kCapacity = 256;
  static_assert(kCapacity * sizeof(UserSession) > 4 * 4096);
  SessionPool pool(kCapacity);
  for (index_t i = 0; i < 2 * kCapacity; ++i) {
    const index_t slot = pool.allocate();
    ASSERT_EQ(slot, i);
    EXPECT_EQ(pool[slot].user_key, 0u);
    EXPECT_EQ(pool[slot].departure_epoch, kNoDeparture);
    EXPECT_EQ(pool[slot].trained_energy, -1.0f);
    EXPECT_EQ(pool[slot].aligning, 1u);
    EXPECT_EQ(pool[slot].rank, 0u);
  }
  EXPECT_EQ(pool.n_slabs(), 2u);
}

TEST(SessionPool, LiveIterationIsAscendingAndSkipsDead) {
  SessionPool pool(4);
  for (index_t i = 0; i < 7; ++i) pool.allocate();
  pool.release(2);
  pool.release(5);
  std::vector<index_t> seen;
  pool.for_each_live([&](index_t slot, const UserSession&) {
    seen.push_back(slot);
  });
  const std::vector<index_t> expected{0, 1, 3, 4, 6};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(pool.live_in_slab(0), 3u);
  EXPECT_EQ(pool.live_in_slab(1), 2u);
}

TEST(SessionPool, ByteAccountingIsMonotoneAndChurnStable) {
  SessionPool pool(8);
  for (index_t i = 0; i < 16; ++i) pool.allocate();
  const std::size_t grown = pool.resident_bytes();
  // Cells + liveness bytes for two slabs are the dominant term.
  EXPECT_GE(grown, 2 * 8 * (sizeof(UserSession) + 1));
  EXPECT_GE(pool.high_water_bytes(), grown);
  // Churn within capacity must not move resident bytes at all: that is
  // the zero-steady-state-heap-traffic contract.
  for (index_t round = 0; round < 3; ++round) {
    for (index_t i = 0; i < 8; ++i) pool.release(i);
    for (index_t i = 0; i < 8; ++i) pool.allocate();
  }
  EXPECT_EQ(pool.resident_bytes(), grown);
  EXPECT_EQ(pool.n_slabs(), 2u);
}

}  // namespace
}  // namespace mmw::serve
