// Pooled slab allocator for resident sessions.
//
// Why not a std::vector<UserSession>: the pool must absorb Poisson
// arrival/departure churn for millions of sessions with (a) no per-session
// heap traffic, (b) stable addresses (a stepping thread holds a reference
// while another site's churn admits users), and (c) O(live) deterministic
// iteration. It allocates whole slabs of `slab_capacity` sessions, never
// frees or moves them, and recycles dead slots through a LIFO free list —
// steady-state churn therefore touches the heap zero times, and the
// resident footprint is a high-water mark, not a function of churn history.
//
// Slots are dense integers slab·capacity + offset; each slab owns its own
// liveness bytes (not vector<bool>: adjacent slabs must be writable from
// different churn threads without sharing a bit-packed word).
//
// Determinism: allocate() order is a pure function of the allocate/release
// history (fresh slabs hand out ascending offsets; releases are reused
// LIFO), and iteration is ascending-slot within a slab — both independent
// of thread count, because churn for one pool is always single-threaded
// (the engine shards churn by site, one pool per site).
//
// Thread-safety: none inside the pool. The engine's phases provide it:
// churn mutates a pool from its site's one churn thread; the step phase
// only reads liveness and mutates distinct sessions from distinct slab
// shards.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "serve/session_state.h"

namespace mmw::serve {

class SessionPool {
 public:
  /// `slab_capacity` sessions per slab (the session-block sharding grain).
  explicit SessionPool(index_t slab_capacity);

  /// Claims a slot (growing by one slab when the free list is empty) and
  /// value-initializes its session. Returns the slot id. A new slab is raw
  /// storage: a cell is constructed only when it is handed out, so a page
  /// of a slab is resident only once one of its cells has gone live.
  index_t allocate();

  /// Returns `slot` to the free list. Precondition: live(slot).
  void release(index_t slot);

  UserSession& operator[](index_t slot) {
    return slabs_[slot / slab_capacity_].cells[slot % slab_capacity_];
  }
  const UserSession& operator[](index_t slot) const {
    return slabs_[slot / slab_capacity_].cells[slot % slab_capacity_];
  }

  bool live(index_t slot) const {
    return slabs_[slot / slab_capacity_].live[slot % slab_capacity_] != 0;
  }

  index_t slab_capacity() const { return slab_capacity_; }
  index_t n_slabs() const { return slabs_.size(); }
  index_t capacity() const { return slabs_.size() * slab_capacity_; }
  index_t live_count() const { return live_count_; }
  index_t live_in_slab(index_t slab) const {
    return slabs_[slab].live_count;
  }

  /// Bytes currently owned by the pool: session cells, liveness bytes, and
  /// the free list's reserved storage. Monotone under churn (slabs are
  /// never returned), which is exactly the fixed-memory evidence the E9
  /// manifest records.
  std::size_t resident_bytes() const;

  /// High-water mark of resident_bytes() over the pool's lifetime.
  std::size_t high_water_bytes() const { return high_water_; }

  /// Calls f(slot, session) for every live session of `slab`, ascending
  /// slot order. The engine's step shards use the mutable form; f must not
  /// allocate or release.
  template <class F>
  void for_each_live_in_slab(index_t slab, F&& f) {
    Slab& s = slabs_[slab];
    const index_t base = slab * slab_capacity_;
    for (index_t i = 0; i < slab_capacity_; ++i)
      if (s.live[i] != 0) f(base + i, s.cells[i]);
  }
  template <class F>
  void for_each_live_in_slab(index_t slab, F&& f) const {
    const Slab& s = slabs_[slab];
    const index_t base = slab * slab_capacity_;
    for (index_t i = 0; i < slab_capacity_; ++i)
      if (s.live[i] != 0) f(base + i, s.cells[i]);
  }

  /// Ascending-slot iteration over every live session of the pool.
  template <class F>
  void for_each_live(F&& f) const {
    for (index_t slab = 0; slab < slabs_.size(); ++slab)
      for_each_live_in_slab(slab, f);
  }

 private:
  /// Frees a slab's storage without running destructors: there are none.
  struct FreeCells {
    static_assert(std::is_trivially_destructible_v<UserSession>);
    void operator()(UserSession* cells) const { ::operator delete(cells); }
  };
  struct Slab {
    std::unique_ptr<UserSession[], FreeCells> cells;  ///< raw until handed out
    std::unique_ptr<std::uint8_t[]> live;
    index_t live_count = 0;
  };

  void update_high_water();

  index_t slab_capacity_;
  std::vector<Slab> slabs_;
  std::vector<index_t> free_;  ///< dead slots, reused LIFO
  index_t live_count_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace mmw::serve
