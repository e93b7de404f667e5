// Per-thread sinks: the one shard primitive behind the metrics Registry
// (metric cells), the TraceCollector (event vectors) and the FlightRecorder
// (span rings). DESIGN.md §8.
//
//  - A thread's shard is created on its first touch as a copy of the
//    owner's prototype, keyed by the thread's ordinal (obs::thread_ordinal,
//    read once) and inserted after every shard of equal ordinal, so the
//    owner's list is always in (ordinal, registration sequence) order —
//    the deterministic merge order every walk uses.
//  - The thread finds its shard through one thread-local list keyed by the
//    owner's id. Ids come from a process-wide counter and are never reused,
//    so an owner rebuilt at a destroyed owner's address cannot inherit its
//    predecessor's shards on a long-lived thread.
//  - Shards are co-owned by the owner and the thread-local list: a pool
//    worker's records outlive the worker. Destroying the owner drops the
//    destroying thread's entry; other threads drop theirs when they exit.
//  - Each shard has its own mutex, held by its recorder for one record and
//    by a walk for one visit, so two recorders never contend.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace mmw::obs {

template <class T>
class ThreadShards {
 public:
  explicit ThreadShards(T prototype = T{})
      : prototype_(std::move(prototype)) {}
  ~ThreadShards() {
    std::erase_if(entries(), [this](const Entry& e) { return e.first == id_; });
  }
  ThreadShards(const ThreadShards&) = delete;
  ThreadShards& operator=(const ThreadShards&) = delete;

  /// Runs fn(T&) on the calling thread's shard, under that shard's mutex.
  template <class Fn>
  void with_local(Fn&& fn) {
    Shard& shard = local();
    std::lock_guard lock(shard.mutex);
    fn(shard.data);
  }

  /// Runs fn(data, thread_ordinal) on every shard in (ordinal, sequence)
  /// order, each under its own mutex. Safe while other threads record.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& shard : list()) {
      std::lock_guard lock(shard->mutex);
      fn(std::as_const(shard->data), shard->ordinal);
    }
  }
  template <class Fn>
  void for_each(Fn&& fn) {
    for (const auto& shard : list()) {
      std::lock_guard lock(shard->mutex);
      fn(shard->data, shard->ordinal);
    }
  }

 private:
  struct Shard {
    Shard(std::uint64_t o, const T& d) : ordinal(o), data(d) {}
    std::mutex mutex;
    const std::uint64_t ordinal;
    T data;
  };
  using Entry = std::pair<std::uint64_t, std::shared_ptr<Shard>>;

  static std::vector<Entry>& entries() {
    thread_local std::vector<Entry> tls;
    return tls;
  }
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Shard& local() {
    std::vector<Entry>& tls = entries();
    for (const auto& [id, shard] : tls)
      if (id == id_) return *shard;
    auto shard = std::make_shared<Shard>(thread_ordinal(), prototype_);
    {
      std::lock_guard lock(mutex_);
      const auto after = std::upper_bound(
          shards_.begin(), shards_.end(), shard->ordinal,
          [](std::uint64_t o, const auto& s) { return o < s->ordinal; });
      shards_.insert(after, shard);
    }
    tls.emplace_back(id_, shard);
    return *shard;
  }

  std::vector<std::shared_ptr<Shard>> list() const {
    std::lock_guard lock(mutex_);
    return shards_;
  }

  const std::uint64_t id_ = next_id();
  const T prototype_;
  mutable std::mutex mutex_;  ///< guards shards_
  std::vector<std::shared_ptr<Shard>> shards_;  ///< (ordinal, sequence) order
};

}  // namespace mmw::obs
