// A small fixed-size thread pool for data-parallel Monte-Carlo work.
//
// Design constraints (see DESIGN.md §7):
//  - no external dependencies: C++20 std::jthread + mutex/condition_variable;
//  - no work stealing: one shared FIFO queue is plenty when tasks are
//    coarse (a whole Monte-Carlo trial each) — contention on the queue is
//    negligible next to the milliseconds a trial costs;
//  - determinism lives in the *caller*: the pool makes no ordering promises
//    about execution, so callers that need reproducible output must write
//    results into per-index slots and reduce in index order (which is
//    exactly what sim::run_search_effectiveness does).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "linalg/common.h"

namespace mmw::core {

/// Returns the thread count a knob value of 0 ("auto") resolves to:
/// std::thread::hardware_concurrency(), clamped to at least 1.
index_t resolve_thread_count(index_t requested);

/// One captured iteration failure of a quarantined ThreadPool::run.
struct IterationFailure {
  index_t index = 0;     ///< the iteration that threw
  std::string message;   ///< what() of the thrown exception
};

/// Fixed-size thread pool — the repo's one dispatch primitive. A pool of n
/// threads starts n − 1 workers in the constructor and joins them in the
/// destructor; the thread calling run() is the n-th, so a pool of ≤ 1
/// thread starts no worker and run() is a plain loop on the caller.
///
/// Thread-safety: run() may be called from any thread, including
/// concurrently. Iteration bodies must not call run() on the same pool (no
/// nested parallelism — a body waiting on the pool it runs in would
/// deadlock).
class ThreadPool {
 public:
  /// Sizes the pool to `thread_count` threads, caller included; 0 means
  /// resolve_thread_count(0) (hardware concurrency).
  explicit ThreadPool(index_t thread_count = 0);

  /// Signals stop and joins all workers (run() never returns with work
  /// still queued, so there is nothing left to drain).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  index_t thread_count() const { return thread_count_; }

  /// Runs body(i) for every i in [0, n) and blocks until all iterations
  /// finished. Iterations are claimed dynamically from one ascending
  /// counter, so execution order is unspecified; side effects must go to
  /// per-index storage. n = 0 returns immediately.
  ///
  /// Failure contract — the same at every thread count, inline included:
  ///  - quarantine off: the exception rethrown on the calling thread is
  ///    DETERMINISTICALLY the one from the lowest-index failing iteration.
  ///    Why this holds: by the time any iteration g fails, every index
  ///    below g has already been claimed and runs to completion before the
  ///    call returns, so the lowest failing index is always among the
  ///    iterations that ran and a min-index reduction picks it regardless
  ///    of timing. The first failure still cancels every UNCLAIMED
  ///    iteration (all above the minimum, so they cannot affect it).
  ///    Returns empty.
  ///  - quarantine on: every iteration runs regardless of other
  ///    iterations' failures; a throwing iteration is captured — never
  ///    rethrown — and returned sorted by index. The failure set is a pure
  ///    function of `body`, which is what lets the Monte-Carlo drivers
  ///    exclude poisoned trials identically at any thread count (DESIGN.md
  ///    §11). A run with failures dumps the flight recorder once when obs
  ///    is enabled.
  std::vector<IterationFailure> run(index_t n,
                                    const std::function<void(index_t)>& body,
                                    bool quarantine = false);

  /// Monotone progress counter: bumped once per finished run() iteration,
  /// failing ones included. The obs::Watchdog reads this (plus the
  /// engine's own counters) to tell "slow epoch" from "wedged pool" — any
  /// forward motion anywhere in the pool resets the stall clock. Safe to
  /// read from any thread.
  std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

 private:
  /// Enqueues one helper drain of run(); private because a pool without
  /// workers would never execute it.
  void submit(std::function<void()> task);

  /// `ordinal` is the 1-based worker index, reported to obs as the thread
  /// ordinal so metric shards and trace buffers merge in a stable order
  /// (the caller thread keeps ordinal 0).
  void worker_loop(index_t ordinal);

  index_t thread_count_ = 1;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> heartbeat_{0};
  std::vector<std::jthread> workers_;
};

}  // namespace mmw::core
