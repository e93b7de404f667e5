#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "obs/clock.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmw::core {

namespace {

/// Pool utilization telemetry (ROADMAP: the evidence for the multi-core
/// re-measure item). busy/idle are wall-microsecond integrals per worker;
/// tasks counts queue claims (helper drains), not run() iterations.
struct PoolMetrics {
  obs::Counter tasks;
  obs::Counter busy_us;
  obs::Counter idle_us;
  static const PoolMetrics& get() {
    static const PoolMetrics m{
        obs::Registry::global().counter("core.pool.tasks"),
        obs::Registry::global().counter("core.pool.busy_us"),
        obs::Registry::global().counter("core.pool.idle_us"),
    };
    return m;
  }
};

}  // namespace

index_t resolve_thread_count(index_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<index_t>(hw) : index_t{1};
}

ThreadPool::ThreadPool(index_t thread_count)
    : thread_count_(resolve_thread_count(thread_count)) {
  workers_.reserve(thread_count_ - 1);
  for (index_t i = 1; i < thread_count_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  // std::jthread joins on destruction.
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    MMW_REQUIRE_MSG(!stopping_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop(index_t ordinal) {
  obs::set_thread_ordinal(ordinal);
  for (;;) {
    std::function<void()> task;
    const std::uint64_t wait_start = obs::enabled() ? obs::now_us() : 0;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Gate on the flag captured BEFORE the wait: if obs flipped on while we
    // slept, wait_start is 0 and the interval would be garbage.
    const bool timed = wait_start != 0 && obs::enabled();
    const std::uint64_t run_start = timed ? obs::now_us() : 0;
    if (timed) {
      const PoolMetrics& m = PoolMetrics::get();
      m.tasks.add();
      m.idle_us.add(run_start - wait_start);
    }
    {
      MMW_TRACE_SCOPE("core.pool.task", "pool");
      task();  // a run() drain: captures its iterations' errors itself
    }
    if (timed) PoolMetrics::get().busy_us.add(obs::now_us() - run_start);
  }
}

std::vector<IterationFailure> ThreadPool::run(
    index_t n, const std::function<void(index_t)>& body, bool quarantine) {
  if (n == 0) return {};

  // Per-call shared state; heap-allocated so the drain lambda stays
  // copyable into the queue without lifetime reasoning (the caller blocks
  // until pending hits 0, so it cannot unwind first).
  struct Sync {
    std::atomic<index_t> next{0};
    std::mutex m;
    std::condition_variable done;
    index_t pending = 0;
    std::vector<IterationFailure> failures;  ///< quarantine on
    std::exception_ptr error;                ///< quarantine off
    index_t error_index = 0;
  };
  auto sync = std::make_shared<Sync>();
  const index_t tasks = std::min(thread_count_, n);
  sync->pending = tasks;

  // Called from inside a catch handler (std::current_exception is live).
  const auto fail = [sync, n, quarantine](index_t i, const char* what) {
    std::lock_guard lock(sync->m);
    if (quarantine) {
      sync->failures.push_back({i, what});
      return;
    }
    // Keep the LOWEST failing index: claims are monotone, so every index
    // below the first failure is already claimed and runs to completion —
    // the min-reduction is timing-independent (see the header contract).
    if (!sync->error || i < sync->error_index) {
      sync->error = std::current_exception();
      sync->error_index = i;
    }
    sync->next.store(n, std::memory_order_relaxed);  // cancel the rest
  };
  const auto drain = [this, sync, n, &body, &fail] {
    for (;;) {
      const index_t i = sync->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(i);
      } catch (const std::exception& e) {
        fail(i, e.what());
      } catch (...) {
        fail(i, "unknown exception");
      }
      heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard lock(sync->m);
    if (--sync->pending == 0) sync->done.notify_all();
  };

  // The calling thread is one of the drainers: queue tasks − 1 helpers and
  // run one drain inline (no helper at all on a one-thread pool).
  for (index_t t = 1; t < tasks; ++t) submit(drain);
  drain();
  std::exception_ptr error;
  {
    std::unique_lock lock(sync->m);
    sync->done.wait(lock, [&] { return sync->pending == 0; });
    // Move the error out: a worker may still hold the last reference to
    // `sync`, and the exception must not be freed on that thread while
    // the caller is handling it.
    error = std::move(sync->error);
  }
  if (error) std::rethrow_exception(error);

  // Capture order is timing-dependent; the sorted list is not.
  std::sort(sync->failures.begin(), sync->failures.end(),
            [](const IterationFailure& a, const IterationFailure& b) {
              return a.index < b.index;
            });
  // A quarantined failure is exactly the anomaly the flight recorder
  // exists for: snapshot the last K spans per thread while the evidence is
  // fresh. Gated on obs::enabled() so bare runs (and fault-injection tests
  // that expect silence) don't emit dump files; the recorder itself caps
  // dumps per process either way.
  if (!sync->failures.empty() && obs::enabled())
    obs::FlightRecorder::global().dump("quarantined_iteration");
  return std::move(sync->failures);
}

}  // namespace mmw::core
