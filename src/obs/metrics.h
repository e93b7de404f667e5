// Thread-safe metrics registry: counters, gauges, and fixed-bucket
// histograms with per-thread sharded sinks.
//
// Recording model (DESIGN.md §8):
//  - Metric handles are registered once by name (cheap to copy, trivially
//    destructible); hot paths hold them in function-local statics.
//  - Every recording thread writes to its OWN shard — a per-thread vector
//    of cells in obs::ThreadShards (shards.h) — so concurrent recording
//    never contends across threads (TSan-covered in tests/obs/obs_test.cpp).
//  - `snapshot()` merges all shards in deterministic (thread-ordinal,
//    registration-sequence) order; core::ThreadPool labels its workers
//    1..n via obs::set_thread_ordinal so the merge order is stable.
//    Counter and histogram merges are integer sums (order-independent);
//    gauge `last` is last-write-wins over that SAME shard order — the
//    highest (ordinal, sequence) shard that ever set the gauge owns the
//    merged `last`, making the snapshot a pure function of what each
//    thread recorded rather than of scheduling. (Within one shard, `last`
//    is the thread's program-order latest set(), which is already
//    deterministic.) The PR-2 determinism contract is untouched either
//    way: no metric value ever feeds back into the simulation.
//  - The disabled path of every record call is one relaxed atomic load
//    (obs::enabled()) and an immediate return.
//
// Histogram bucket semantics are Prometheus-style "le": a sample v lands in
// the first bucket whose upper_bound >= v; samples above the last bound go
// to the implicit overflow bucket, so `counts` has upper_bounds.size() + 1
// entries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "obs/shards.h"

namespace mmw::obs {

class Registry;

/// Fixed histogram bucket layout: ascending upper bounds (implicit +inf
/// overflow bucket appended by the registry).
struct HistogramBuckets {
  std::vector<real> upper_bounds;

  /// count buckets: first_upper, first_upper + width, ...
  static HistogramBuckets linear(real first_upper, real width, index_t count);
  /// count buckets: first_upper, first_upper·factor, ... (factor > 1).
  static HistogramBuckets exponential(real first_upper, real factor,
                                      index_t count);
};

/// Monotone event counter. Copyable value handle; add() is thread-safe.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const;

 private:
  friend class Registry;
  Counter(Registry* r, index_t id) : registry_(r), id_(id) {}
  Registry* registry_ = nullptr;
  index_t id_ = 0;
};

/// Last-value gauge that also tracks min/max/sum/count of everything set,
/// so the merged view keeps order-independent aggregates alongside `last`.
class Gauge {
 public:
  Gauge() = default;
  void set(real value) const;

 private:
  friend class Registry;
  Gauge(Registry* r, index_t id) : registry_(r), id_(id) {}
  Registry* registry_ = nullptr;
  index_t id_ = 0;
};

/// Fixed-bucket histogram. The handle carries an immutable pointer to its
/// bucket bounds so the hot path never touches the registry's (mutex-
/// guarded, growable) definition table.
class Histogram {
 public:
  Histogram() = default;
  void record(real value) const;

 private:
  friend class Registry;
  Histogram(Registry* r, index_t id,
            std::shared_ptr<const std::vector<real>> bounds)
      : registry_(r), id_(id), bounds_(std::move(bounds)) {}
  Registry* registry_ = nullptr;
  index_t id_ = 0;
  std::shared_ptr<const std::vector<real>> bounds_;
};

struct CounterSnapshot {
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::uint64_t count = 0;  ///< number of set() calls
  real last = 0.0;
  real minimum = 0.0;
  real maximum = 0.0;
  real sum = 0.0;
};

struct HistogramSnapshot {
  std::vector<real> upper_bounds;
  std::vector<std::uint64_t> counts;  ///< upper_bounds.size() + 1 (overflow)
  std::uint64_t count = 0;
  real sum = 0.0;
};

/// Merged view of every metric, keyed by name.
struct MetricsSnapshot {
  std::map<std::string, CounterSnapshot> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json() const;
};

/// The registry. Most code uses Registry::global(); independent instances
/// exist for tests. Registration (counter/gauge/histogram) takes the
/// registry mutex; recording touches only the caller's shard.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// Returns the handle for `name`, registering it on first call. A name
  /// keeps its kind forever; re-registering with a different kind throws.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `buckets` is fixed at first registration; later calls for the same
  /// name ignore their argument.
  Histogram histogram(std::string_view name, HistogramBuckets buckets);

  /// Merges every shard (thread-ordinal order, see header comment) into a
  /// point-in-time view. Safe to call while other threads record.
  MetricsSnapshot snapshot() const;

  /// Zeroes every cell in every shard (run boundaries, tests). Metric
  /// definitions and handles stay valid.
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  enum class Kind { kCounter, kGauge, kHistogram };

  struct Def {
    std::string name;
    Kind kind;
    /// Histograms only; shared with every handle and never mutated after
    /// registration, so hot paths read it lock-free.
    std::shared_ptr<const std::vector<real>> upper_bounds;
  };

  /// One recording cell; the union of what the three kinds need.
  struct Cell {
    std::uint64_t count = 0;
    real sum = 0.0;
    real minimum = 0.0;
    real maximum = 0.0;
    real last = 0.0;
    std::vector<std::uint64_t> bucket_counts;
  };

  index_t register_metric(std::string_view name, Kind kind,
                          std::shared_ptr<const std::vector<real>> bounds);
  /// Runs fn(Cell&) on the calling thread's cell for metric `id`.
  template <class Fn>
  void with_cell(index_t id, Fn&& fn);

  void record_add(index_t id, std::uint64_t delta);
  void record_gauge(index_t id, real value);
  void record_histogram(index_t id, real value,
                        const std::vector<real>& bounds);

  mutable std::mutex mutex_;  ///< guards defs_, ids_
  std::vector<Def> defs_;
  std::map<std::string, index_t, std::less<>> ids_;
  ThreadShards<std::vector<Cell>> shards_;
};

}  // namespace mmw::obs
