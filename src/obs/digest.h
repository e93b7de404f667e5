// Fixed-memory streaming quantile digest (DESIGN.md §14).
//
// The serving telemetry plane needs tail quantiles (p99/p999 loss-dB,
// epoch-latency percentiles) over hour-long runs without keeping samples:
// a per-session or per-sample record would break the O(sessions + buckets)
// memory contract of the serving engine. This sketch is a merging-buffer
// digest in the t-digest family with a UNIFORM size bound instead of a
// scale function:
//
//  - add() appends to a small raw buffer; when the buffer fills, it is
//    sorted and merged into the centroid list (weighted means);
//  - whenever the centroid list exceeds `compression` entries, adjacent
//    centroids are re-clustered greedily so no cluster outweighs
//    ceil(total/compression) — the worst-case rank error of the midpoint
//    interpolation rule is therefore ~1/(2·compression) per query
//    (≈0.2% at the default 256; tests/obs/digest_test.cpp verifies ≤1%
//    against exact quantiles, including after shard merges);
//  - memory is O(compression) forever: ≤2·compression centroids plus the
//    buffer, independent of how many samples stream through.
//
// Determinism contract (the serving NDJSON export depends on it): every
// operation is a PURE FUNCTION of the operation sequence — sorting uses a
// total order, clustering walks left-to-right, and merge(a, b) folds b's
// state in one deterministic pass. Two digests fed the same sequence are
// bit-identical, and shard digests merged in the engine's fixed flat-shard
// order yield bit-identical quantiles at any --threads value.
//
// Not thread-safe; the serving engine keeps one digest per shard frame and
// merges on the coordinating thread, mirroring MetricFrame.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/common.h"

namespace mmw::obs {

class QuantileDigest {
 public:
  static constexpr index_t kDefaultCompression = 256;

  explicit QuantileDigest(index_t compression = kDefaultCompression);

  /// Streams one sample. Non-finite values are dropped (JSON could not
  /// carry the resulting quantiles anyway). Amortized O(log compression).
  void add(real value);

  /// Folds `other` into this digest (other is unchanged). Deterministic:
  /// the result depends only on the two digests' states, never on timing.
  void merge(const QuantileDigest& other);

  /// Samples absorbed so far (buffered + clustered).
  std::uint64_t count() const { return total_weight_ + buffer_.size(); }
  bool empty() const { return count() == 0; }

  /// The q-quantile estimate, q in [0, 1]; exact at q = 0 and q = 1 (true
  /// min/max are tracked separately). Returns 0 for an empty digest.
  /// Non-const because buffered samples are clustered on demand.
  real quantile(real q);

  real min_value() const { return count() == 0 ? 0.0 : min_; }
  real max_value() const { return count() == 0 ? 0.0 : max_; }
  /// The running double sum of the samples. Unlike the quantiles it is not
  /// overflow-safe: once the true sum leaves the double range (samples near
  /// ±DBL_MAX) it reads ±∞, and a merge of a +∞ and a −∞ sum reads NaN.
  real sum() const { return sum_; }

  /// Clusters any buffered samples now (add() does this automatically when
  /// the buffer fills; call before inspecting centroid state in tests).
  void flush();

  /// Centroids currently held — memory/bound introspection for tests.
  index_t centroid_count() const { return centroids_.size(); }
  index_t compression() const { return compression_; }

 private:
  struct Centroid {
    real mean = 0.0;
    std::uint64_t weight = 0;
  };

  /// The calling thread's merge buffer, shared by every digest's flush and
  /// merge: a digest holds no scratch of its own (the serving engine builds
  /// one per shard frame every epoch), and once the buffer has grown to the
  /// largest merge a stream of samples clusters without allocating.
  static std::vector<Centroid>& merge_buffer();

  /// Re-clusters `merged` (sorted by mean) so no output cluster outweighs
  /// ceil(W/compression), writing the result into centroids_.
  void compress(const std::vector<Centroid>& merged);

  index_t compression_;
  std::vector<Centroid> centroids_;  ///< sorted by (mean, weight)
  std::vector<real> buffer_;         ///< raw samples awaiting clustering
  std::uint64_t total_weight_ = 0;   ///< Σ weight over centroids_
  real min_ = 0.0;
  real max_ = 0.0;
  real sum_ = 0.0;
};

}  // namespace mmw::obs
