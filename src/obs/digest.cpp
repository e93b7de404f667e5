#include "obs/digest.h"

#include <algorithm>
#include <cmath>

namespace mmw::obs {

namespace {

/// Total order over centroids: by mean, weight as tiebreak. A strict weak
/// ordering with no ties in practice is what makes merge deterministic.
struct CentroidLess {
  template <typename C>
  bool operator()(const C& a, const C& b) const {
    if (a.mean != b.mean) return a.mean < b.mean;
    return a.weight < b.weight;
  }
};

/// a + t·(b − a) for t in [0, 1] as the convex combination (1 − t)·a + t·b,
/// whose terms never leave the double range, kept between a and b against
/// rounding: the fallback for means near ±DBL_MAX, where the direct sums
/// overflow.
real lerp_wide(real a, real b, real t) {
  return std::clamp(a * (1.0 - t) + b * t, std::min(a, b), std::max(a, b));
}

}  // namespace

QuantileDigest::QuantileDigest(index_t compression)
    : compression_(std::max<index_t>(compression, 8)) {
  buffer_.reserve(compression_);
}

void QuantileDigest::add(real value) {
  if (!std::isfinite(value)) return;
  if (count() == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  buffer_.push_back(value);
  if (buffer_.size() >= compression_) flush();
}

void QuantileDigest::flush() {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end());

  // Merge-sort the buffered samples (weight 1 each) with the existing
  // centroid list into one sorted sequence, then re-cluster.
  std::vector<Centroid>& merged = merge_buffer();
  merged.clear();
  merged.reserve(centroids_.size() + buffer_.size());
  index_t ci = 0, bi = 0;
  while (ci < centroids_.size() || bi < buffer_.size()) {
    if (bi == buffer_.size() ||
        (ci < centroids_.size() && centroids_[ci].mean <= buffer_[bi])) {
      merged.push_back(centroids_[ci++]);
    } else {
      merged.push_back(Centroid{buffer_[bi++], 1});
    }
  }
  total_weight_ += buffer_.size();
  buffer_.clear();
  compress(merged);
}

std::vector<QuantileDigest::Centroid>& QuantileDigest::merge_buffer() {
  thread_local std::vector<Centroid> buffer;
  return buffer;
}

void QuantileDigest::compress(const std::vector<Centroid>& merged) {
  if (merged.size() <= compression_) {
    centroids_.assign(merged.begin(), merged.end());
    return;
  }
  // Greedy left-to-right clustering: grow the current cluster while its
  // weight stays within the uniform bound ceil(W / compression). The bound
  // caps every cluster's rank span at W/compression + 1, so midpoint
  // interpolation stays within ~1/(2·compression) rank error.
  const std::uint64_t limit =
      (total_weight_ + compression_ - 1) / compression_;
  centroids_.clear();
  centroids_.reserve(compression_ + 1);
  Centroid cur = merged.front();
  // Weighted mean accumulated as Σ(mean·weight): left-to-right order makes
  // the floating-point result a pure function of the merged sequence.
  real cur_sum = cur.mean * static_cast<real>(cur.weight);
  for (index_t i = 1; i < merged.size(); ++i) {
    const Centroid& next = merged[i];
    if (cur.weight + next.weight <= limit) {
      cur.weight += next.weight;
      cur_sum += next.mean * static_cast<real>(next.weight);
      // Σ(mean·weight) leaves the double range only for means near
      // ±DBL_MAX; then `next` is folded in by its weight share instead.
      cur.mean = std::isfinite(cur_sum)
                     ? cur_sum / static_cast<real>(cur.weight)
                     : lerp_wide(cur.mean, next.mean,
                                 static_cast<real>(next.weight) /
                                     static_cast<real>(cur.weight));
    } else {
      centroids_.push_back(cur);
      cur = next;
      cur_sum = cur.mean * static_cast<real>(cur.weight);
    }
  }
  centroids_.push_back(cur);
}

void QuantileDigest::merge(const QuantileDigest& other) {
  if (other.count() == 0) return;
  if (count() == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;

  flush();
  // Fold the other digest's state — clustered centroids plus any buffered
  // raw samples — through one sort + compress pass.
  std::vector<Centroid>& merged = merge_buffer();
  merged.clear();
  merged.reserve(centroids_.size() + other.centroids_.size() +
                 other.buffer_.size());
  merged.insert(merged.end(), centroids_.begin(), centroids_.end());
  merged.insert(merged.end(), other.centroids_.begin(),
                other.centroids_.end());
  for (real v : other.buffer_) merged.push_back(Centroid{v, 1});
  std::sort(merged.begin(), merged.end(), CentroidLess{});
  total_weight_ += other.total_weight_ + other.buffer_.size();
  compress(merged);
}

real QuantileDigest::quantile(real q) {
  flush();
  if (total_weight_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;

  // Midpoint rule: centroid i covers cumulative ranks
  // [before, before + weight); its mean sits at before + weight/2.
  // Interpolate linearly between adjacent midpoints.
  const real target = q * static_cast<real>(total_weight_);
  real before = 0.0;
  real prev_mid = 0.0;
  real prev_mean = min_;
  for (index_t i = 0; i < centroids_.size(); ++i) {
    const real w = static_cast<real>(centroids_[i].weight);
    const real mid = before + w / 2.0;
    if (target < mid) {
      if (i == 0) return min_;
      const real span = mid - prev_mid;
      const real t = span > 0.0 ? (target - prev_mid) / span : 0.0;
      const real step = centroids_[i].mean - prev_mean;
      const real v = std::isfinite(step)
                         ? prev_mean + t * step
                         : lerp_wide(prev_mean, centroids_[i].mean, t);
      return std::clamp(v, min_, max_);
    }
    before += w;
    prev_mid = mid;
    prev_mean = centroids_[i].mean;
  }
  return max_;
}

}  // namespace mmw::obs
