#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace mmw::obs {

HistogramBuckets HistogramBuckets::linear(real first_upper, real width,
                                          index_t count) {
  MMW_REQUIRE(width > 0.0);
  MMW_REQUIRE(count >= 1);
  HistogramBuckets b;
  b.upper_bounds.reserve(count);
  for (index_t i = 0; i < count; ++i)
    b.upper_bounds.push_back(first_upper + width * static_cast<real>(i));
  return b;
}

HistogramBuckets HistogramBuckets::exponential(real first_upper, real factor,
                                               index_t count) {
  MMW_REQUIRE(first_upper > 0.0);
  MMW_REQUIRE(factor > 1.0);
  MMW_REQUIRE(count >= 1);
  HistogramBuckets b;
  b.upper_bounds.reserve(count);
  real bound = first_upper;
  for (index_t i = 0; i < count; ++i) {
    b.upper_bounds.push_back(bound);
    bound *= factor;
  }
  return b;
}

void Counter::add(std::uint64_t delta) const {
  if (registry_ == nullptr || !enabled()) return;
  registry_->record_add(id_, delta);
}

void Gauge::set(real value) const {
  if (registry_ == nullptr || !enabled()) return;
  registry_->record_gauge(id_, value);
}

void Histogram::record(real value) const {
  if (registry_ == nullptr || !enabled()) return;
  registry_->record_histogram(id_, value, *bounds_);
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives TLS dtors
  return *instance;
}

index_t Registry::register_metric(
    std::string_view name, Kind kind,
    std::shared_ptr<const std::vector<real>> bounds) {
  MMW_REQUIRE_MSG(!name.empty(), "metric name must be non-empty");
  std::lock_guard lock(mutex_);
  if (const auto it = ids_.find(name); it != ids_.end()) {
    MMW_REQUIRE_MSG(defs_[it->second].kind == kind,
                    "metric re-registered with a different kind");
    return it->second;
  }
  if (kind == Kind::kHistogram) {
    MMW_REQUIRE_MSG(bounds && !bounds->empty(), "histogram needs buckets");
    MMW_REQUIRE_MSG(std::is_sorted(bounds->begin(), bounds->end()),
                    "histogram bucket bounds must be ascending");
  }
  const index_t id = defs_.size();
  defs_.push_back(Def{std::string(name), kind, std::move(bounds)});
  ids_.emplace(defs_.back().name, id);
  return id;
}

Counter Registry::counter(std::string_view name) {
  return Counter(this, register_metric(name, Kind::kCounter, nullptr));
}

Gauge Registry::gauge(std::string_view name) {
  return Gauge(this, register_metric(name, Kind::kGauge, nullptr));
}

Histogram Registry::histogram(std::string_view name,
                              HistogramBuckets buckets) {
  auto bounds = std::make_shared<const std::vector<real>>(
      std::move(buckets.upper_bounds));
  const index_t id = register_metric(name, Kind::kHistogram, bounds);
  // An earlier registration's bounds win; fetch them so every handle for
  // this name records against the same layout.
  {
    std::lock_guard lock(mutex_);
    bounds = defs_[id].upper_bounds;
  }
  return Histogram(this, id, std::move(bounds));
}

template <class Fn>
void Registry::with_cell(index_t id, Fn&& fn) {
  shards_.with_local([&](std::vector<Cell>& cells) {
    if (cells.size() <= id) cells.resize(id + 1);
    fn(cells[id]);
  });
}

void Registry::record_add(index_t id, std::uint64_t delta) {
  with_cell(id, [&](Cell& cell) { cell.count += delta; });
}

void Registry::record_gauge(index_t id, real value) {
  with_cell(id, [&](Cell& cell) {
    if (cell.count == 0) {
      cell.minimum = value;
      cell.maximum = value;
    } else {
      cell.minimum = std::min(cell.minimum, value);
      cell.maximum = std::max(cell.maximum, value);
    }
    ++cell.count;
    cell.sum += value;
    cell.last = value;
  });
}

void Registry::record_histogram(index_t id, real value,
                                const std::vector<real>& bounds) {
  with_cell(id, [&](Cell& cell) {
    if (cell.bucket_counts.empty())
      cell.bucket_counts.assign(bounds.size() + 1, 0);
    const auto it =
        std::lower_bound(bounds.begin(), bounds.end(), value);  // le bucket
    ++cell.bucket_counts[static_cast<index_t>(it - bounds.begin())];
    ++cell.count;
    cell.sum += value;
  });
}

MetricsSnapshot Registry::snapshot() const {
  // Definitions are copied under the registry mutex; the shards are then
  // merged in (ordinal, sequence) order, each under its own mutex.
  std::vector<Def> defs;
  {
    std::lock_guard lock(mutex_);
    defs = defs_;
  }

  MetricsSnapshot snap;
  // Pre-create every registered metric so the snapshot lists zero-valued
  // metrics too (a manifest consumer can tell "never fired" from "absent").
  for (const Def& def : defs) {
    switch (def.kind) {
      case Kind::kCounter:
        snap.counters.emplace(def.name, CounterSnapshot{});
        break;
      case Kind::kGauge:
        snap.gauges.emplace(def.name, GaugeSnapshot{});
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.upper_bounds = *def.upper_bounds;
        h.counts.assign(def.upper_bounds->size() + 1, 0);
        snap.histograms.emplace(def.name, std::move(h));
        break;
      }
    }
  }

  shards_.for_each([&](const std::vector<Cell>& cells, std::uint64_t) {
    for (index_t id = 0; id < cells.size() && id < defs.size(); ++id) {
      const Cell& cell = cells[id];
      if (cell.count == 0) continue;
      const Def& def = defs[id];
      switch (def.kind) {
        case Kind::kCounter:
          snap.counters[def.name].value += cell.count;
          break;
        case Kind::kGauge: {
          GaugeSnapshot& g = snap.gauges[def.name];
          if (g.count == 0) {
            g.minimum = cell.minimum;
            g.maximum = cell.maximum;
          } else {
            g.minimum = std::min(g.minimum, cell.minimum);
            g.maximum = std::max(g.maximum, cell.maximum);
          }
          g.count += cell.count;
          g.sum += cell.sum;
          // Last-write-wins over the DETERMINISTIC (ordinal, sequence)
          // shard order, not wall-clock update order: the highest-ordered
          // shard that ever set the gauge owns `last`. A pure function of
          // which threads recorded what — stable across re-runs.
          g.last = cell.last;
          break;
        }
        case Kind::kHistogram: {
          HistogramSnapshot& h = snap.histograms[def.name];
          h.count += cell.count;
          h.sum += cell.sum;
          for (index_t b = 0; b < cell.bucket_counts.size(); ++b)
            h.counts[b] += cell.bucket_counts[b];
          break;
        }
      }
    }
  });
  return snap;
}

void Registry::reset() {
  shards_.for_each([](std::vector<Cell>& cells, std::uint64_t) {
    for (Cell& cell : cells) cell = Cell{};
  });
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters) {
    w.key(name);
    w.number(c.value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.number(g.count);
    w.key("last");
    w.number(g.last);
    w.key("min");
    w.number(g.minimum);
    w.key("max");
    w.number(g.maximum);
    w.key("sum");
    w.number(g.sum);
    w.end_object();
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name);
    w.begin_object();
    w.key("upper_bounds");
    w.begin_array();
    for (const real b : h.upper_bounds) w.number(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (const std::uint64_t c : h.counts) w.number(c);
    w.end_array();
    w.key("count");
    w.number(h.count);
    w.key("sum");
    w.number(h.sum);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace mmw::obs
