#include "harness.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>

namespace mmwb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  // splitmix64 finalizer over (seed, round).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + round + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double text_hash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return static_cast<double>(h >> 12);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Report::deterministic(const std::string& name, double value) {
  deterministic_.emplace_back(name, value);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

namespace {

/// Just enough JSON to walk a Chrome trace document: strings, numbers and
/// the skipping of any other value. Whitespace and key order are free.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : s_(s) {}

  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool string(std::string* out) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;  // keep the escaped char verbatim
      if (i_ < s_.size() && out != nullptr) out->push_back(s_[i_]);
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }

  bool number(double* out) {
    skip_ws();
    const char* first = s_.data() + i_;
    const auto [ptr, ec] = std::from_chars(first, s_.data() + s_.size(), *out);
    if (ec != std::errc()) return false;
    i_ += static_cast<std::size_t>(ptr - first);
    return true;
  }

  bool skip_value() {
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '"') return string(nullptr);
    if (c == '{' || c == '[') {
      int depth = 0;
      while (i_ < s_.size()) {
        const char d = s_[i_];
        if (d == '"') {
          if (!string(nullptr)) return false;
          continue;
        }
        if (d == '{' || d == '[') ++depth;
        if (d == '}' || d == ']') --depth;
        ++i_;
        if (depth == 0) return true;
      }
      return false;
    }
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
           s_[i_] != ']' && !std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
    return true;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

struct Event {
  std::string name;
  std::string ph;
  double tid = 0.0;
  double ts = 0.0;
  double dur = 0.0;
};

bool parse_event(JsonCursor& c, Event& e) {
  if (!c.eat('{')) return false;
  if (c.eat('}')) return true;
  do {
    std::string key;
    if (!c.string(&key) || !c.eat(':')) return false;
    bool ok = true;
    if (key == "name")
      ok = c.string(&e.name);
    else if (key == "ph")
      ok = c.string(&e.ph);
    else if (key == "tid")
      ok = c.number(&e.tid);
    else if (key == "ts")
      ok = c.number(&e.ts);
    else if (key == "dur")
      ok = c.number(&e.dur);
    else
      ok = c.skip_value();
    if (!ok) return false;
  } while (c.eat(','));
  return c.eat('}');
}

}  // namespace

bool SpanTimes::add_chrome_json(std::string_view json) {
  JsonCursor c(json);
  std::vector<Event> events;
  if (!c.eat('{')) return false;
  if (!c.eat('}')) {
    do {
      std::string key;
      if (!c.string(&key) || !c.eat(':')) return false;
      if (key != "traceEvents") {
        if (!c.skip_value()) return false;
        continue;
      }
      if (!c.eat('[')) return false;
      if (c.eat(']')) continue;
      do {
        Event e;
        if (!parse_event(c, e)) return false;
        if (e.ph == "X") events.push_back(std::move(e));
      } while (c.eat(','));
      if (!c.eat(']')) return false;
    } while (c.eat(','));
    if (!c.eat('}')) return false;
  }

  // Per thread, in start order with enclosing spans first: a stack of open
  // spans whose self time loses whatever each direct child covers.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  struct Open {
    const Event* e;
    double end;
    double self;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& o) {
    self_us_[o.e->name] += std::max(o.self, 0.0);
  };
  double tid = -1.0;
  for (const Event& e : events) {
    if (e.tid != tid) {
      for (const Open& o : stack) close(o);
      stack.clear();
      tid = e.tid;
    }
    while (!stack.empty() && stack.back().end <= e.ts) {
      close(stack.back());
      stack.pop_back();
    }
    const double end = e.ts + e.dur;
    if (!stack.empty())
      stack.back().self -= std::min(end, stack.back().end) - e.ts;
    stack.push_back({&e, end, e.dur});
  }
  for (const Open& o : stack) close(o);
  return true;
}

double SpanTimes::self_s(std::string_view name) const {
  const auto it = self_us_.find(name);
  return it == self_us_.end() ? 0.0 : it->second * 1e-6;
}

double SpanTimes::all_self_s() const {
  double s = 0.0;
  for (const auto& [name, us] : self_us_) s += us;
  return s * 1e-6;
}

std::uint64_t counter(const mmw::obs::MetricsSnapshot& snap,
                      const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second.value;
}

double histogram_mean(const mmw::obs::MetricsSnapshot& snap,
                      const char* name) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

void check_golden(Report& report, const std::string& repo_root,
                  const std::string& relative_path,
                  const std::string& actual) {
  const std::string expected = read_file(repo_root + "/" + relative_path);
  if (expected.empty()) {
    report.check(false, "golden " + relative_path + " is missing");
    return;
  }
  if (expected == actual) return;
  std::istringstream want(expected), got(actual);
  std::string a, b;
  int line = 1;
  while (std::getline(want, a) && std::getline(got, b) && a == b) ++line;
  report.check(false, "golden " + relative_path + " differs at line " +
                          std::to_string(line));
}

}  // namespace mmwb
