// The one command-line reader of the bench drivers and the examples.
//
// Each read declares the argument it reads: a value flag (`--name value` or
// `--name=value`), a flag whose value is optional (`--name` or
// `--name=value`), a switch (`--name`) or a positional value. A binary makes
// all of its reads and then calls reject_unknown() before any work starts,
// so an argument no read declared (a mistyped flag, a stray value) ends the
// run instead of letting it run with a default. Every command-line error, a
// malformed or out-of-range value and a flag given twice included, ends the
// process with exit status 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "linalg/common.h"

namespace mmw::bench {

/// Prints `message` to stderr and exits with status 2 (bad command line).
[[noreturn]] inline void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

/// All of `text` as a non-negative decimal integer; `what` names the input
/// in the error.
inline std::uint64_t parse_u64(const char* what, const char* text) {
  const char* end = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (text == end || ec != std::errc() || stop != end)
    usage_error(std::string(what) + " needs a non-negative integer, got '" +
                text + "'");
  return v;
}

/// All of `text` as a finite decimal number.
inline double parse_real(const char* what, const char* text) {
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (text == end || ec != std::errc() || stop != end || !std::isfinite(v))
    usage_error(std::string(what) + " needs a finite number, got '" + text +
                "'");
  return v;
}

class Args {
 public:
  static constexpr std::uint64_t kNoLimit =
      std::numeric_limits<std::uint64_t>::max();

  Args(int argc, char** argv)
      : argv_(argv + 1, argv + argc), read_(argv_.size(), false) {}

  /// The value of the value flag `name`, or nullptr when it is absent.
  const char* value(const char* name) {
    const std::size_t at = find(name);
    if (at == kAbsent) return nullptr;
    const char* rest = argv_[at] + std::strlen(name);
    if (*rest == '=') return rest + 1;
    if (at + 1 >= argv_.size())
      usage_error(std::string("missing value for ") + name);
    read_[at + 1] = true;
    return argv_[at + 1];
  }

  /// A flag whose value is optional and only given as `--name=value`:
  /// nullptr when absent, "" for the bare `--name`, else the value.
  const char* option(const char* name) {
    const std::size_t at = find(name);
    if (at == kAbsent) return nullptr;
    const char* rest = argv_[at] + std::strlen(name);
    return *rest == '=' ? rest + 1 : "";
  }

  /// True when the switch `--name`, which takes no value, is given.
  bool flag(const char* name) {
    const std::size_t at = find(name);
    if (at != kAbsent && argv_[at][std::strlen(name)] == '=')
      usage_error(std::string(name) + " takes no value");
    return at != kAbsent;
  }

  /// The value of `name`, or `fallback` when it is absent. A result outside
  /// [lo, hi] (the bounds the library will check) is a usage error, a
  /// fallback included: another flag may have narrowed the bounds.
  std::uint64_t u64(const char* name, std::uint64_t fallback,
                    std::uint64_t lo = 0, std::uint64_t hi = kNoLimit) {
    const char* v = value(name);
    return in_range(name, v == nullptr ? fallback : parse_u64(name, v), lo,
                    hi, v == nullptr);
  }

  /// The value of `name` as a finite number, or `fallback`.
  double number(const char* name, double fallback) {
    const char* v = value(name);
    return v == nullptr ? fallback : parse_real(name, v);
  }

  /// A comma-separated list of finite numbers, e.g. `--speeds 1.4,33.3`.
  std::vector<real> numbers(const char* name, std::vector<real> fallback) {
    const char* v = value(name);
    if (v == nullptr) return fallback;
    std::vector<real> out;
    const std::string list = v;
    for (std::size_t pos = 0; pos <= list.size();) {
      std::size_t next = list.find(',', pos);
      if (next == std::string::npos) next = list.size();
      out.push_back(parse_real(name, list.substr(pos, next - pos).c_str()));
      pos = next + 1;
    }
    return out;
  }

  /// Positional argument `index` (0 is the first after the program name)
  /// as an integer in [lo, hi], or `fallback` when the command line is
  /// shorter; `what` names it in errors.
  std::uint64_t positional_u64(std::size_t index, const char* what,
                               std::uint64_t fallback, std::uint64_t lo = 0,
                               std::uint64_t hi = kNoLimit) {
    if (index >= argv_.size()) return in_range(what, fallback, lo, hi, true);
    read_[index] = true;
    return in_range(what, parse_u64(what, argv_[index]), lo, hi, false);
  }

  /// Ends the reading: an argument no read above declared is a usage
  /// error. Call it after the last read and before any work.
  void reject_unknown() const {
    for (std::size_t i = 0; i < argv_.size(); ++i)
      if (!read_[i])
        usage_error(std::string("unknown argument '") + argv_[i] + "'");
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Index of the argument `name` or `name=...`, marked read; kAbsent when
  /// it is not given. Giving it twice is a usage error.
  std::size_t find(const char* name) {
    const std::size_t len = std::strlen(name);
    std::size_t at = kAbsent;
    for (std::size_t i = 0; i < argv_.size(); ++i) {
      if (std::strncmp(argv_[i], name, len) != 0 ||
          (argv_[i][len] != '\0' && argv_[i][len] != '='))
        continue;
      if (at != kAbsent) usage_error(std::string(name) + " is given twice");
      at = i;
    }
    if (at != kAbsent) read_[at] = true;
    return at;
  }

  static std::uint64_t in_range(const char* what, std::uint64_t x,
                                std::uint64_t lo, std::uint64_t hi,
                                bool is_default) {
    if (x < lo || x > hi)
      usage_error(std::string(what) + " must be " +
                  (hi == kNoLimit ? "at least " + std::to_string(lo)
                                  : "in [" + std::to_string(lo) + ", " +
                                        std::to_string(hi) + "]") +
                  ", got " + std::to_string(x) +
                  (is_default ? " (the default)" : ""));
    return x;
  }

  std::vector<const char*> argv_;
  std::vector<bool> read_;
};

}  // namespace mmw::bench
