#include "obs/manifest.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/json.h"

namespace mmw::obs {

namespace {

std::string render_string(const std::string& v) {
  JsonWriter w;
  w.string(v);
  return std::move(w).str();
}

/// The "<field> <n> kB" line of /proc/self/status in bytes (Linux); 0 when
/// the file or the field is absent.
std::uint64_t proc_status_bytes(std::string_view field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  bool found = false;
  while (!found && std::fgets(line, sizeof line, f) != nullptr)
    found = std::string_view(line).starts_with(field) &&
            std::sscanf(line + field.size(), " %llu kB", &kb) == 1;
  std::fclose(f);
  return found ? static_cast<std::uint64_t>(kb) * 1024u : 0;
}

}  // namespace

void RunManifest::add_config(std::string key, std::string value) {
  config_.emplace_back(std::move(key), render_string(value));
}

void RunManifest::add_config(std::string key, double value) {
  JsonWriter w;
  w.number(value);
  config_.emplace_back(std::move(key), std::move(w).str());
}

void RunManifest::add_config(std::string key, std::uint64_t value) {
  JsonWriter w;
  w.number(value);
  config_.emplace_back(std::move(key), std::move(w).str());
}

void RunManifest::add_config(std::string key, bool value) {
  config_.emplace_back(std::move(key), value ? "true" : "false");
}

void RunManifest::add_health(std::string key, std::uint64_t value) {
  health_.emplace_back(std::move(key), value);
}

std::string RunManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string("mmw.run_manifest/1");
  w.key("name");
  w.string(name_);
  w.key("build");
  w.begin_object();
  w.key("compiler");
#if defined(__VERSION__)
  w.string(__VERSION__);
#else
  w.string("unknown");
#endif
  w.key("build_type");
#if defined(MMW_BUILD_TYPE)
  w.string(MMW_BUILD_TYPE);
#elif defined(NDEBUG)
  w.string("Release");
#else
  w.string("Debug");
#endif
  w.key("obs_enabled");
  w.boolean(enabled());
  w.end_object();
  w.key("config");
  w.begin_object();
  for (const auto& [key, value] : config_) {
    w.key(key);
    w.raw(value);
  }
  w.end_object();
  w.key("wall_seconds");
  w.number(wall_seconds_);
  w.key("health");
  w.begin_object();
  for (const auto& [key, value] : health_) {
    w.key(key);
    w.number(value);
  }
  w.end_object();
  w.key("metrics");
  if (metrics_json_.empty())
    w.null();
  else
    w.raw(metrics_json_);
  w.end_object();
  return std::move(w).str();
}

std::uint64_t peak_rss_bytes() {
  // VmHWM is the kernel's own high-water mark for resident pages; it
  // survives any frees the allocator has since returned to the OS.
  if (const std::uint64_t hwm = proc_status_bytes("VmHWM:")) return hwm;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;  // kB elsewhere
#endif
  }
#endif
  return 0;
}

std::uint64_t current_rss_bytes() { return proc_status_bytes("VmRSS:"); }

std::FILE* open_output_file(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "note: could not create %s: %s\n",
                   p.parent_path().c_str(), ec.message().c_str());
      return nullptr;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    std::fprintf(stderr, "note: could not open %s\n", path.c_str());
  return f;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = open_output_file(path);
  if (f == nullptr) return false;
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose flushes the buffered tail: a full disk may only show here.
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "note: could not write %s\n", path.c_str());
  return ok;
}

}  // namespace mmw::obs
