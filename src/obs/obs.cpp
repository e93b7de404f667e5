#include "obs/obs.h"

#include <cstdlib>
#include <string_view>

#include "obs/flight.h"

namespace mmw::obs {

namespace {

std::uint64_t& tls_ordinal() {
  thread_local std::uint64_t ordinal = 0;
  return ordinal;
}

}  // namespace

void init_from_env() {
  const char* env = std::getenv("MMW_FLIGHT");
  const std::string_view v = env == nullptr ? "" : env;
  const bool disarmed = v == "off" || v == "0" || v == "false";
  FlightRecorder::global().set_armed(!disarmed);
}

void set_thread_ordinal(std::uint64_t ordinal) { tls_ordinal() = ordinal; }

std::uint64_t thread_ordinal() { return tls_ordinal(); }

}  // namespace mmw::obs
