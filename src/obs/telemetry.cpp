#include "obs/telemetry.h"

#include "obs/manifest.h"

namespace mmw::obs {

bool TelemetrySink::open(const std::string& path) {
  close();
  file_ = open_output_file(path);
  return file_ != nullptr;
}

void TelemetrySink::write(std::string_view line) {
  if (file_ == nullptr) return;
  // Per-line flush is the point: an external tail must see the epoch as
  // soon as it completes, and a crash must not lose buffered history. A
  // line counts as written only once the flush has reached the file.
  if (std::fwrite(line.data(), 1, line.size(), file_) == line.size() &&
      std::fputc('\n', file_) != EOF && std::fflush(file_) == 0)
    ++records_written_;
  else
    std::fprintf(stderr, "note: telemetry line %llu was not written\n",
                 static_cast<unsigned long long>(records_written_));
}

void TelemetrySink::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace mmw::obs
