// TelemetrySink tests: NDJSON line output, parent creation, failure and
// reopen behaviour. The line format itself is tested with its renderer,
// serve::render_telemetry_line (tests/serve/serve_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace mmw::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A stand-in line of epoch `epoch`; the sink never looks inside it.
std::string sample_line(int epoch) {
  return "{\"schema\":\"mmw.telemetry/1\",\"epoch\":" +
         std::to_string(epoch) + ",\"counters\":{\"live_sessions\":3}}";
}

TEST(TelemetrySinkTest, WritesOneLinePerRecordAndCreatesParents) {
  const fs::path dir =
      fs::temp_directory_path() / "mmw_telemetry_test" / "nested";
  fs::remove_all(dir.parent_path());
  const fs::path path = dir / "epochs.ndjson";

  TelemetrySink sink;
  ASSERT_TRUE(sink.open(path.string()));
  EXPECT_TRUE(sink.is_open());
  sink.write(sample_line(17));
  sink.write(sample_line(18));
  EXPECT_EQ(sink.records_written(), 2u);
  sink.close();
  EXPECT_FALSE(sink.is_open());

  const std::string body = slurp(path);
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < body.size();) {
    const auto nl = body.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "file must end with a newline";
    lines.push_back(body.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"schema\":\"mmw.telemetry/1\",\"epoch\":17,", 0),
            0u);
  EXPECT_EQ(lines[1].rfind("{\"schema\":\"mmw.telemetry/1\",\"epoch\":18,", 0),
            0u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  fs::remove_all(dir.parent_path());
}

TEST(TelemetrySinkTest, ClosedSinkIsANoOp) {
  TelemetrySink sink;
  EXPECT_FALSE(sink.is_open());
  sink.write(sample_line(0));  // must not crash
  EXPECT_EQ(sink.records_written(), 0u);
  sink.close();  // idempotent
}

TEST(TelemetrySinkTest, OpenFailureLeavesSinkClosed) {
  TelemetrySink sink;
  // A path whose parent is a FILE cannot be created.
  const fs::path block =
      fs::temp_directory_path() / "mmw_telemetry_block_file";
  {
    std::ofstream out(block);
    out << "x";
  }
  EXPECT_FALSE(sink.open((block / "child" / "t.ndjson").string()));
  EXPECT_FALSE(sink.is_open());
  fs::remove(block);
}

TEST(TelemetrySinkTest, ReopenTruncates) {
  const fs::path path =
      fs::temp_directory_path() / "mmw_telemetry_reopen.ndjson";
  TelemetrySink sink;
  ASSERT_TRUE(sink.open(path.string()));
  sink.write(sample_line(0));
  sink.write(sample_line(1));
  ASSERT_TRUE(sink.open(path.string()));  // open() closes and truncates
  sink.write(sample_line(2));
  sink.close();
  const std::string body = slurp(path);
  EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 1);
  fs::remove(path);
}

}  // namespace
}  // namespace mmw::obs
