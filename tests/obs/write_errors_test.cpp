// Output errors are reported, not swallowed: /dev/full accepts every open
// and fails every flush with ENOSPC, which is what a full disk looks like
// to a buffered writer.
#include <gtest/gtest.h>

#include <filesystem>

#include "obs/manifest.h"
#include "obs/telemetry.h"

namespace mmw::obs {
namespace {

constexpr const char* kFullDevice = "/dev/full";

TEST(WriteErrorsTest, WriteTextFileReportsAFullDevice) {
  if (!std::filesystem::exists(kFullDevice))
    GTEST_SKIP() << kFullDevice << " is not available";
  EXPECT_FALSE(write_text_file(kFullDevice, "hello"));
}

TEST(WriteErrorsTest, TelemetrySinkCountsOnlyWrittenRecords) {
  if (!std::filesystem::exists(kFullDevice))
    GTEST_SKIP() << kFullDevice << " is not available";
  TelemetrySink sink;
  ASSERT_TRUE(sink.open(kFullDevice));
  sink.write("{}");
  sink.write("{}");
  EXPECT_EQ(sink.records_written(), 0u);
}

}  // namespace
}  // namespace mmw::obs
