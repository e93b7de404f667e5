// Tests for obs::ThreadShards through its three owners (Registry,
// TraceCollector, FlightRecorder): owner identity survives address reuse,
// recording races every shard walk (exercised under TSan in CI), and walks
// render threads in ordinal order whatever order they first recorded in.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmw::obs {
namespace {

class ShardsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
  }
  void TearDown() override { set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

std::uint64_t count_occurrences(const std::string& hay,
                                const std::string& needle) {
  std::uint64_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST_F(ShardsTest, RegistryRebuiltAtTheSameAddressKeepsWorkerRecords) {
  // One long-lived worker records into a registry, the registry is
  // destroyed and a new one is built in the same storage, and the worker
  // records again: the second registry must see that record, not lose it
  // to the first registry's orphaned shard.
  std::optional<Registry> reg;
  std::binary_semaphore go{0};
  std::binary_semaphore done{0};
  std::thread worker([&] {
    set_thread_ordinal(1);
    for (int round = 0; round < 2; ++round) {
      go.acquire();
      reg->counter("records").add();
      done.release();
    }
  });

  reg.emplace();
  const Registry* first = &*reg;
  go.release();
  done.acquire();
  EXPECT_EQ(reg->snapshot().counters.at("records").value, 1u);

  reg.reset();
  reg.emplace();
  ASSERT_EQ(&*reg, first);
  go.release();
  done.acquire();
  EXPECT_EQ(reg->snapshot().counters.at("records").value, 1u);
  worker.join();
}

TEST_F(ShardsTest, TraceRecordingRacesEveryWalk) {
  TraceCollector tc;
  tc.set_capturing(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      set_thread_ordinal(static_cast<std::uint64_t>(t + 1));
      for (std::uint64_t i = 0; i < 2000; ++i)
        tc.complete("race.span", "test", i, 1, nullptr, 0);
    });
  }
  for (int k = 0; k < 50; ++k) {
    (void)tc.chrome_json();
    (void)tc.event_count();
    if (k % 10 == 0) tc.clear();
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(count_occurrences(tc.chrome_json(), "\"ph\":\"X\""),
            tc.event_count());
  tc.clear();
  EXPECT_EQ(tc.event_count(), 0u);
}

TEST_F(ShardsTest, FlightRecordingRacesEveryWalk) {
  FlightRecorder rec(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      set_thread_ordinal(static_cast<std::uint64_t>(t + 1));
      for (std::uint64_t i = 0; i < 2000; ++i)
        rec.record("race.span", "test", i, 1);
    });
  }
  for (int k = 0; k < 50; ++k) {
    (void)rec.chrome_json("race");
    (void)rec.event_count();
    if (k % 10 == 0) rec.clear();
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(rec.event_count(), 4u * 64u);
  EXPECT_EQ(count_occurrences(rec.chrome_json("race"), "\"ph\":\"X\""),
            rec.event_count());
}

TEST_F(ShardsTest, DocumentsRenderThreadsInOrdinalOrder) {
  // The ordinal-2 thread records first; both documents still list the
  // ordinal-1 thread's span before it.
  TraceCollector tc;
  tc.set_capturing(true);
  FlightRecorder rec(8);
  const auto record_on = [&](std::uint64_t ordinal, const char* name) {
    std::thread([&, ordinal, name] {
      set_thread_ordinal(ordinal);
      tc.complete(name, "test", 10, 1, nullptr, 0);
      rec.record(name, "test", 10, 1);
    }).join();
  };
  record_on(2, "second");
  record_on(1, "first");
  for (const std::string& json : {tc.chrome_json(), rec.chrome_json("order")}) {
    const auto first = json.find("\"name\":\"first\"");
    const auto second = json.find("\"name\":\"second\"");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second);
    EXPECT_LT(json.find("\"tid\":1"), json.find("\"tid\":2"));
  }
}

}  // namespace
}  // namespace mmw::obs
