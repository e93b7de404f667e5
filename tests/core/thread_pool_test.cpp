#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/obs.h"

namespace mmw::core {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_GE(resolve_thread_count(0), 1u);  // auto: at least one
}

TEST(ThreadPoolTest, ZeroTaskShutdown) {
  // Construct and destroy without ever submitting work; must not hang.
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
}

TEST(ThreadPoolTest, EmptyRangeReturnsImmediately) {
  ThreadPool pool(2);
  bool touched = false;
  EXPECT_TRUE(pool.run(0, [&](index_t) { touched = true; }).empty());
  EXPECT_TRUE(pool.run(0, [&](index_t) { touched = true; }, true).empty());
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForCompletesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr index_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run(kN, [&](index_t i) { hits[i].fetch_add(1); });
  for (index_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForRespectsBegin) {
  // run(n) covers exactly [0, n); an offset range is the caller's shift.
  ThreadPool pool(2);
  std::vector<int> hits(10, 0);
  pool.run(3, [&](index_t i) { hits[7 + i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
  EXPECT_EQ(hits[7] + hits[8] + hits[9], 3);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(64, 0);
  pool.run(out.size(), [&](index_t i) { out[i] = static_cast<int>(i); });
  for (index_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [&](index_t i) {
                 if (i == 13) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool survives a throwing run and accepts new work.
  std::atomic<int> done{0};
  pool.run(8, [&](index_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, LowestIndexFailureWinsDeterministically) {
  // Many iterations fail; the rethrown exception must always be the one
  // from the LOWEST failing index, regardless of thread scheduling.
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.run(400, [&](index_t i) {
        if (i % 7 == 3)  // 3, 10, 17, ... — lowest is 3
          throw std::runtime_error("fail@" + std::to_string(i));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail@3");
    }
  }
}

TEST(ThreadPoolTest, QuarantineCollectsEveryFailureSorted) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  const std::vector<IterationFailure> failures =
      pool.run(
          100,
          [&](index_t i) {
            hits[i].fetch_add(1);
            if (i % 10 == 5)
              throw std::runtime_error("bad " + std::to_string(i));
          },
          true);
  // No cancellation: every index ran exactly once.
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  ASSERT_EQ(failures.size(), 10u);
  for (index_t k = 0; k < failures.size(); ++k) {
    EXPECT_EQ(failures[k].index, 10 * k + 5);
    EXPECT_EQ(failures[k].message, "bad " + std::to_string(10 * k + 5));
  }
}

TEST(ThreadPoolTest, QuarantineEmptyWhenNothingThrows) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  const auto failures =
      pool.run(32, [&](index_t) { done.fetch_add(1); }, true);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, SequentialParallelForsReuseTheSamePool) {
  ThreadPool pool(3);
  std::atomic<index_t> total{0};
  for (int round = 0; round < 10; ++round)
    pool.run(50, [&](index_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 500u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  // submit() is private: a single-iteration run is the public way to hand
  // one task to the pool, and it must run at every pool size (a one-thread
  // pool has no worker that could pick a queued task up).
  for (const index_t threads : {index_t{1}, index_t{2}}) {
    std::atomic<bool> ran{false};
    {
      ThreadPool pool(threads);
      pool.run(1, [&](index_t) { ran.store(true); });
    }
    EXPECT_TRUE(ran.load()) << threads;
  }
}

TEST(ThreadPoolTest, HeartbeatAdvancesWithWork) {
  ThreadPool pool(3);
  const std::uint64_t before = pool.heartbeat();
  pool.run(100, [](index_t) {});
  const std::uint64_t after_for = pool.heartbeat();
  // One beat per completed iteration — the watchdog's liveness signal.
  EXPECT_GE(after_for, before + 100);

  pool.run(
      50,
      [](index_t i) {
        if (i % 2 == 0) throw std::runtime_error("boom");
      },
      true);
  // Failing iterations still beat: a shard that throws is not a stall.
  EXPECT_GE(pool.heartbeat(), after_for + 50);
}

TEST(ThreadPoolTest, HeartbeatIsMonotone) {
  ThreadPool pool(2);
  std::uint64_t last = pool.heartbeat();
  for (int round = 0; round < 5; ++round) {
    pool.run(20, [](index_t) {});
    const std::uint64_t now = pool.heartbeat();
    EXPECT_GE(now, last + 20);
    last = now;
  }
}

TEST(ThreadPoolTest, RunFailureContractHoldsAtEveryThreadCount) {
  // One table over threads × quarantine × failing set. Quarantined: every
  // iteration runs once and the ascending failure list is the failing set
  // at every thread count. Plain: the lowest failing index's exception is
  // rethrown, after every index below it ran. Either way the heartbeat
  // advances exactly once per executed iteration.
  constexpr index_t kN = 10;
  std::vector<index_t> all(kN);
  std::iota(all.begin(), all.end(), index_t{0});
  const std::vector<std::vector<index_t>> failing_sets{
      {}, {3}, {0, 5, 7}, all};
  for (const std::vector<index_t>& failing : failing_sets) {
    for (const bool quarantine : {false, true}) {
      for (const index_t threads : {index_t{1}, index_t{2}, index_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " quarantine=" << quarantine
                     << " failing=" << failing.size());
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(kN);
        const auto body = [&](index_t i) {
          hits[i].fetch_add(1);
          if (std::find(failing.begin(), failing.end(), i) != failing.end())
            throw std::runtime_error("fail@" + std::to_string(i));
        };
        const std::uint64_t before = pool.heartbeat();
        std::vector<IterationFailure> failures;
        std::string rethrown;
        try {
          failures = pool.run(kN, body, quarantine);
        } catch (const std::runtime_error& e) {
          rethrown = e.what();
        }
        std::uint64_t executed = 0;
        for (const std::atomic<int>& h : hits) {
          EXPECT_LE(h.load(), 1);
          executed += static_cast<std::uint64_t>(h.load());
        }
        EXPECT_EQ(pool.heartbeat() - before, executed);

        if (quarantine || failing.empty()) {
          EXPECT_EQ(executed, kN);
          EXPECT_EQ(rethrown, "");
          ASSERT_EQ(failures.size(), quarantine ? failing.size() : 0u);
          for (index_t k = 0; k < failures.size(); ++k) {
            EXPECT_EQ(failures[k].index, failing[k]);
            EXPECT_EQ(failures[k].message,
                      "fail@" + std::to_string(failing[k]));
          }
        } else {
          EXPECT_TRUE(failures.empty());
          EXPECT_EQ(rethrown, "fail@" + std::to_string(failing.front()));
          for (index_t i = 0; i < failing.front(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, QuarantinedFailureDumpsFlightRecorder) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mmw_pool_flight_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::FlightRecorder::global().set_dump_directory(dir.string());
  const std::uint64_t dumps_before =
      obs::FlightRecorder::global().dump_count();

  ThreadPool pool(2);
  pool.run(
      8,
      [](index_t i) {
        if (i == 3) throw std::runtime_error("quarantine me");
      },
      true);
  // One dump per quarantined run with failures, not per failure.
  EXPECT_EQ(obs::FlightRecorder::global().dump_count(), dumps_before + 1);

  bool found = false;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().find("quarantined_iteration") !=
        std::string::npos)
      found = true;
  EXPECT_TRUE(found);

  // A clean quarantined run must NOT dump.
  pool.run(8, [](index_t) {}, true);
  EXPECT_EQ(obs::FlightRecorder::global().dump_count(), dumps_before + 1);

  obs::FlightRecorder::global().set_dump_directory("bench_results");
  obs::set_enabled(was_enabled);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mmw::core
