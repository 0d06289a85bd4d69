// util::parallel_for — the contract the cold task builds rely on: fn(i)
// exactly once per index, full visibility on return, nesting that runs
// inline, concurrent callers, exception propagation.
#include "isex/util/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace isex::util {
namespace {

/// Pins the process-wide thread cap for one test and restores the default
/// afterwards, so test order never leaks a cap into other suites.
class ThreadCap {
 public:
  explicit ThreadCap(int n) { set_max_threads(n); }
  ~ThreadCap() { set_max_threads(0); }
};

TEST(TaskPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1);
}

TEST(TaskPoolTest, SetMaxThreadsOverridesAndResets) {
  set_max_threads(7);
  EXPECT_EQ(max_threads(), 7);
  set_max_threads(0);  // back to ISEX_THREADS/hardware default
  EXPECT_GE(max_threads(), 1);
}

TEST(TaskPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadCap cap(8);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPoolTest, WritesAreVisibleAfterReturn) {
  ThreadCap cap(4);
  constexpr std::size_t kN = 4096;
  std::vector<std::size_t> out(kN, 0);
  parallel_for(kN, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], i * i);
}

TEST(TaskPoolTest, SerialWhenOneThread) {
  ThreadCap cap(1);
  // With the cap at 1 the indices must run in order on the calling thread.
  std::vector<std::size_t> order;
  parallel_for(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskPoolTest, ZeroAndOneItem) {
  ThreadCap cap(8);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(TaskPoolTest, NestedParallelForCompletes) {
  ThreadCap cap(8);
  constexpr std::size_t kOuter = 16, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(kOuter, [&](std::size_t o) {
    parallel_for(kInner, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  long total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, static_cast<long>(kOuter * kInner));
}

/// A parallel_for inside another starts no threads of its own: every inner
/// index runs on the thread that runs the outer index.
TEST(TaskPoolTest, NestedParallelForRunsOnItsCallersThread) {
  ThreadCap cap(4);
  constexpr std::size_t kOuter = 8, kInner = 32;
  std::vector<std::atomic<int>> off_thread(kOuter);
  parallel_for(kOuter, [&](std::size_t o) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(kInner, [&](std::size_t) {
      if (std::this_thread::get_id() != outer)
        off_thread[o].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t o = 0; o < kOuter; ++o)
    EXPECT_EQ(off_thread[o].load(), 0) << "outer index " << o;
}

TEST(TaskPoolTest, ExceptionPropagates) {
  ThreadCap cap(4);
  EXPECT_THROW(parallel_for(256,
                            [&](std::size_t i) {
                              if (i == 100)
                                throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // parallel_for must still work after an exceptional region.
  std::atomic<long> sum{0};
  parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);

  // An exception thrown inside a nested region reaches the outer caller,
  // and the next region still runs.
  EXPECT_THROW(parallel_for(8,
                            [&](std::size_t o) {
                              parallel_for(32, [&](std::size_t i) {
                                if (o == 5 && i == 17)
                                  throw std::runtime_error("inner boom");
                              });
                            }),
               std::runtime_error);
  sum = 0;
  parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

/// Two outside threads (a serve thread next to the main thread) each open
/// nested regions at the same time; every index still runs exactly once.
TEST(TaskPoolTest, ConcurrentExternalCallers) {
  ThreadCap cap(4);
  constexpr std::size_t kOuter = 6, kInner = 40;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> hits[2] = {
      std::vector<std::atomic<int>>(kRounds * kOuter * kInner),
      std::vector<std::atomic<int>>(kRounds * kOuter * kInner)};
  auto caller = [&](int c) {
    for (int r = 0; r < kRounds; ++r)
      parallel_for(kOuter, [&](std::size_t o) {
        parallel_for(kInner, [&](std::size_t i) {
          hits[c][(static_cast<std::size_t>(r) * kOuter + o) * kInner + i]
              .fetch_add(1, std::memory_order_relaxed);
        });
      });
  };
  std::thread a(caller, 0), b(caller, 1);
  a.join();
  b.join();
  for (const auto& h : hits)
    for (std::size_t k = 0; k < h.size(); ++k)
      ASSERT_EQ(h[k].load(), 1) << "index " << k;
}

/// Stress for the index claims (and for tsan): many small regions with
/// uneven per-index work.
TEST(TaskPoolTest, RepeatedUnevenBatchesStress) {
  ThreadCap cap(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    const std::size_t n = 1 + static_cast<std::size_t>(round) * 13 % 300;
    parallel_for(n, [&](std::size_t i) {
      volatile long spin = static_cast<long>(i % 17);
      for (long s = 0; s < spin * 50; ++s) asm volatile("");
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<long>(n * (n - 1) / 2));
  }
}

}  // namespace
}  // namespace isex::util
