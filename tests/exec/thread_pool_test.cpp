// Work-stealing pool contract tests: every index visited exactly once at
// any lane count, exceptions propagate to the caller, and the free-function
// wrapper degrades to a plain loop with a null pool.
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

namespace pisa::exec {
namespace {

TEST(ThreadPool, NullPoolRunsSequentially) {
  std::vector<std::size_t> order;
  parallel_for(nullptr, 3, 8, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7}));
}

TEST(ThreadPool, SingleLaneRunsSequentiallyInOrder) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::size_t> order;
  parallel_for(&pool, 0, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  for (std::size_t threads : {2u, 4u, 7u}) {
    ThreadPool pool{threads};
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(&pool, 0, kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool{4};
  std::atomic<int> calls{0};
  parallel_for(&pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(&pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(
      parallel_for(&pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives a throwing job and remains usable.
  std::atomic<int> count{0};
  parallel_for(&pool, 0, 50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool{3};
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    parallel_for(&pool, 0, 100,
                 [&](std::size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), 5050u);
  }
}

TEST(ThreadPool, ManyTinyJobsDoNotOutliveTheirCaller) {
  // Each parallel_for keeps its Job on the caller's stack. Thousands of
  // two-to-eight-index jobs at four lanes make the last worker finish just
  // as the caller returns. A worker that still touches the finished Job
  // (its done_m / done_cv) races the next call's Job built at the same
  // address: a lost wakeup or a hang here, a data race under TSan.
  ThreadPool pool{4};
  for (std::size_t round = 0; round < 5000; ++round) {
    const std::size_t n = 2 + round % 7;
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, n, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace pisa::exec
