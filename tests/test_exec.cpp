// Unit tests for the exec subsystem: counter-based stream derivation, shard
// planning, and the chunked thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"

namespace enb::exec {
namespace {

TEST(Stream, DistinctAcrossIndices) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seen.insert(stream_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Stream, DistinctAcrossSeeds) {
  EXPECT_NE(stream_seed(1, 0), stream_seed(2, 0));
  EXPECT_NE(stream_seed(0, 0), stream_seed(0, 1));
}

TEST(Stream, PureFunction) {
  EXPECT_EQ(stream_seed(7, 3), stream_seed(7, 3));
}

TEST(Stream, NeighbouringIndicesDecorrelated) {
  // Consecutive stream seeds should differ in roughly half their bits.
  int total_flips = 0;
  const int pairs = 256;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t diff = stream_seed(9, i) ^ stream_seed(9, i + 1);
    total_flips += std::popcount(diff);
  }
  const double avg = static_cast<double>(total_flips) / pairs;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(ShardPlanTest, CoversRangeExactly) {
  const ShardPlan plan(1000, 64);
  EXPECT_EQ(plan.num_shards(), 16u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < plan.num_shards(); ++i) {
    const Shard s = plan.shard(i);
    EXPECT_EQ(s.begin, covered);
    covered = s.end;
  }
  EXPECT_EQ(covered, 1000u);
  EXPECT_EQ(plan.shard(15).size(), 1000u - 15u * 64u);
}

TEST(ShardPlanTest, ExactMultiple) {
  const ShardPlan plan(256, 64);
  EXPECT_EQ(plan.num_shards(), 4u);
  EXPECT_EQ(plan.shard(3).size(), 64u);
}

TEST(ShardPlanTest, ZeroShardSizeClampedToOne) {
  const ShardPlan plan(5, 0);
  EXPECT_EQ(plan.num_shards(), 5u);
}

TEST(ShardPlanTest, EmptyTotal) {
  const ShardPlan plan(0, 64);
  EXPECT_EQ(plan.num_shards(), 0u);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SumMatchesSerial) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(1001, [&](std::size_t i) {
    sum.fetch_add(static_cast<std::uint64_t>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000ull * 1001ull / 2ull);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must remain usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ReentrantCallRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    // A nested parallel_for from a worker must not deadlock.
    pool.parallel_for(5, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 20);
}

TEST(ThreadPoolTest, NestedDifferentPoolStaysParallel) {
  // Only a reentrant call on the *same* pool runs inline; a dedicated pool
  // created inside a job keeps its workers busy.
  ThreadPool outer(2);
  std::atomic<int> total{0};
  outer.parallel_for(3, [&](std::size_t) {
    ThreadPool inner(2);
    inner.parallel_for(7, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 21);
}

TEST(ThreadPoolTest, BackToBackJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 64) << "round " << round;
  }
}

TEST(ForEachIndex, SerialPolicyVisitsInOrder) {
  std::vector<std::size_t> order;
  for_each_index(
      6, [&](std::size_t i) { order.push_back(i); }, Parallelism{1});
  const std::vector<std::size_t> expected{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expected);
}

TEST(ForEachIndex, DedicatedPoolPolicy) {
  std::atomic<std::uint64_t> sum{0};
  for_each_index(
      257,
      [&](std::size_t i) {
        sum.fetch_add(static_cast<std::uint64_t>(i) + 1,
                      std::memory_order_relaxed);
      },
      Parallelism{3});
  EXPECT_EQ(sum.load(), 257ull * 258ull / 2ull);
}

TEST(ForEachIndex, GlobalPoolPolicy) {
  std::atomic<int> count{0};
  for_each_index(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(DefaultThreadCount, IsPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

}  // namespace
}  // namespace enb::exec
