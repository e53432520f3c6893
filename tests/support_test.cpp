// Tests for sops::support — the parallel_for loops and error handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/parallel_for.hpp"

namespace {

using sops::support::Executor;
using sops::support::expect;
using sops::support::parallel_for;
using sops::support::parallel_for_chunked;
using sops::support::parallel_for_shards;
using sops::support::SerialExecutor;
using sops::support::TaskPool;

TEST(Expect, PassesOnTrue) { EXPECT_NO_THROW(expect(true, "never")); }

TEST(Expect, ThrowsPreconditionErrorOnFalse) {
  EXPECT_THROW(expect(false, "boom"), sops::PreconditionError);
}

TEST(Expect, MessagePropagates) {
  try {
    expect(false, "the message");
    FAIL() << "expected throw";
  } catch (const sops::PreconditionError& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw sops::PreconditionError("x"), sops::Error);
  EXPECT_THROW(throw sops::NumericalError("x"), sops::Error);
  EXPECT_THROW(throw sops::Error("x"), std::runtime_error);
}

// Every loop runs on a TaskPool of the parameter's width (0 = hardware
// concurrency; width 1 spawns no workers and runs inline).
class ParallelForWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForWidths, VisitsEveryIndexExactlyOnce) {
  TaskPool pool(GetParam());
  const std::size_t count = 1000;
  std::vector<std::atomic<int>> visits(count);
  parallel_for(pool.executor(), 0, count,
               [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_P(ParallelForWidths, ChunksPartitionTheRange) {
  TaskPool pool(GetParam());
  const std::size_t count = 777;
  std::vector<std::atomic<int>> visits(count);
  std::atomic<std::size_t> chunks{0};
  parallel_for_chunked(pool.executor(), 0, count,
                       [&](std::size_t begin, std::size_t end) {
                         EXPECT_LT(begin, end);
                         chunks.fetch_add(1);
                         for (std::size_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                         }
                       });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_EQ(chunks.load(), std::min(pool.width(), count));
}

TEST_P(ParallelForWidths, NonZeroBegin) {
  TaskPool pool(GetParam());
  std::atomic<int> sum{0};
  parallel_for(pool.executor(), 10, 20,
               [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + … + 19
}

TEST_P(ParallelForWidths, ResultsMatchSerialReference) {
  TaskPool pool(GetParam());
  const std::size_t count = 257;
  const auto fill = [&](Executor& executor) {
    std::vector<double> out(count, 0.0);
    parallel_for(executor, 0, count, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
    return out;
  };
  SerialExecutor serial;
  EXPECT_EQ(fill(pool.executor()), fill(serial));
}

TEST_P(ParallelForWidths, ShardsFollowCallerBoundaries) {
  TaskPool pool(GetParam());
  const std::vector<std::uint32_t> bounds{0, 3, 3, 10, 40};
  std::vector<std::atomic<int>> visits(40);
  using Chunk = std::tuple<std::size_t, std::size_t, std::size_t>;
  std::mutex chunks_mutex;
  std::vector<Chunk> chunks;
  parallel_for_shards(pool.executor(), std::span<const std::uint32_t>(bounds),
                      [&](std::size_t k, std::size_t begin, std::size_t end) {
                        {
                          const std::lock_guard<std::mutex> lock(chunks_mutex);
                          chunks.emplace_back(k, begin, end);
                        }
                        for (std::size_t i = begin; i < end; ++i) {
                          visits[i].fetch_add(1);
                        }
                      });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
  // The empty chunk [3, 3) is skipped; the three non-empty ones run as
  // given, each with its position in `bounds`.
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<Chunk>{{0, 0, 3}, {2, 3, 10}, {3, 10, 40}}));
}

TEST_P(ParallelForWidths, DegenerateShardBoundsAreNoops) {
  TaskPool pool(GetParam());
  bool called = false;
  const auto body = [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  };
  parallel_for_shards(pool.executor(), std::span<const std::uint32_t>(), body);
  const std::vector<std::uint32_t> single{7};
  parallel_for_shards(pool.executor(), std::span<const std::uint32_t>(single),
                      body);
  const std::vector<std::uint32_t> all_empty{4, 4, 4};
  parallel_for_shards(pool.executor(),
                      std::span<const std::uint32_t>(all_empty), body);
  EXPECT_FALSE(called);
}

TEST_P(ParallelForWidths, ShardExceptionsPropagateToCaller) {
  TaskPool pool(GetParam());
  const std::vector<std::uint32_t> bounds{0, 10, 20, 30};
  EXPECT_THROW(
      parallel_for_shards(pool.executor(),
                          std::span<const std::uint32_t>(bounds),
                          [](std::size_t, std::size_t begin, std::size_t) {
                            if (begin == 10) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, ParallelForWidths,
                         ::testing::Values(1, 2, 3, 8, 0));

TEST(ParallelFor, EmptyRangeIsNoop) {
  TaskPool pool(4);
  bool called = false;
  parallel_for(pool.executor(), 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ReversedRangeIsNoop) {
  TaskPool pool(4);
  bool called = false;
  parallel_for(pool.executor(), 7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElementRunsInline) {
  TaskPool pool(4);
  std::thread::id body_thread;
  parallel_for(pool.executor(), 0, 1, [&](std::size_t) {
    body_thread = std::this_thread::get_id();
  });
  EXPECT_TRUE(body_thread == std::this_thread::get_id());
}

TEST(ParallelFor, ExceptionsPropagateToCaller) {
  TaskPool pool(4);
  EXPECT_THROW(parallel_for(pool.executor(), 0, 100,
                            [](std::size_t i) {
                              if (i == 42) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionAbandonsOnlyTheThrowingChunk) {
  // An exception ends the throwing runner's chunk; the other chunks still
  // complete. At width 2 the contiguous partition of [0, 100) is [0, 50)
  // and [50, 100); a throw at index 0 must leave the second chunk fully
  // processed.
  TaskPool pool(2);
  std::vector<std::atomic<int>> visits(100);
  try {
    parallel_for(pool.executor(), 0, 100, [&](std::size_t i) {
      visits[i].fetch_add(1);
      if (i == 0) throw std::runtime_error("boom");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 50; i < 100; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_EQ(visits[0].load(), 1);
}

TEST(ParallelFor, MoreThreadsThanWorkIsSafe) {
  TaskPool pool(16);
  std::atomic<int> count{0};
  std::atomic<int> chunks{0};
  parallel_for_chunked(pool.executor(), 0, 3,
                       [&](std::size_t begin, std::size_t end) {
                         chunks.fetch_add(1);
                         count.fetch_add(static_cast<int>(end - begin));
                       });
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(chunks.load(), 3);  // one chunk per item, never an empty one
}

TEST(ExplicitPartition, SingleChunkRunsInline) {
  TaskPool pool(4);
  const std::vector<std::uint32_t> bounds{0, 0, 5, 5};
  std::thread::id body_thread;
  std::size_t shard = 0;
  parallel_for_shards(pool.executor(), std::span<const std::uint32_t>(bounds),
                      [&](std::size_t k, std::size_t, std::size_t) {
                        shard = k;
                        body_thread = std::this_thread::get_id();
                      });
  EXPECT_TRUE(body_thread == std::this_thread::get_id());
  EXPECT_EQ(shard, 1u);
}

TEST(DefaultThreadCount, IsPositive) {
  EXPECT_GE(sops::support::default_thread_count(), 1u);
}

}  // namespace
