// Executor-layer lifecycle tests: pooled dispatch correctness, worker caps,
// exception propagation, pool reuse across dispatch rounds, and the
// disjoint-lending pattern the engine's sample × step nesting relies on.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/cancel.hpp"
#include "support/executor.hpp"
#include "support/parallel_for.hpp"

namespace {

using sops::support::Executor;
using sops::support::PoolExecutor;
using sops::support::SerialExecutor;
using sops::support::TaskPool;

TEST(SerialExecutorTest, RunsTasksInlineInOrder) {
  SerialExecutor executor;
  EXPECT_EQ(executor.width(), 1u);
  std::vector<std::size_t> order;
  std::thread::id runner;
  auto task = [&](std::size_t k) {
    order.push_back(k);
    runner = std::this_thread::get_id();
  };
  executor.run(5, task);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(runner, std::this_thread::get_id());
}

TEST(TaskPoolTest, WidthCountsTheCaller) {
  TaskPool pool(4);
  EXPECT_EQ(pool.width(), 4u);
  EXPECT_EQ(pool.worker_count(), 3u);
  EXPECT_EQ(pool.executor().width(), 4u);

  TaskPool serial_pool(1);
  EXPECT_EQ(serial_pool.width(), 1u);
  EXPECT_EQ(serial_pool.worker_count(), 0u);
}

TEST(TaskPoolTest, EveryTaskRunsExactlyOnce) {
  TaskPool pool(4);
  for (const std::size_t count : {1u, 3u, 4u, 17u, 100u}) {
    std::vector<std::atomic<int>> visits(count);
    auto task = [&](std::size_t k) { visits[k].fetch_add(1); };
    pool.executor().run(count, task);
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_EQ(visits[k].load(), 1) << "count " << count << " task " << k;
    }
  }
}

TEST(TaskPoolTest, ReusableAcrossManyDispatchRounds) {
  // The point of the pool: the same parked workers serve dispatch after
  // dispatch. 500 rounds on one pool must neither leak, wedge, nor skip.
  TaskPool pool(3);
  std::atomic<std::size_t> total{0};
  auto task = [&](std::size_t k) { total.fetch_add(k + 1); };
  for (int round = 0; round < 500; ++round) pool.executor().run(4, task);
  EXPECT_EQ(total.load(), 500u * (1 + 2 + 3 + 4));
}

TEST(TaskPoolTest, ExceptionFromPooledTaskPropagates) {
  TaskPool pool(4);
  auto task = [](std::size_t k) {
    if (k == 2) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.executor().run(8, task), std::runtime_error);
}

TEST(TaskPoolTest, OtherTasksCompleteWhenOneThrows) {
  TaskPool pool(2);
  std::vector<std::atomic<int>> visits(10);
  auto task = [&](std::size_t k) {
    visits[k].fetch_add(1);
    if (k == 0) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.executor().run(10, task), std::runtime_error);
  for (std::size_t k = 0; k < visits.size(); ++k) {
    EXPECT_EQ(visits[k].load(), 1) << k;
  }
}

TEST(TaskPoolTest, PoolStaysUsableAfterAnException) {
  TaskPool pool(3);
  auto throwing = [](std::size_t) { throw std::runtime_error("boom"); };
  EXPECT_THROW(pool.executor().run(3, throwing), std::runtime_error);
  std::atomic<int> count{0};
  auto counting = [&](std::size_t) { count.fetch_add(1); };
  pool.executor().run(6, counting);
  EXPECT_EQ(count.load(), 6);
}

TEST(TaskPoolTest, BatchesTheCallerDrainsAloneAreTakenBack) {
  // Tiny batches on an idle pool: the caller usually claims every task
  // before a worker has woken, and the batch is then taken back from the
  // workers still asleep. Whoever ends up running them, every task runs
  // exactly once, a throwing round still propagates its first error, and a
  // worker released this way serves the next batch.
  TaskPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t caller_only_rounds = 0;
  for (std::size_t round = 0; round < 2000; ++round) {
    std::array<std::atomic<int>, 4> visits{};
    std::atomic<bool> helped{false};
    const bool throwing = round % 7 == 3;
    auto task = [&](std::size_t k) {
      visits[k].fetch_add(1);
      if (std::this_thread::get_id() != caller) helped.store(true);
      if (throwing && k % 2 == round % 2) {
        throw std::runtime_error("task " + std::to_string(k));
      }
    };
    if (throwing) {
      try {
        pool.executor().run(visits.size(), task);
        ADD_FAILURE() << "round " << round << " did not throw";
      } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_TRUE(what == "task " + std::to_string(round % 2) ||
                    what == "task " + std::to_string(round % 2 + 2))
            << what;
      }
    } else {
      pool.executor().run(visits.size(), task);
    }
    for (std::size_t k = 0; k < visits.size(); ++k) {
      ASSERT_EQ(visits[k].load(), 1) << "round " << round << " task " << k;
    }
    if (!helped.load()) ++caller_only_rounds;
  }
  EXPECT_GT(caller_only_rounds, 0u);

  // The released workers still serve: a batch whose tasks each wait until
  // all four have started completes only with every worker running one.
  std::atomic<int> started{0};
  std::array<std::atomic<int>, 4> visits{};
  auto rendezvous = [&](std::size_t k) {
    visits[k].fetch_add(1);
    started.fetch_add(1);
    while (started.load() < 4) std::this_thread::yield();
  };
  pool.executor().run(visits.size(), rendezvous);
  for (const std::atomic<int>& visit : visits) EXPECT_EQ(visit.load(), 1);
}

TEST(TaskPoolTest, MoreTasksThanWorkersDrainsThroughTheCap) {
  // Torture case: far more tasks than runners. Every task must run exactly
  // once, on at most width() distinct threads.
  TaskPool pool(3);
  const std::size_t count = 257;
  std::vector<std::atomic<int>> visits(count);
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  auto task = [&](std::size_t k) {
    visits[k].fetch_add(1);
    const std::lock_guard<std::mutex> lock(ids_mutex);
    ids.insert(std::this_thread::get_id());
  };
  pool.executor().run(count, task);
  for (std::size_t k = 0; k < count; ++k) EXPECT_EQ(visits[k].load(), 1) << k;
  EXPECT_LE(ids.size(), pool.width());
}

TEST(TaskPoolTest, LendingDisjointSlicesSupportsNestedDispatch) {
  // The engine's sample × step pattern: an outer dispatch of S tasks on the
  // runner slice, each task dispatching inner work on its own helper
  // slice. S = 2 outer tasks × T = 2: pool width 4 → helper slices
  // [0,1) and [1,2), runner slice [2,3).
  TaskPool pool(4);
  PoolExecutor outer = pool.lend(2, 1);
  EXPECT_EQ(outer.width(), 2u);
  std::vector<std::atomic<int>> inner_visits(40);
  auto outer_task = [&](std::size_t k) {
    PoolExecutor inner = pool.lend(k, 1);
    EXPECT_EQ(inner.width(), 2u);
    auto inner_task = [&](std::size_t j) {
      inner_visits[k * 20 + j].fetch_add(1);
    };
    for (int repeat = 0; repeat < 50; ++repeat) inner.run(20, inner_task);
  };
  outer.run(2, outer_task);
  for (std::size_t i = 0; i < inner_visits.size(); ++i) {
    EXPECT_EQ(inner_visits[i].load(), 50) << i;
  }
}

TEST(TaskPoolTest, RunPartitionedLendsDisjointInnerExecutors) {
  // The engine's outer × inner pattern through the one shared helper:
  // 3 outer chunks × inner width 2 on a pool of 6. Inner executors must be
  // usable concurrently and every inner work item must run exactly once.
  TaskPool pool(6);
  std::vector<std::atomic<int>> visits(3 * 30);
  pool.run_partitioned(
      3, 2, [&](std::size_t k, sops::support::Executor& inner) {
        EXPECT_EQ(inner.width(), 2u);
        auto inner_task = [&](std::size_t j) {
          visits[k * 30 + j].fetch_add(1);
        };
        for (int repeat = 0; repeat < 20; ++repeat) inner.run(30, inner_task);
      });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 20) << i;
  }
}

TEST(TaskPoolTest, RunPartitionedPropagatesAChunkThrow) {
  // A sample chunk dying mid-ensemble must surface as an exception at the
  // run_partitioned call — not deadlock the barrier, not get swallowed —
  // and every *other* chunk must still have been attempted (their samples'
  // completion marks are what a crash-resume later relies on).
  TaskPool pool(6);
  std::vector<std::atomic<int>> attempted(3);
  EXPECT_THROW(
      pool.run_partitioned(3, 2,
                           [&](std::size_t k, Executor&) {
                             attempted[k].fetch_add(1);
                             if (k == 1) throw std::runtime_error("chunk died");
                           }),
      std::runtime_error);
  for (std::size_t k = 0; k < attempted.size(); ++k) {
    EXPECT_EQ(attempted[k].load(), 1) << "chunk " << k;
  }
}

TEST(TaskPoolTest, RunPartitionedSurvivesEveryChunkThrowing) {
  // Worst case: all chunks throw concurrently. Exactly one propagates
  // (the first error wins); the pool's workers must all return to the
  // parked state rather than die holding the exception.
  TaskPool pool(4);
  std::atomic<int> throws{0};
  EXPECT_THROW(pool.run_partitioned(4, 1,
                                    [&](std::size_t, Executor&) {
                                      throws.fetch_add(1);
                                      throw std::runtime_error("all died");
                                    }),
               std::runtime_error);
  EXPECT_EQ(throws.load(), 4);
}

TEST(TaskPoolTest, RunPartitionedPropagatesAnInnerDispatchThrow) {
  // The nested shape the engine actually runs: the chunk body dispatches
  // intra-step work on its lent inner executor, and a task *inside that
  // inner dispatch* throws. The error must cross both dispatch layers.
  TaskPool pool(6);
  EXPECT_THROW(
      pool.run_partitioned(3, 2,
                           [&](std::size_t k, Executor& inner) {
                             auto inner_task = [&](std::size_t j) {
                               if (k == 2 && j == 5) {
                                 throw std::runtime_error("inner task died");
                               }
                             };
                             inner.run(8, inner_task);
                           }),
      std::runtime_error);
}

TEST(TaskPoolTest, RunPartitionedReusableAfterMultiChunkThrow) {
  // After a throwing fan-out the same pool must serve a clean one — the
  // engine reuses its pool across an experiment, and a failed resume
  // attempt must not poison the retry.
  TaskPool pool(6);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.run_partitioned(3, 2,
                                      [&](std::size_t k, Executor&) {
                                        if (k != 0) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
                 std::runtime_error);
    std::vector<std::atomic<int>> visits(3 * 12);
    pool.run_partitioned(3, 2, [&](std::size_t k, Executor& inner) {
      auto inner_task = [&](std::size_t j) {
        visits[k * 12 + j].fetch_add(1);
      };
      inner.run(12, inner_task);
    });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "round " << round << " item " << i;
    }
  }
}

TEST(ChunkRangeTest, PartitionsExactlyAndMatchesParallelFor) {
  // chunk_range is the one definition of the equal partition; chunks must
  // tile [0, count) exactly for awkward counts.
  for (const std::size_t count : {1u, 7u, 96u, 103u}) {
    for (const std::size_t chunks : {1u, 2u, 5u, 7u}) {
      if (chunks > count) continue;
      std::size_t expected_begin = 0;
      for (std::size_t k = 0; k < chunks; ++k) {
        const sops::support::ChunkRange range =
            sops::support::chunk_range(k, count, chunks);
        EXPECT_EQ(range.begin, expected_begin)
            << "count " << count << " chunks " << chunks << " k " << k;
        EXPECT_GE(range.end, range.begin);
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, count);
    }
  }
}

TEST(TaskPoolTest, LendClampsToTheWorkerRange) {
  TaskPool pool(3);  // workers 0, 1
  EXPECT_EQ(pool.lend(0, 2).width(), 3u);
  EXPECT_EQ(pool.lend(1, 5).width(), 2u);   // clamped to worker 1 only
  EXPECT_EQ(pool.lend(7, 2).width(), 1u);   // out of range → caller-only
  EXPECT_EQ(pool.lend(0, 0).width(), 1u);   // explicit caller-only view
}

TEST(ExecutorOrInline, NullRunsInlineOnTheCaller) {
  Executor& inline_executor = sops::support::executor_or_inline(nullptr);
  EXPECT_EQ(inline_executor.width(), 1u);
  std::vector<std::size_t> order;
  std::thread::id runner;
  auto task = [&](std::size_t k) {
    order.push_back(k);
    runner = std::this_thread::get_id();
  };
  inline_executor.run(3, task);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(runner, std::this_thread::get_id());

  TaskPool pool(3);
  EXPECT_EQ(&sops::support::executor_or_inline(&pool.executor()),
            &pool.executor());
}

TEST(ParallelForExecutor, ExplicitPartitionCapsWorkersAtExecutorWidth) {
  // More shards than workers: all chunks processed, ≤ width runners.
  const std::size_t n = 96;
  std::vector<std::uint32_t> bounds;
  for (std::uint32_t b = 0; b <= n; b += 4) bounds.push_back(b);  // 24 chunks
  TaskPool pool(2);
  std::vector<std::atomic<int>> visits(n);
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  sops::support::parallel_for_shards(
      pool.executor(), std::span<const std::uint32_t>(bounds),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
        const std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
      });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_LE(ids.size(), 2u);
}

TEST(PoolSliceTest, DefaultSliceIsCallerOnlyAndInline) {
  sops::support::PoolSlice slice;
  EXPECT_EQ(slice.width(), 1u);
  EXPECT_EQ(slice.worker_count(), 0u);
  std::vector<std::size_t> order;
  std::thread::id runner;
  auto task = [&](std::size_t k) {
    order.push_back(k);
    runner = std::this_thread::get_id();
  };
  slice.executor().run(4, task);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(runner, std::this_thread::get_id());
}

TEST(PoolSliceTest, SliceOfClampsAndSliceAllCoversThePool) {
  TaskPool pool(5);  // workers 0..3
  EXPECT_EQ(sops::support::slice_all(pool).width(), 5u);
  EXPECT_EQ(sops::support::slice_of(pool, 1, 2).width(), 3u);
  EXPECT_EQ(sops::support::slice_of(pool, 3, 9).width(), 2u);  // clamped
  EXPECT_EQ(sops::support::slice_of(pool, 9, 2).width(), 1u);  // out of range
}

TEST(PoolSliceTest, LendIsSliceRelativeAndCannotEscapeTheSlice) {
  // A job must not be able to reach a sibling's workers by arithmetic slip:
  // lend() indexes relative to the slice and clamps to its extent.
  TaskPool pool(7);  // workers 0..5
  const sops::support::PoolSlice slice = sops::support::slice_of(pool, 2, 3);
  EXPECT_EQ(slice.first_worker(), 2u);
  EXPECT_EQ(slice.width(), 4u);
  EXPECT_EQ(slice.lend(0, 3).width(), 4u);
  EXPECT_EQ(slice.lend(1, 99).width(), 3u);  // clamped to workers 3..4
  EXPECT_EQ(slice.lend(5, 1).width(), 1u);   // past the slice → caller-only
}

TEST(PoolSliceTest, DisjointSlicesDispatchConcurrentlyFromTwoDrivers) {
  // The machine-wide sharing pattern: two driver threads, each owning a
  // disjoint slice of one pool, dispatch simultaneously. Both must make
  // progress without borrowing the other's workers — the pool serves the
  // two fan-outs as independently as two pools would.
  TaskPool pool(5);  // workers 0..3: slice A = [0,2), slice B = [2,4)
  const sops::support::PoolSlice slice_a = sops::support::slice_of(pool, 0, 2);
  const sops::support::PoolSlice slice_b = sops::support::slice_of(pool, 2, 2);
  constexpr std::size_t kItems = 64;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> visits_a(kItems);
  std::vector<std::atomic<int>> visits_b(kItems);
  auto drive = [&](const sops::support::PoolSlice& slice,
                   std::vector<std::atomic<int>>& visits) {
    auto task = [&](std::size_t k) { visits[k].fetch_add(1); };
    for (int round = 0; round < kRounds; ++round) {
      PoolExecutor executor = slice.executor();
      executor.run(kItems, task);
    }
  };
  std::thread driver_b([&] { drive(slice_b, visits_b); });
  drive(slice_a, visits_a);
  driver_b.join();
  for (std::size_t k = 0; k < kItems; ++k) {
    EXPECT_EQ(visits_a[k].load(), kRounds) << k;
    EXPECT_EQ(visits_b[k].load(), kRounds) << k;
  }
}

TEST(PoolSliceTest, RunPartitionedStaysInsideTheSlice) {
  // outer × inner on a slice: 2 outer chunks × inner width 2 needs a slice
  // of width 4. Run it on a slice carved out of a wider pool, concurrently
  // with a sibling doing the same on the remaining workers.
  TaskPool pool(9);  // workers 0..7: two width-4 slices
  const sops::support::PoolSlice slice_a = sops::support::slice_of(pool, 0, 4);
  const sops::support::PoolSlice slice_b = sops::support::slice_of(pool, 4, 4);
  auto drive = [](const sops::support::PoolSlice& slice,
                  std::vector<std::atomic<int>>& visits) {
    slice.run_partitioned(2, 2, [&](std::size_t k, Executor& inner) {
      EXPECT_EQ(inner.width(), 2u);
      auto inner_task = [&](std::size_t j) { visits[k * 16 + j].fetch_add(1); };
      for (int repeat = 0; repeat < 25; ++repeat) inner.run(16, inner_task);
    });
  };
  std::vector<std::atomic<int>> visits_a(32);
  std::vector<std::atomic<int>> visits_b(32);
  std::thread driver_b([&] { drive(slice_b, visits_b); });
  drive(slice_a, visits_a);
  driver_b.join();
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(visits_a[i].load(), 25) << i;
    EXPECT_EQ(visits_b[i].load(), 25) << i;
  }
}

TEST(CancelTokenTest, CheckThrowsOnceRequestedAndToleratesNull) {
  sops::support::CancelToken token;
  EXPECT_FALSE(token.requested());
  sops::support::CancelToken::check(nullptr, "never");  // null = not wired
  sops::support::CancelToken::check(&token, "not yet");
  token.request();
  token.request();  // idempotent
  EXPECT_TRUE(token.requested());
  EXPECT_THROW(sops::support::CancelToken::check(&token, "stop"),
               sops::CancelledError);
  // CancelledError must remain catchable as the generic error type, so
  // existing cleanup handlers see it.
  EXPECT_THROW(sops::support::CancelToken::check(&token, "stop"), sops::Error);
}

TEST(CancelTokenTest, ChildReportsParentRaise) {
  // The job layer's shape: one root (shutdown) token, one child per job.
  sops::support::CancelToken root;
  sops::support::CancelToken job_a(&root);
  sops::support::CancelToken job_b(&root);
  job_a.request();  // cancel one job
  EXPECT_TRUE(job_a.requested());
  EXPECT_FALSE(job_b.requested());
  EXPECT_FALSE(root.requested());
  root.request();  // shutdown cancels everything
  EXPECT_TRUE(job_b.requested());
}

TEST(CancelTokenTest, RequestFromAnotherThreadIsSeenByPollers) {
  sops::support::CancelToken token;
  std::atomic<bool> poller_started{false};
  std::atomic<int> polls{0};
  std::thread poller([&] {
    poller_started.store(true);
    while (!token.requested()) {
      polls.fetch_add(1);
      std::this_thread::yield();
    }
  });
  while (!poller_started.load()) std::this_thread::yield();
  token.request();
  poller.join();  // terminates only if the raise became visible
  EXPECT_TRUE(token.requested());
}

}  // namespace
