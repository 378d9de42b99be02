// TaskPool — the runtime under Engine::submit.  Covers execution and
// future resolution, destruction with tasks in flight, concurrent
// submission from many host threads, and the fork-join primitive every
// intra-multiply loop runs on (the TSan CI leg runs every TaskPool*
// suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/task_pool.h"

namespace fmm {
namespace {

// ---------------------------------------------------------------------------
// Basics: execution, futures, status propagation.
// ---------------------------------------------------------------------------

TEST(TaskPoolBasic, RunsTaskAndResolvesFuture) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskFuture f = pool.submit([&] { ran.fetch_add(1); });
  ASSERT_TRUE(f.valid());
  EXPECT_TRUE(f.status().ok());  // status() waits
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(f.done());
}

TEST(TaskPoolBasic, StatusReturningBodyPropagates) {
  TaskPool pool(1);
  TaskFuture ok = pool.submit([] { return Status{}; });
  TaskFuture bad = pool.submit(
      [] { return Status::error(StatusCode::kInvalidShape, "boom"); });
  EXPECT_TRUE(ok.status().ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidShape);
}

TEST(TaskPoolBasic, ThrowingBodyBecomesErrorStatus) {
  TaskPool pool(1);
  TaskFuture f =
      pool.submit([]() -> Status { throw std::runtime_error("kaput"); });
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(f.status().to_string().find("kaput"), std::string::npos);
}

TEST(TaskPoolBasic, ReadyFutureIsImmediatelyDone) {
  TaskFuture f = TaskFuture::ready(Status{});
  EXPECT_TRUE(f.valid());
  EXPECT_TRUE(f.done());
  EXPECT_TRUE(f.status().ok());
  TaskFuture invalid;
  EXPECT_FALSE(invalid.valid());
}

TEST(TaskPoolBasic, WaitAllDrainsEverything) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  // Work a running task submits extends the drain too.
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      for (int j = 0; j < 8; ++j) pool.submit([&] { ran.fetch_add(1); });
    });
  }
  pool.wait_all();
  EXPECT_EQ(ran.load(), 128);
  pool.wait_all();  // idempotent on an empty pool
}

TEST(TaskPoolBasic, WorkerIndexIsStableAndInRange) {
  TaskPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  EXPECT_FALSE(TaskPool::on_worker_thread());
  EXPECT_EQ(TaskPool::current_worker_index(), -1);
  std::mutex mu;
  std::vector<int> seen;
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] {
      EXPECT_TRUE(TaskPool::on_worker_thread());
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(TaskPool::current_worker_index());
    });
  }
  pool.wait_all();
  for (int idx : seen) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 3);
  }
}

// ---------------------------------------------------------------------------
// Destruction.
// ---------------------------------------------------------------------------

TEST(TaskPoolLifecycle, DestructionDrainsInFlightTasks) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      });
    }
    // No wait_all: the destructor must drain, not drop.
  }
  EXPECT_EQ(ran.load(), 32);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan food).
// ---------------------------------------------------------------------------

TEST(TaskPoolConcurrency, ManySubmittersSharedPool) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kThreads = 8, kPerThread = 200;
  std::vector<std::thread> hosts;
  for (int t = 0; t < kThreads; ++t) {
    hosts.emplace_back([&] {
      std::vector<TaskFuture> fs;
      for (int i = 0; i < kPerThread; ++i) {
        fs.push_back(pool.submit([&] { ran.fetch_add(1); }));
      }
      for (auto& f : fs) EXPECT_TRUE(f.status().ok());
    });
  }
  for (auto& h : hosts) h.join();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Fork-join: parallel_region / ParallelTeam::for_each.
// ---------------------------------------------------------------------------

TEST(TaskPoolForkJoin, EveryIndexRunsExactlyOnce) {
  TaskPool pool(4);
  constexpr std::int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_region(4, kN, [&](ParallelTeam& team) {
    for (const std::int64_t grain : {1, 3, 64, 5000}) {
      team.for_each(kN, grain, [&](std::int64_t i, int) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      // The loop's return is its barrier: every index is already counted.
      for (auto& h : hits) ASSERT_EQ(h.exchange(0), 1) << "grain " << grain;
    }
  });
}

TEST(TaskPoolForkJoin, ConcurrentParticipantIdsAreDistinctAndBelowCap) {
  TaskPool pool(4);
  constexpr int kCap = 3;
  std::array<std::atomic<int>, kCap> active{};
  pool.parallel_for(kCap, 400, 1, [&](std::int64_t, int tid) {
    ASSERT_TRUE(tid >= 0 && tid < kCap) << tid;
    std::atomic<int>& mine = active[static_cast<std::size_t>(tid)];
    EXPECT_EQ(mine.fetch_add(1), 0) << "two participants share id " << tid;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    mine.fetch_sub(1);
  });
}

// Waits until `count` reaches `n`, having added this thread.
void rendezvous(std::atomic<int>& count, int n) {
  count.fetch_add(1);
  while (count.load() < n) std::this_thread::yield();
}

TEST(TaskPoolForkJoin, NestedRegionsOnASaturatedPoolRunSerially) {
  // Every worker of a 2-worker pool opens a region while the other is busy
  // too, so no helper can start: each caller runs its loops alone —
  // finishing, not deadlocking — on the pool it runs on.
  TaskPool pool(2);
  std::atomic<int> arrived{0}, finished{0}, helper_chunks{0};
  std::atomic<long> sum{0};
  for (int w = 0; w < 2; ++w) {
    pool.submit([&] {
      EXPECT_EQ(&TaskPool::current(), &pool);
      rendezvous(arrived, 2);
      TaskPool::current().parallel_region(2, 64, [&](ParallelTeam& team) {
        for (int loop = 0; loop < 3; ++loop) {
          team.for_each(64, 1, [&](std::int64_t i, int tid) {
            if (tid != 0) helper_chunks.fetch_add(1);
            sum.fetch_add(i);
          });
        }
      });
      // Busy until both regions closed: a worker freed early would serve
      // the other region's helper.
      rendezvous(finished, 2);
    });
  }
  pool.wait_all();  // includes the late helpers, which find closed teams
  EXPECT_EQ(helper_chunks.load(), 0);
  EXPECT_EQ(sum.load(), 2L * 3 * (63 * 64 / 2));
}

TEST(TaskPoolForkJoin, HelpersRunBeforeQueuedTasks) {
  // Both workers are held while three plain tasks queue; a region opened
  // then must get its helper from the first worker freed, ahead of the
  // queue (its caller is already running and waits on it).
  TaskPool pool(2);
  std::atomic<int> blocked{0};
  std::atomic<bool> free_one{false}, free_other{false};
  pool.submit([&] {
    blocked.fetch_add(1);
    while (!free_one.load()) std::this_thread::yield();
  });
  pool.submit([&] {
    blocked.fetch_add(1);
    while (!free_other.load()) std::this_thread::yield();
  });
  while (blocked.load() < 2) std::this_thread::yield();

  std::mutex mu;
  std::vector<char> order;
  auto log = [&](char what) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(what);
  };
  for (int i = 0; i < 3; ++i) pool.submit([&] { log('q'); });
  std::atomic<bool> helped{false};
  pool.parallel_for(2, 2, 1, [&](std::int64_t, int tid) {
    if (tid == 0) {
      free_one.store(true);
      while (!helped.load()) std::this_thread::yield();
    } else {
      log('h');
      helped.store(true);
    }
  });
  free_other.store(true);
  pool.wait_all();
  EXPECT_EQ(order, (std::vector<char>{'h', 'q', 'q', 'q'}));
}

TEST(TaskPoolForkJoin, ExceptionRethrownOnCallerAfterTheBarrier) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(4, 64, 1,
                                 [&](std::int64_t i, int) {
                                   ran.fetch_add(1);
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // Chunks claimed after the failure are skipped, never half-run.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
  // The pool and a fresh region are still usable.
  std::atomic<int> after{0};
  pool.parallel_for(4, 64, 1, [&](std::int64_t, int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(TaskPoolForkJoin, LateHelperDoesNotTouchTheJoinedCallersState) {
  // This region's helper is queued behind two blocked workers, so it starts
  // after the region returned and its frame is gone.  Touching the
  // caller's loop then would be a use-after-scope (the ASan leg's catch).
  TaskPool pool(2);
  std::atomic<int> blocked{0};
  for (int w = 0; w < 2; ++w) pool.submit([&] { rendezvous(blocked, 3); });
  while (blocked.load() < 2) std::this_thread::yield();
  {
    std::vector<int> local(100, 0);
    pool.parallel_for(2, 100, 1, [&](std::int64_t i, int tid) {
      EXPECT_EQ(tid, 0);
      local[static_cast<std::size_t>(i)] += 1;
    });
    EXPECT_EQ(std::count(local.begin(), local.end(), 1), 100);
  }
  rendezvous(blocked, 3);  // releases the workers
  pool.wait_all();
}

}  // namespace
}  // namespace fmm
