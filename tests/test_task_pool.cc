// TaskPool — the dependency-driven runtime under Engine::submit.  Covers
// execution and future resolution, tag dependencies in every submission
// order, the priority FIFO, completion callbacks (including callbacks
// that submit follow-up work), cancellation, destruction with tasks in
// flight, concurrent submission from many host threads, and the
// fork-join primitive the BLIS loops run on (the TSan CI leg runs every
// TaskPool* suite).

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
  pool.wait_all();
  EXPECT_EQ(ran.load(), 64);
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
// Tag dependencies.
// ---------------------------------------------------------------------------

TEST(TaskPoolDeps, DependentRunsAfterDependency) {
  TaskPool pool(4);
  std::atomic<int> stage{0};
  TaskOptions dep_opts;
  dep_opts.tag = 1;
  pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stage.store(1);
  }, dep_opts);
  TaskOptions opts;
  opts.deps = {1};
  TaskFuture f = pool.submit([&] {
    // The dependency fully finished before this task started.
    EXPECT_EQ(stage.load(), 1);
    stage.store(2);
  }, opts);
  EXPECT_TRUE(f.status().ok());
  EXPECT_EQ(stage.load(), 2);
}

TEST(TaskPoolDeps, DependencySubmittedLater) {
  TaskPool pool(2);
  std::atomic<int> stage{0};
  // The dependent arrives first, blocked on a tag nobody has carried yet.
  TaskOptions opts;
  opts.deps = {7};
  TaskFuture f = pool.submit([&] { stage.fetch_add(10); }, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(f.done());
  EXPECT_EQ(stage.load(), 0);
  TaskOptions dep_opts;
  dep_opts.tag = 7;
  pool.submit([&] { stage.fetch_add(1); }, dep_opts);
  EXPECT_TRUE(f.status().ok());
  EXPECT_EQ(stage.load(), 11);
}

TEST(TaskPoolDeps, CompletedTagSatisfiesImmediately) {
  TaskPool pool(2);
  TaskOptions dep_opts;
  dep_opts.tag = 3;
  pool.submit([] {}, dep_opts);
  pool.wait(3);  // tag complete before the dependent is even submitted
  TaskOptions opts;
  opts.deps = {3};
  TaskFuture f = pool.submit([] {}, opts);
  EXPECT_TRUE(f.status().ok());
}

TEST(TaskPoolDeps, FanInWaitsForEveryDependency) {
  TaskPool pool(4);
  constexpr int kDeps = 8;
  std::atomic<int> done{0};
  TaskOptions fin_opts;
  for (TaskTag t = 1; t <= kDeps; ++t) fin_opts.deps.push_back(t);
  TaskFuture fin = pool.submit([&] {
    EXPECT_EQ(done.load(), kDeps);  // all dependencies fully ran
  }, fin_opts);
  for (TaskTag t = 1; t <= kDeps; ++t) {
    TaskOptions o;
    o.tag = t;
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    }, o);
  }
  EXPECT_TRUE(fin.status().ok());
}

TEST(TaskPoolDeps, DependentObservesDependencyFutureResolved) {
  TaskPool pool(4);
  for (int round = 0; round < 50; ++round) {
    TaskOptions dep_opts;
    dep_opts.tag = pool.fresh_tag();
    TaskFuture dep_future = pool.submit([] {}, dep_opts);
    TaskOptions opts;
    opts.deps = {dep_opts.tag};
    TaskFuture f = pool.submit([dep_future] {
      // The runtime resolves a task's future before releasing its
      // successors; a dependent must never observe it pending.
      EXPECT_TRUE(dep_future.done());
      EXPECT_TRUE(dep_future.status().ok());
    }, opts);
    EXPECT_TRUE(f.status().ok());
  }
}

TEST(TaskPoolDeps, ChainRunsInOrder) {
  TaskPool pool(4);
  constexpr int kLen = 32;
  std::vector<int> order;
  std::mutex mu;
  TaskTag prev = kNoTag;
  for (int i = 0; i < kLen; ++i) {
    TaskOptions o;
    o.tag = pool.fresh_tag();
    if (prev != kNoTag) o.deps = {prev};
    prev = o.tag;
    pool.submit([&, i] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
    }, o);
  }
  pool.wait(prev);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kLen));
  for (int i = 0; i < kLen; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TaskPoolDeps, FreshTagsAreDistinct) {
  TaskPool pool(1);
  TaskTag a = pool.fresh_tag(), b = pool.fresh_tag(), c = pool.fresh_tag();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, kNoTag);
}

// ---------------------------------------------------------------------------
// Priority FIFO.
// ---------------------------------------------------------------------------

TEST(TaskPoolPriority, HigherPriorityRunsFirstFifoWithin) {
  // One worker, held busy while the queue fills: the drain order then
  // exposes the scheduling policy exactly.
  TaskPool pool(1);
  std::atomic<bool> started{false}, release{false};
  pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();

  std::vector<int> order;
  std::mutex mu;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(id);
  };
  // Submission order: low(0), high(10), low(1), high(11), mid(20).
  TaskOptions lo, hi, mid;
  lo.priority = 0;
  hi.priority = 2;
  mid.priority = 1;
  pool.submit([&] { record(0); }, lo);
  pool.submit([&] { record(10); }, hi);
  pool.submit([&] { record(1); }, lo);
  pool.submit([&] { record(11); }, hi);
  pool.submit([&] { record(20); }, mid);
  release.store(true);
  pool.wait_all();
  // Priority descending, FIFO within a level.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 0, 1}));
}

// ---------------------------------------------------------------------------
// Callbacks.
// ---------------------------------------------------------------------------

TEST(TaskPoolCallback, RunsWithFinalStatus) {
  TaskPool pool(2);
  std::atomic<int> calls{0};
  Status seen;
  std::mutex mu;
  TaskOptions o;
  o.on_complete = [&](const Status& st) {
    std::lock_guard<std::mutex> lk(mu);
    seen = st;
    calls.fetch_add(1);
  };
  pool.submit([] { return Status::error(StatusCode::kInvalidStride, "x"); }, o);
  pool.wait_all();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen.code(), StatusCode::kInvalidStride);
}

TEST(TaskPoolCallback, CallbackMaySubmitFollowUpsAndWaitAllCoversThem) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskOptions o;
  o.on_complete = [&](const Status&) {
    for (int i = 0; i < 8; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
  };
  pool.submit([] {}, o);
  pool.wait_all();  // must cover the callback-submitted tasks
  EXPECT_EQ(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// Cancellation and destruction.
// ---------------------------------------------------------------------------

TEST(TaskPoolCancel, PendingTasksResolveCancelled) {
  TaskPool pool(1);
  std::atomic<bool> started{false}, release{false};
  std::atomic<int> ran{0};
  TaskFuture running = pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
    ran.fetch_add(1);
  });
  // Everything below must queue *behind* an already-running task.
  while (!started.load()) std::this_thread::yield();
  // Queued behind the running task and behind an unseen tag, respectively.
  TaskFuture queued = pool.submit([&] { ran.fetch_add(1); });
  TaskOptions o;
  o.deps = {pool.fresh_tag()};  // never completed
  o.on_complete = [&](const Status&) { ran.fetch_add(100); };
  TaskFuture blocked = pool.submit([&] { ran.fetch_add(1); }, o);

  pool.cancel_pending();
  release.store(true);
  EXPECT_TRUE(running.status().ok());  // in-flight tasks finish normally
  EXPECT_EQ(queued.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(blocked.status().code(), StatusCode::kCancelled);
  pool.wait_all();
  // Only the running task's body ran; cancelled callbacks did not.
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskPoolCancel, MultiDepTaskCancelsOnce) {
  TaskPool pool(2);
  TaskOptions o;
  o.deps = {pool.fresh_tag(), pool.fresh_tag(), pool.fresh_tag()};
  TaskFuture f = pool.submit([] {}, o);
  pool.cancel_pending();  // the task sits in three waiter lists
  EXPECT_EQ(f.status().code(), StatusCode::kCancelled);
  pool.wait_all();
}

TEST(TaskPoolCancel, PoolIsUsableAfterCancel) {
  TaskPool pool(2);
  TaskOptions o;
  o.deps = {pool.fresh_tag()};
  pool.submit([] {}, o);
  pool.cancel_pending();
  TaskFuture f = pool.submit([] { return Status{}; });
  EXPECT_TRUE(f.status().ok());
}

TEST(TaskPoolLifecycle, DestructionDrainsInFlightTasks) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(4);
    for (int i = 0; i < 32; ++i) {
      TaskOptions o;
      o.tag = pool.fresh_tag();
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      }, o);
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

TEST(TaskPoolConcurrency, ConcurrentChainsInterleave) {
  TaskPool pool(4);
  constexpr int kChains = 6, kLen = 40;
  std::vector<std::atomic<int>> progress(kChains);
  for (auto& p : progress) p.store(0);
  std::vector<std::thread> hosts;
  for (int c = 0; c < kChains; ++c) {
    hosts.emplace_back([&, c] {
      TaskTag prev = kNoTag;
      for (int i = 0; i < kLen; ++i) {
        TaskOptions o;
        o.tag = pool.fresh_tag();
        if (prev != kNoTag) o.deps = {prev};
        prev = o.tag;
        pool.submit([&, c, i] {
          // In-order execution within each chain.
          EXPECT_EQ(progress[static_cast<std::size_t>(c)].load(), i);
          progress[static_cast<std::size_t>(c)].store(i + 1);
        }, o);
      }
      pool.wait(prev);
    });
  }
  for (auto& h : hosts) h.join();
  for (auto& p : progress) EXPECT_EQ(p.load(), kLen);
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
