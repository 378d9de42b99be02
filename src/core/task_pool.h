#pragma once

// A small dependency-driven task runtime — the execution substrate for
// asynchronous serving (engine.h) and dataflow examples.
//
// The scheme is StarPU's (the system Benson & Ballard built their parallel
// FMM framework on, and the paper's §6 names as the task-parallel
// comparison): a *task* is a callable plus scheduling metadata — an
// optional identity **tag**, a list of tags it **depends** on, a
// **priority**, and an optional completion **callback**.  Tasks whose
// dependencies are met sit in a priority FIFO (higher priority first,
// submission order breaking ties); a fixed set of plain std::thread
// workers drains it.  When a task finishes, its TaskFuture resolves first,
// then its tag is marked complete and successor tasks whose last
// dependency that was are released (a dependent task always observes its
// dependency's future done), and finally its callback runs on the worker
// (callbacks may submit follow-up tasks: that is how a dataflow pipeline
// advances).
//
// Dependency rules:
//   * A dependency on a tag that already completed is satisfied
//     immediately; on a tag not yet seen, the task waits until some task
//     carrying that tag completes (so submission order is free).
//   * Tags are never reused within a pool's lifetime; completing twice is
//     an error (asserted in debug builds).
//   * A completed tag stays complete forever (state is O(distinct tags)).
//
// Lifecycle: wait_all() blocks until every submitted task (including ones
// submitted by callbacks while draining) has finished.  cancel_pending()
// resolves every not-yet-started task's future with StatusCode::kCancelled
// (callbacks of cancelled tasks do NOT run, and their tags do NOT
// complete — cancellation abandons the rest of the graph); tasks already
// executing run to completion.  The destructor wait_all()s then joins —
// destroying a pool with tasks in flight is safe and drains them.
//
// Fork-join, the library's only intra-multiply parallelism (the BLIS loops
// around the micro-kernel, paper §5.1): parallel_region() runs a body on
// the calling thread as participant 0 of a team whose helpers are tasks of
// the same pool; ParallelTeam::for_each() shares one loop among the team.
// The caller never waits for a helper to *start*, only for claimed chunks
// to *finish*, so a region opened on a worker of a saturated pool runs
// serially instead of deadlocking; a helper that starts after the region
// closed touches only the team's reference-counted state.

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace fmm {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// Task identity for dependency tracking.  Any value except kNoTag is
// usable; fresh_tag() hands out values from a reserved high range so
// caller-chosen small tags never collide with generated ones.
using TaskTag = std::uint64_t;
inline constexpr TaskTag kNoTag = ~static_cast<TaskTag>(0);

struct TaskOptions {
  TaskTag tag = kNoTag;           // identity (kNoTag: anonymous task)
  std::vector<TaskTag> deps;      // tags that must complete first
  int priority = 0;               // higher runs earlier; FIFO within equal
  std::function<void(const Status&)> on_complete;  // runs on the worker
};

// The result handle of a submitted task: resolves exactly once, with the
// Status the task body returned (Status{} for void bodies, the error for
// bodies that threw, kCancelled for cancelled tasks).  Copyable; all
// copies share one state.  A default-constructed future is invalid.
class TaskFuture {
 public:
  TaskFuture() = default;

  bool valid() const { return state_ != nullptr; }
  // True once the task finished (non-blocking poll).
  bool done() const;
  // Blocks until the task finishes.
  void wait() const;
  // wait(), then the task's Status.
  const Status& status() const;

  // An already-resolved future (validation errors on the submit path).
  static TaskFuture ready(Status status);

 private:
  friend class TaskPool;
  struct State;
  std::shared_ptr<State> state_;
};

// A fork-join team (see above).  Only the region's caller calls for_each.
class ParallelTeam {
 public:
  // Runs fn(i, tid) for every i in [0, n), in chunks of `grain` indices
  // that the participants claim dynamically, and returns once every chunk
  // has finished: that completion count is the barrier between two loops.
  // `tid` is distinct among concurrently running participants and below
  // the region's cap, so it can index per-participant workspace.  fn must
  // not throw.
  template <typename F>
  void for_each(std::int64_t n, std::int64_t grain, F&& fn) {
    if (state_ == nullptr) {
      for (std::int64_t i = 0; i < n; ++i) fn(i, 0);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    const Loop loop{const_cast<void*>(static_cast<const void*>(&fn)),
                    [](void* f, std::int64_t i, std::int64_t end, int tid) {
                      for (; i < end; ++i) (*static_cast<Fn*>(f))(i, tid);
                    }};
    run_loop(loop, n, grain);
  }

 private:
  friend class TaskPool;
  using Run = void (*)(void*, std::int64_t, std::int64_t, int);
  struct Loop { void* fn; Run run; };
  struct State;
  void run_loop(const Loop& loop, std::int64_t n, std::int64_t grain);

  std::shared_ptr<State> state_;  // null: a serial team
};

class TaskPool {
 public:
  // `workers` threads; 0 = hardware concurrency (at least 1).
  explicit TaskPool(int workers = 0);
  // Drains every submitted task, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Submits a callable returning Status or void.  Runs as soon as a worker
  // is free and every dependency in opts.deps has completed.
  template <typename F>
  TaskFuture submit(F&& fn, TaskOptions opts = TaskOptions{}) {
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      return submit_impl(
          [f = std::forward<F>(fn)]() mutable {
            f();
            return Status{};
          },
          std::move(opts));
    } else {
      return submit_impl(std::forward<F>(fn), std::move(opts));
    }
  }

  // Blocks until no task is queued, blocked, or running (a callback that
  // submits more work extends the wait — the drain covers the new tasks).
  void wait_all();
  // Blocks until a task carrying `tag` has completed.
  void wait(TaskTag tag);

  // Resolves every not-yet-started task with kCancelled; running tasks
  // finish normally.  See the lifecycle notes above.
  void cancel_pending();

  // A tag guaranteed distinct from every caller-chosen and every other
  // generated tag (values descend from just below kNoTag).
  TaskTag fresh_tag();

  // Attaches a metrics registry (src/obs/metrics.h): the pool then records
  // a per-task queue-wait histogram ("pool.queue_wait", ready -> running)
  // and a tasks-run counter ("pool.tasks").  Call before the pool is
  // shared — the engine wires this up before publishing its pool; not
  // synchronized against concurrently running tasks.  nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

  int workers() const { return static_cast<int>(threads_.size()); }

  // Opens a fork-join region: body(team) runs on the calling thread, with
  // up to min(cap, workers(), max_chunks) participants including the
  // caller (cap <= 0 means workers()).  Helpers are forked once, up front,
  // and leave when the body returns.
  template <typename Body>
  void parallel_region(int cap, std::int64_t max_chunks, Body&& body) {
    ParallelTeam team;
    team.state_ = fork_team(cap, max_chunks);
    struct Join {
      ParallelTeam& t;
      ~Join() { join_team(t.state_); }
    } join{team};
    body(team);
  }

  template <typename F>  // a region with one loop
  void parallel_for(int cap, std::int64_t n, std::int64_t grain, F&& fn) {
    const std::int64_t g = grain > 0 ? grain : 1;
    parallel_region(cap, (n + g - 1) / g, [&](ParallelTeam& team) {
      team.for_each(n, g, fn);
    });
  }

  // The pool a region opened on this thread uses: the calling worker's own
  // pool, else the process-default pool, created on first use with
  // resolve_workers(0) workers and never destroyed.
  static TaskPool& current();
  // `requested` if positive, else FMM_WORKERS, else hardware concurrency.
  static int resolve_workers(int requested);

  // True when the calling thread is a worker of *any* TaskPool — the
  // engine uses this to execute nested synchronous multiplies inline
  // instead of submitting (a task blocking on another task's future could
  // deadlock a fully busy pool).
  static bool on_worker_thread();
  // This thread's worker index within its pool, or -1 off-pool.  Stable
  // for the thread's lifetime: usable as a per-worker workspace index.
  static int current_worker_index();

 private:
  struct Task;
  struct TagState;
  struct Impl;

  TaskFuture submit_impl(std::function<Status()> fn, TaskOptions opts);
  std::shared_ptr<ParallelTeam::State> fork_team(int cap,
                                                 std::int64_t max_chunks);
  static void join_team(const std::shared_ptr<ParallelTeam::State>& st);
  void worker_loop(int index);

  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> threads_;
};

}  // namespace fmm
