#pragma once

// The library's one threading runtime: a fixed set of plain std::thread
// workers draining a FIFO of submitted tasks, plus the fork-join teams
// every intra-multiply loop runs on.
//
// Tasks: submit() queues a callable returning Status or void and returns
// a TaskFuture, which resolves with the body's Status (Status{} for void
// bodies, an error for bodies that threw).  There are no dependencies,
// priorities or callbacks: a caller that needs an order waits on a
// future or runs the steps inside one task; the Engine's asynchronous
// requests and its cross-shape batches are one task each.
//
// Lifecycle: wait_all() blocks until every submitted task has finished.
// The destructor wait_all()s then joins, so destroying a pool with tasks
// in flight is safe and drains them.
//
// Fork-join (the paper's "simple but efficient data parallelism", §5.1):
// parallel_region() runs a body on the calling thread as participant 0 of
// a team whose helpers are tasks of the same pool, queued ahead of every
// waiting task; ParallelTeam::for_each() shares one loop among the team,
// and its return is the barrier before the next.  The caller never waits
// for a helper to *start*, only for claimed chunks to *finish*, so a
// region opened on a worker of a saturated pool (a nested region, or a
// multiply inside a user's task) runs serially instead of deadlocking; a
// helper that starts after the region closed touches only the team's
// reference-counted state.

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

// The result handle of a submitted task: resolves exactly once, with the
// Status the task body returned (Status{} for void bodies, the error for
// bodies that threw).  Copyable; all copies share one state.  A
// default-constructed future is invalid.
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
  // the region's cap, so it can index per-participant workspace.  If fn
  // throws, chunks not yet started are skipped and the first exception is
  // rethrown here, on the caller, after the barrier.
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

  // Submits a callable returning Status or void; it runs, in submission
  // order, as soon as a worker is free.
  template <typename F>
  TaskFuture submit(F&& fn) {
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      return submit_impl([f = std::forward<F>(fn)]() mutable {
        f();
        return Status{};
      });
    } else {
      return submit_impl(std::forward<F>(fn));
    }
  }

  // Blocks until no task is queued or running (a task that submits more
  // work extends the wait — the drain covers the new tasks).
  void wait_all();

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
  struct Impl;

  TaskFuture submit_impl(std::function<Status()> fn);
  std::shared_ptr<ParallelTeam::State> fork_team(int cap,
                                                 std::int64_t max_chunks);
  static void join_team(const std::shared_ptr<ParallelTeam::State>& st);
  void worker_loop(int index);

  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> threads_;
};

}  // namespace fmm
