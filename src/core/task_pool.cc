#include "src/core/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/env.h"

namespace fmm {
namespace {

thread_local TaskPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

// A thread that blocks costs a futex wake, tens of microseconds, before it
// works again, so a thread out of work polls first, yielding its core
// between polls: a pool worker between tasks (bridging back-to-back
// requests), and longer a team member between two loops, whose wait is
// one loop's load imbalance.
constexpr std::uint64_t kIdleSpinNs = 100'000;
constexpr std::uint64_t kTeamSpinNs = 2'000'000;

// Polls `ready` for up to `budget_ns`; true if it turned true.
template <typename Ready>
bool spin_until(std::uint64_t budget_ns, Ready&& ready) {
  for (const std::uint64_t t0 = obs::now_ns(); !ready();) {
    if (obs::now_ns() - t0 > budget_ns) return false;
    std::this_thread::yield();
  }
  return true;
}

// Locks `lk`, polling try_lock first: the pool's critical sections are
// short, and a thread put to sleep on one wakes long after its release.
void lock_spinning(std::unique_lock<std::mutex>& lk) {
  for (int i = 0; i < 64 && !lk.try_lock(); ++i) std::this_thread::yield();
  if (!lk.owns_lock()) lk.lock();
}

}  // namespace

// ---------------------------------------------------------------------------
// Future state: one mutex/cv pair per task keeps resolution independent of
// the pool lock (a waiter never contends with the scheduler).
// ---------------------------------------------------------------------------

struct TaskFuture::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;

  void resolve(Status st) {
    {
      std::lock_guard<std::mutex> lk(mu);
      assert(!done && "task future resolved twice");
      status = std::move(st);
      done = true;
    }
    cv.notify_all();
  }
};

bool TaskFuture::done() const {
  assert(valid());
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->done;
}

void TaskFuture::wait() const {
  assert(valid());
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
}

const Status& TaskFuture::status() const {
  wait();
  return state_->status;
}

TaskFuture TaskFuture::ready(Status status) {
  TaskFuture f;
  f.state_ = std::make_shared<State>();
  f.state_->status = std::move(status);
  f.state_->done = true;
  return f;
}

// ---------------------------------------------------------------------------
// Pool internals.
// ---------------------------------------------------------------------------

struct TaskPool::Task {
  std::function<Status()> fn;
  std::shared_ptr<TaskFuture::State> state;  // null for fork-join helpers
  // When the task was queued (stamped only while tracing or metrics
  // capture is on).
  std::uint64_t enqueue_ns = 0;
};

struct TaskPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;  // workers: a queued task or stop
  std::condition_variable done_cv;  // wait_all
  bool stop = false;
  std::atomic<std::size_t> ready_size{0};  // ready.size(), polled unlocked
  // Workers neither running a task nor asleep.  Each takes the lock again
  // and pops a task if one is left, so a submit wakes a sleeper only when
  // the queued tasks outnumber them.
  std::atomic<int> awake{0};
  std::uint64_t outstanding = 0;  // submitted, not yet finished
  // FIFO; fork-join helpers enter at the front (a caller is already
  // running its region and waits on them, unlike any queued task).
  std::deque<Task> ready;

  // Observability instruments (set_metrics; read under mu when a task is
  // popped, so workers always see a consistent attachment).
  obs::MetricsRegistry* metrics = nullptr;
  obs::Histogram* queue_wait = nullptr;  // queued -> running (us)
  obs::Counter* tasks_run = nullptr;

  void push_locked(Task t, bool front) {
    if (obs::trace_enabled() ||
        (metrics != nullptr && metrics->enabled())) {
      t.enqueue_ns = obs::now_ns();
    }
    ++outstanding;
    if (front) {
      ready.push_front(std::move(t));
    } else {
      ready.push_back(std::move(t));
    }
    ready_size.store(ready.size(), std::memory_order_relaxed);
  }

  Task pop_locked() {
    Task t = std::move(ready.front());
    ready.pop_front();
    ready_size.store(ready.size(), std::memory_order_relaxed);
    return t;
  }
};

TaskPool::TaskPool(int workers) : impl_(std::make_unique<Impl>()) {
  int n = workers > 0 ? workers
                      : static_cast<int>(std::thread::hardware_concurrency());
  n = std::max(n, 1);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  wait_all();
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool TaskPool::on_worker_thread() { return tls_pool != nullptr; }

int TaskPool::resolve_workers(int requested) {
  if (requested > 0) return requested;
  const long env = parse_env_long("FMM_WORKERS", 1, 4096).value_or(0);
  if (env > 0) return static_cast<int>(env);
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

TaskPool& TaskPool::current() {
  if (tls_pool != nullptr) return *tls_pool;
  // Never destroyed, like default_engine(): a region may still be running
  // on a host thread at static teardown.
  static TaskPool* pool = new TaskPool(resolve_workers(0));
  return *pool;
}

int TaskPool::current_worker_index() { return tls_worker_index; }

void TaskPool::set_metrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->metrics = registry;
  impl_->queue_wait =
      registry != nullptr ? &registry->histogram("pool.queue_wait", "us")
                          : nullptr;
  impl_->tasks_run =
      registry != nullptr ? &registry->counter("pool.tasks") : nullptr;
}

TaskFuture TaskPool::submit_impl(std::function<Status()> fn) {
  Task task;
  task.fn = std::move(fn);
  task.state = std::make_shared<TaskFuture::State>();
  TaskFuture future;
  future.state_ = task.state;
  bool wake = false;
  {
    std::unique_lock<std::mutex> lk(impl_->mu, std::defer_lock);
    lock_spinning(lk);
    impl_->push_locked(std::move(task), /*front=*/false);
    wake = impl_->ready.size() > static_cast<std::size_t>(impl_->awake);
  }
  if (wake) impl_->work_cv.notify_one();
  return future;
}

void TaskPool::worker_loop(int index) {
  tls_pool = this;
  tls_worker_index = index;
  if (obs::trace_enabled()) {
    char nm[32];
    std::snprintf(nm, sizeof(nm), "worker %d", index);
    obs::trace_thread_name(nm);
  }
  ++impl_->awake;
  std::unique_lock<std::mutex> lk(impl_->mu);
  for (;;) {
    // An idle gap is a span too: it is the signal "no work reached this
    // worker", which a run-spans-only trace cannot show.
    std::uint64_t idle_start = 0;
    auto runnable = [&] { return impl_->stop || !impl_->ready.empty(); };
    if (!runnable()) {
      if (obs::trace_enabled()) idle_start = obs::now_ns();
      lk.unlock();
      spin_until(kIdleSpinNs, [&] {
        return impl_->ready_size.load(std::memory_order_relaxed) != 0;
      });
      lock_spinning(lk);
    }
    if (!runnable()) {
      --impl_->awake;
      impl_->work_cv.wait(lk, runnable);
      ++impl_->awake;
    }
    if (idle_start != 0 && obs::trace_enabled()) {
      obs::trace_complete("worker.idle", "pool", idle_start, obs::now_ns(),
                          "", index);
    }
    if (impl_->ready.empty()) {
      if (impl_->stop) return;
      continue;
    }
    Task task = impl_->pop_locked();
    --impl_->awake;
    // Instrument attachment is read under the lock: a consistent snapshot
    // even if set_metrics races a draining pool.
    obs::Histogram* qw =
        (impl_->metrics != nullptr && impl_->metrics->enabled())
            ? impl_->queue_wait
            : nullptr;
    obs::Counter* tr = impl_->tasks_run;
    lk.unlock();

    const bool tracing = obs::trace_enabled();
    std::uint64_t run_start = 0;
    if (task.enqueue_ns != 0 && (tracing || qw != nullptr)) {
      run_start = obs::now_ns();
      if (qw != nullptr) {
        qw->record(static_cast<double>(run_start - task.enqueue_ns) * 1e-3);
      }
      if (tracing) {
        obs::trace_complete("task.wait", "pool", task.enqueue_ns, run_start,
                            "", index);
      }
    }
    if (tracing && run_start == 0) run_start = obs::now_ns();

    Status status;
    try {
      status = task.fn();
    } catch (const std::exception& e) {
      status = Status::error(StatusCode::kInvalidArgument,
                             std::string("task body threw: ") + e.what());
    } catch (...) {
      status = Status::error(StatusCode::kInvalidArgument,
                             "task body threw a non-std exception");
    }
    ++impl_->awake;
    task.fn = nullptr;  // release captures before the future resolves
    if (tr != nullptr) tr->add();
    if (tracing && run_start != 0 && obs::trace_enabled()) {
      obs::trace_complete("task.run", "pool", run_start, obs::now_ns(), "",
                          index);
    }
    if (task.state != nullptr) task.state->resolve(std::move(status));

    lock_spinning(lk);
    if (--impl_->outstanding == 0) impl_->done_cv.notify_all();
  }
}

void TaskPool::wait_all() {
  // A worker draining its own pool inside a task would deadlock (it can
  // never finish the task it is running); the engine never does this, and
  // the assert catches anyone who tries.
  assert(tls_pool != this && "wait_all() from a task of the same pool");
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->done_cv.wait(lk, [&] { return impl_->outstanding == 0; });
}

// ---------------------------------------------------------------------------
// Fork-join teams.  The caller publishes one loop at a time as a Job;
// participants claim chunks with a fetch_add on its counter.  A claimed
// chunk keeps the caller waiting, so its loop body (on the caller's stack)
// is alive; a helper holding a finished Job claims nothing.
// ---------------------------------------------------------------------------

struct ParallelTeam::State {
  struct Job {
    Loop loop;
    std::int64_t n, grain, chunks;
    std::atomic<std::int64_t> next{0}, done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error = nullptr;  // the first thrown (guarded by mu)
  };

  std::atomic<int> next_tid{1};  // helpers' ids follow the caller's 0
  std::atomic<std::uint64_t> jobs{0};  // loops published so far
  std::atomic<bool> closed{false};
  std::mutex mu;
  std::shared_ptr<Job> job;  // the current loop (guarded by mu)
  std::condition_variable work_cv;  // helpers: a new loop, or closed
  std::condition_variable done_cv;  // caller: the loop finished

  void drain(Job& j, int tid) {
    for (std::int64_t q; (q = j.next.fetch_add(1)) < j.chunks;) {
      if (!j.failed.load(std::memory_order_relaxed)) {
        try {
          j.loop.run(j.loop.fn, q * j.grain, std::min((q + 1) * j.grain, j.n),
                     tid);
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (j.error == nullptr) j.error = std::current_exception();
          j.failed.store(true, std::memory_order_relaxed);
        }
      }
      if (j.done.fetch_add(1) + 1 == j.chunks) {
        // Under the lock the caller re-checks `done` under: no lost wake-up.
        std::lock_guard<std::mutex> lk(mu);
        done_cv.notify_all();
      }
    }
  }

  // A helper's life: take an id, then serve loops until the team closes.
  void help() {
    const int tid = next_tid.fetch_add(1);
    for (std::uint64_t seen = 0;;) {
      auto fresh = [&] { return closed.load() || jobs.load() != seen; };
      const bool hot = spin_until(kTeamSpinNs, fresh);
      std::unique_lock<std::mutex> lk(mu, std::defer_lock);
      lock_spinning(lk);
      if (!hot) work_cv.wait(lk, fresh);
      if (closed.load()) return;
      seen = jobs.load();
      const std::shared_ptr<Job> j = job;
      lk.unlock();
      drain(*j, tid);
    }
  }
};

void ParallelTeam::run_loop(const Loop& l, std::int64_t n, std::int64_t grain) {
  if (n <= 0) return;
  State& st = *state_;
  grain = std::max<std::int64_t>(grain, 1);
  const std::shared_ptr<State::Job> j(
      new State::Job{l, n, grain, (n + grain - 1) / grain});
  {
    std::lock_guard<std::mutex> lk(st.mu);
    st.job = j;
    st.jobs.fetch_add(1);
    st.work_cv.notify_all();
  }
  st.drain(*j, 0);
  // The barrier: the caller drained what helpers did not claim.
  auto finished = [&] { return j->done.load() == j->chunks; };
  if (!spin_until(kTeamSpinNs, finished)) {
    std::unique_lock<std::mutex> lk(st.mu);
    st.done_cv.wait(lk, finished);
  }
  if (j->error != nullptr) std::rethrow_exception(j->error);
}

std::shared_ptr<ParallelTeam::State> TaskPool::fork_team(
    int cap, std::int64_t max_chunks) {
  const int want = static_cast<int>(std::min<std::int64_t>(
      {cap > 0 ? cap : workers(), workers(), max_chunks}));
  if (want <= 1) return nullptr;
  auto st = std::make_shared<ParallelTeam::State>();
  // Helpers jump the queue, all under one lock so the caller does not
  // contend with the workers picking them up.
  std::unique_lock<std::mutex> lk(impl_->mu, std::defer_lock);
  lock_spinning(lk);
  for (int h = 1; h < want; ++h) {
    Task task;
    task.fn = [st] { return st->help(), Status{}; };
    impl_->push_locked(std::move(task), /*front=*/true);
  }
  const int wake = static_cast<int>(impl_->ready.size()) - impl_->awake;
  lk.unlock();
  for (int i = 0; i < std::min(wake, want - 1); ++i) {
    impl_->work_cv.notify_one();
  }
  return st;
}

void TaskPool::join_team(const std::shared_ptr<ParallelTeam::State>& st) {
  if (st == nullptr) return;
  std::lock_guard<std::mutex> lk(st->mu);
  st->closed.store(true);
  st->work_cv.notify_all();
}

}  // namespace fmm
