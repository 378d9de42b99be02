// Allocation failure inside a request.  This executable replaces the
// global operator new/delete with an armed countdown: armed at N, the N-th
// counted allocation after arming throws std::bad_alloc (once), and every
// other allocation goes to malloc.  The tests sweep N over every
// allocation a request makes and check that each request ends in a
// Status — OK with the right answer, or kResourceExhausted — never an
// exception out of multiply, and that no recursive buffer lease, executor
// slot or worker is stranded.
//
// The sanitizer runtimes own operator new themselves, so under ASan/TSan
// the replacement is compiled out and the tests skip.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "tests/test_support.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FMM_ALLOC_FAULT 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FMM_ALLOC_FAULT 0
#endif
#endif
#ifndef FMM_ALLOC_FAULT
#define FMM_ALLOC_FAULT 1
#endif

namespace {

// < 0: disarmed.
std::atomic<long> g_countdown{-1};
// Which threads count down: every thread, or pool workers only (so that a
// test's own submit to a pool of its making never fails).
std::atomic<bool> g_any_thread{false};

#if FMM_ALLOC_FAULT
bool fail_this_allocation() {
  if (g_countdown.load(std::memory_order_relaxed) < 0) return false;
  if (!g_any_thread.load() && !fmm::TaskPool::on_worker_thread()) {
    return false;
  }
  long v = g_countdown.load(std::memory_order_relaxed);
  while (v >= 0 && !g_countdown.compare_exchange_weak(v, v - 1)) {
  }
  return v == 0;
}
#endif

}  // namespace

#if FMM_ALLOC_FAULT
// Out of line, so that no caller sees malloc behind new and free behind
// delete (GCC would report those as a mismatched pair).
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (fail_this_allocation()) throw std::bad_alloc();
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
#endif

namespace fmm {
namespace {

constexpr index_t kN = 96;

// Arms the countdown for one scope.
struct Armed {
  Armed(long n, bool any_thread) {
    g_any_thread.store(any_thread);
    g_countdown.store(n);
  }
  ~Armed() { g_countdown.store(-1); }
};

Plan two_level_plan() {
  return make_plan({catalog::best(2, 2, 2), catalog::best(2, 2, 2)},
                   Variant::kABC);
}

// An engine whose 96^3 requests descend once (cutoff 40) into cached
// executor leaves.  Four workers, so that the sweep also fails the
// allocations of fork-join teams; which allocation fails at a given step
// then varies from run to run, and no check depends on it.  A first
// request on another shape starts the pool before anything is armed.
Engine::Options options() {
  Engine::Options o;
  o.workers = 4;
  o.recurse_cutoff = 40;
  return o;
}

void start_pool(Engine& e) {
  test::RandomProblem p = test::random_problem(8, 8, 8, 1);
  ASSERT_TRUE(e.multiply(two_level_plan(), p.c.view(), p.a.view(),
                         p.b.view()).ok());
}

std::int64_t outstanding_leases(Engine& e) {
  (void)e.metrics_report();  // refreshes the gauges
  return e.metrics().gauge("engine.recurse.outstanding").value();
}

// Sweeps the failing allocation over one request, `issue` sending it (with
// the countdown armed) and returning its Status.  Each step uses a fresh
// engine, so the request compiles and leases from scratch.  Returns how
// many steps failed with kResourceExhausted.
int sweep(bool any_thread,
          const std::function<Status(Engine&, test::RandomProblem&)>& issue) {
  const Plan plan = two_level_plan();
  int exhausted = 0;
  for (long n = 0;; ++n) {
    if (n > 20000) {
      ADD_FAILURE() << "the request never completed without a failure";
      return exhausted;
    }
    Engine e(options());
    start_pool(e);
    test::RandomProblem p = test::random_problem(kN, kN, kN, 7);
    Status st;
    bool fired = false;
    {
      Armed armed(n, any_thread);
      st = issue(e, p);
      fired = g_countdown.load() < 0;
    }
    EXPECT_EQ(outstanding_leases(e), 0) << "step " << n;
    if (st.ok()) {
      ref_gemm(p.want.view(), p.a.view(), p.b.view());
      EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(kN, 2))
          << "step " << n;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted)
          << "step " << n << ": " << st.to_string();
      ++exhausted;
    }
    // The engine keeps serving: the same request, unarmed, is correct.
    test::RandomProblem q = test::random_problem(kN, kN, kN, 8);
    EXPECT_TRUE(e.multiply(plan, q.c.view(), q.a.view(), q.b.view()).ok());
    ref_gemm(q.want.view(), q.a.view(), q.b.view());
    EXPECT_LE(max_abs_diff(q.c.view(), q.want.view()), test::tol_for(kN, 2))
        << "step " << n;
    if (::testing::Test::HasFailure()) return exhausted;
    // The countdown outlived the request: every allocation it makes has
    // been failed once.
    if (!fired) return exhausted;
  }
}

TEST(AllocFault, HostMultiplyReturnsResourceExhausted) {
  if (!FMM_ALLOC_FAULT) GTEST_SKIP() << "operator new belongs to a sanitizer";
  const Plan plan = two_level_plan();
  // Every thread counts: the host's submit as well as the worker's body.
  const int exhausted = sweep(true, [&](Engine& e, test::RandomProblem& p) {
    return e.multiply(plan, p.c.view(), p.a.view(), p.b.view());
  });
  EXPECT_GT(exhausted, 0);
}

TEST(AllocFault, HostBatchReturnsResourceExhausted) {
  if (!FMM_ALLOC_FAULT) GTEST_SKIP() << "operator new belongs to a sanitizer";
  const Plan plan = two_level_plan();
  // The host groups and copies the items before queueing them.
  const int exhausted = sweep(true, [&](Engine& e, test::RandomProblem& p) {
    const BatchItem items[1] = {{p.c.view(), p.a.view(), p.b.view()}};
    return e.multiply(plan, BatchSpec::items(items, 1));
  });
  EXPECT_GT(exhausted, 0);
}

TEST(AllocFault, NestedMultiplyFromPoolTaskReturnsResourceExhausted) {
  if (!FMM_ALLOC_FAULT) GTEST_SKIP() << "operator new belongs to a sanitizer";
  const Plan plan = two_level_plan();
  TaskPool tasks(4);  // a foreign pool: its task multiplies inline
  const int exhausted = sweep(false, [&](Engine& e, test::RandomProblem& p) {
    Status nested = Status::error(StatusCode::kInvalidArgument, "not run");
    const Status task = tasks.submit([&] {
      nested = e.multiply(plan, p.c.view(), p.a.view(), p.b.view());
    }).status();
    EXPECT_TRUE(task.ok()) << "the nested multiply threw: "
                           << task.to_string();
    return nested;
  });
  EXPECT_GT(exhausted, 0);
}

}  // namespace
}  // namespace fmm
