// Recursive multi-level execution (src/core/recursive.h): the BufferPool
// allocator, the descent predicate and cutoff resolution, the determinism
// contract (one driver, bitwise equal under every schedule), failure
// containment, peeling/degenerate shapes under recursion, and the
// nested-call / slot-pool regressions.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/recursive.h"
#include "src/gemm/gemm.h"
#include "src/model/perf_model.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

using test::degenerate_shapes;
using test::random_problem;
using test::RandomProblem;
using test::recursive_under_schedules;
using test::tol_for;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

Plan one_level_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

Plan two_level_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2), catalog::best(2, 2, 2)}, v);
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        static_cast<std::size_t>(x.rows() * x.cols()) *
                            sizeof(double)),
            0);
}

// A standalone RecursiveExec whose leaves are plain GEMMs on the threads
// the descent asks for — no Engine, no executor cache — for the
// schedule-determinism tests.  Only valid for plans fully consumed by the
// descent (child == nullptr at every leaf).
RecursiveExec gemm_leaf_ctx(BufferPool* buffers, index_t cutoff) {
  RecursiveExec ctx;
  ctx.buffers = buffers;
  ctx.cutoff = cutoff;
  ctx.leaf = [](const Plan* plan, int threads, MatView c, ConstMatView a,
                ConstMatView b) {
    ASSERT_EQ(plan, nullptr) << "descent did not consume every level";
    static thread_local GemmWorkspace ws;
    GemmConfig cfg;
    cfg.num_threads = threads;
    gemm(c, a, b, ws, cfg);
  };
  return ctx;
}

// ---------------------------------------------------------------------------
// BufferPool.
// ---------------------------------------------------------------------------

TEST(RecursiveBufferPool, LeaseRoundTripAndReuse) {
  BufferPool pool;
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.outstanding(), 0u);
  {
    BufferPool::Lease a = pool.acquire(100);
    BufferPool::Lease b = pool.acquire(50);
    EXPECT_TRUE(a.engaged());
    EXPECT_NE(a.data(), nullptr);
    EXPECT_EQ(pool.outstanding(), 2u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_buffers(), 2u);
  const std::size_t peak = pool.peak_bytes();
  EXPECT_GE(peak, 150 * sizeof(double));

  // A request the 100-element buffer satisfies must reuse it (and prefer
  // it over nothing): no new allocation, peak unchanged.
  {
    BufferPool::Lease c = pool.acquire(80);
    EXPECT_EQ(pool.free_buffers(), 1u);
    EXPECT_EQ(pool.peak_bytes(), peak);
  }
  EXPECT_EQ(pool.free_buffers(), 2u);

  // A request nothing satisfies allocates instead of blocking.
  BufferPool::Lease big = pool.acquire(1000);
  EXPECT_TRUE(big.engaged());
  EXPECT_EQ(pool.free_buffers(), 2u);
  EXPECT_GT(pool.peak_bytes(), peak);
}

TEST(RecursiveBufferPool, ResetReturnsEarlyAndMoveTransfers) {
  BufferPool pool;
  BufferPool::Lease a = pool.acquire(16);
  BufferPool::Lease b = std::move(a);
  EXPECT_FALSE(a.engaged());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(b.engaged());
  EXPECT_EQ(pool.outstanding(), 1u);
  b.reset();
  EXPECT_FALSE(b.engaged());
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.free_buffers(), 1u);
  b.reset();  // idempotent
  EXPECT_EQ(pool.free_buffers(), 1u);
}

// ---------------------------------------------------------------------------
// Descent predicate and cutoff resolution.
// ---------------------------------------------------------------------------

TEST(RecursiveCutoff, ShouldRecursePredicate) {
  const Plan plan = one_level_plan();
  EXPECT_TRUE(should_recurse(plan, 64, 64, 64, 32));
  // Every dimension must be strictly above the cutoff...
  EXPECT_FALSE(should_recurse(plan, 64, 64, 64, 64));
  EXPECT_FALSE(should_recurse(plan, 64, 32, 64, 32));
  // ...the cutoff positive...
  EXPECT_FALSE(should_recurse(plan, 64, 64, 64, 0));
  // ...and the outermost level must have a non-empty interior (<3,3,3> at
  // m = 2 clears the cutoff but cannot form a quadrant grid).
  const Plan plan3 = make_plan({catalog::best(3, 3, 3)}, Variant::kABC);
  EXPECT_FALSE(should_recurse(plan3, 2, 64, 64, 1));
  EXPECT_TRUE(should_recurse(plan3, 64, 64, 64, 32));
  EXPECT_TRUE(should_recurse(plan, 3, 64, 64, 2));  // 1-wide quadrants OK
}

TEST(RecursiveCutoff, OptionsBeatEnvBeatsDefault) {
  ScopedEnv env("FMM_RECURSE_CUTOFF", "555");
  {
    Engine::Options o;
    o.recurse_cutoff = 777;
    Engine e(o);
    EXPECT_EQ(e.recurse_cutoff(), 777);
  }
  {
    Engine e;  // Options 0 defers to the env
    EXPECT_EQ(e.recurse_cutoff(), 555);
  }
  {
    Engine::Options o;
    o.recurse_cutoff = -1;  // explicit disable beats the env
    Engine e(o);
    EXPECT_EQ(e.recurse_cutoff(), 0);
  }
}

TEST(RecursiveCutoff, EnvZeroDisablesUnsetUsesModelDefault) {
  {
    ScopedEnv env("FMM_RECURSE_CUTOFF", "0");
    Engine e;
    EXPECT_EQ(e.recurse_cutoff(), 0);
  }
  {
    ScopedEnv env("FMM_RECURSE_CUTOFF", nullptr);
    Engine e;
    EXPECT_EQ(e.recurse_cutoff(),
              recommended_recurse_cutoff(arch::cache_topology()));
  }
}

TEST(RecursiveCutoff, RecommendedCutoffTracksL3AndClamps) {
  arch::CacheTopology topo;
  topo.l3_bytes = 25 * (1L << 20);  // the paper's Ivy Bridge slice
  const index_t ivy = recommended_recurse_cutoff(topo);
  EXPECT_EQ(ivy, 1024);  // sqrt(25 MiB / 24) ~ 1045, floored to 64
  topo.l3_bytes = 1L << 20;
  EXPECT_EQ(recommended_recurse_cutoff(topo), 256);  // lower clamp
  topo.l3_bytes = 1L << 30;
  EXPECT_EQ(recommended_recurse_cutoff(topo), 4096);  // upper clamp
  topo.l3_bytes = 0;  // unknown: 8 MiB assumption
  const index_t unknown = recommended_recurse_cutoff(topo);
  EXPECT_EQ(unknown % 64, 0);
  EXPECT_GE(unknown, 256);
  EXPECT_LE(unknown, 1024);
}

// ---------------------------------------------------------------------------
// Correctness and the determinism contract.
// ---------------------------------------------------------------------------

// With the cutoff at the problem size no descent happens: the engine runs
// the flat executor and the result is bitwise identical to a
// descent-disabled engine.
TEST(RecursiveExecution, CutoffAtProblemSizeIsBitwiseFlat) {
  const Plan plan = two_level_plan();
  const index_t n = 64;
  RandomProblem p = random_problem(n, n, n, 42);
  Matrix c_flat = p.c.clone();

  Engine::Options ro;
  ro.recurse_cutoff = n;  // min(m, n, k) > cutoff is false: flat path
  Engine recursive(ro);
  ASSERT_TRUE(recursive.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_EQ(recursive.stats().recursive_runs, 0u);

  Engine::Options fo;
  fo.recurse_cutoff = -1;
  Engine flat(fo);
  ASSERT_TRUE(flat.multiply(plan, c_flat.view(), p.a.view(), p.b.view()).ok());
  expect_bitwise_equal(p.c, c_flat);
}

TEST(RecursiveExecution, DescentMatchesReferenceTwoLevel) {
  const Plan plan = two_level_plan();
  Engine::Options o;
  o.recurse_cutoff = 20;  // 96 -> 48 -> GEMM leaves at 24
  o.workers = 4;
  Engine e(o);
  const index_t n = 96;
  obs::Histogram& requests = e.metrics().histogram("engine.request.explicit");
  for (int i = 1; i <= 2; ++i) {
    RandomProblem p = random_problem(n, n, n, 7 + i);
    ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    EXPECT_EQ(e.stats().recursive_runs, static_cast<std::uint64_t>(i));
    // A descended request is a request: one latency sample each.
    EXPECT_EQ(requests.count(), static_cast<std::uint64_t>(i));
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(n, 2));
  }
}

// A leaf that throws (an allocation or a compile failing) fails the
// request — partial C, but never a success and never a hang — and the
// pool and buffers stay usable.
TEST(RecursiveExecution, LeafExceptionFailsTheRequest) {
  const Plan plan = two_level_plan();
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 17);
  BufferPool buffers;
  RecursiveExec ctx = gemm_leaf_ctx(&buffers, 20);
  std::atomic<int> calls{0};
  const RecursiveLeafFnT<double> gemm_leaf = ctx.leaf;
  ctx.leaf = [&](const Plan* lp, int threads, MatView c, ConstMatView a,
                 ConstMatView b) {
    if (calls.fetch_add(1) == 2) throw std::bad_alloc();
    gemm_leaf(lp, threads, c, a, b);
  };
  TaskPool pool(4);
  const Status st = pool.submit([&] {
    run_recursive(ctx, plan, p.c.view(), p.a.view(), p.b.view());
  }).status();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(buffers.outstanding(), 0u);

  // The same pool runs the next request to completion.
  ctx.leaf = gemm_leaf;
  RandomProblem q = random_problem(n, n, n, 18);
  ASSERT_TRUE(pool.submit([&] {
    run_recursive(ctx, plan, q.c.view(), q.a.view(), q.b.view());
  }).status().ok());
  ref_gemm(q.want.view(), q.a.view(), q.b.view());
  EXPECT_LE(max_abs_diff(q.c.view(), q.want.view()), tol_for(n, 2));
}

// Flat and recursive execution associate the per-level sums differently,
// so they agree to tolerance (bitwise identity holds only without descent).
TEST(RecursiveExecution, FlatVsRecursiveWithinTolerance) {
  const Plan plan = two_level_plan();
  const index_t n = 88;
  RandomProblem p = random_problem(n, n, n, 11);
  Matrix c_flat = p.c.clone();

  Engine::Options ro;
  ro.recurse_cutoff = 20;
  Engine recursive(ro);
  ASSERT_TRUE(recursive.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_GE(recursive.stats().recursive_runs, 1u);

  Engine::Options fo;
  fo.recurse_cutoff = -1;
  Engine flat(fo);
  ASSERT_TRUE(flat.multiply(plan, c_flat.view(), p.a.view(), p.b.view()).ok());
  EXPECT_LE(max_abs_diff(p.c.view(), c_flat.view()), tol_for(n, 2));
}

// The core contract: one driver, bitwise-identical results across worker
// counts (1 = the serial schedule), host and nested calls.
TEST(RecursiveExecution, BitwiseDeterministicAcrossSchedules) {
  const Plan plan = one_level_plan();
  const index_t n = 60;  // 60 -> 30 GEMM leaves
  RandomProblem p = random_problem(n, n, n, 23);
  BufferPool buffers;
  const std::vector<Matrix> runs = recursive_under_schedules(
      gemm_leaf_ctx(&buffers, 16), plan, p.c, p.a.view(), p.b.view());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("schedule " + std::to_string(i));
    expect_bitwise_equal(runs[i], runs[0]);
  }

  // And the answer is actually right.
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(runs[0].view(), p.want.view()), tol_for(n, 1));
}

// A synchronous multiply from a foreign pool's worker runs the same driver
// inline, where its regions run serially on the 1-worker pool: the same
// bits as the requests engines of 1, 2 and 8 workers run, and no deadlock.
TEST(RecursiveNested, OnWorkerSequentialMatchesHostGraph) {
  const Plan plan = two_level_plan();
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 31);
  std::vector<Matrix> results;
  for (int workers : {1, 2, 8}) {
    Engine::Options o;
    o.recurse_cutoff = 20;
    o.workers = workers;
    Engine e(o);
    results.push_back(p.c.clone());
    ASSERT_TRUE(
        e.multiply(plan, results.back().view(), p.a.view(), p.b.view()).ok());

    TaskPool tp(1);  // a foreign pool: its worker still counts as "on worker"
    results.push_back(p.c.clone());
    Status nested_st;
    TaskFuture f = tp.submit([&] {
      nested_st =
          e.multiply(plan, results.back().view(), p.a.view(), p.b.view());
    });
    ASSERT_TRUE(f.status().ok());
    ASSERT_TRUE(nested_st.ok());
    EXPECT_EQ(e.stats().recursive_runs, 2u);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    expect_bitwise_equal(results[i], results[0]);
  }
}

// A batch item above the cutoff descends exactly as the same multiply sent
// alone.  Every layout — an item array, a strided batch, a cross-shape
// item batch — gives the bits of the per-item multiply loop, and each item
// counts one recursive run, on the explicit and on the auto path.
TEST(RecursiveBatch, ItemsDescendLikeSingleRequests) {
  Engine::Options o;
  o.recurse_cutoff = 20;
  Engine e(o);
  // Paint GEMM as slow at the batch shapes, so that the auto path picks a
  // fast algorithm there (and descends) too.
  PerfHistory::Tuning tuning;
  tuning.min_observations = 3;
  e.history().set_tuning(tuning);
  const index_t n = 96, m2 = 80, k2 = 88;
  for (int i = 0; i < 3; ++i) {
    e.history().record(e.gemm_history_key(n, n, n), 0.01);
    e.history().record(e.gemm_history_key(m2, n, k2), 0.01);
  }

  const Plan one = one_level_plan();
  for (const Plan* plan : {&one, static_cast<const Plan*>(nullptr)}) {
    SCOPED_TRACE(plan != nullptr ? "one-level <2,2,2>" : "auto");
    auto single = [&](MatView c, ConstMatView a, ConstMatView b) {
      return plan != nullptr ? e.multiply(*plan, c, a, b) : e.multiply(c, a, b);
    };
    auto batch = [&](const BatchSpec& spec) {
      return plan != nullptr ? e.multiply(*plan, spec) : e.multiply(spec);
    };

    // Two n^3 items stacked in one buffer each: item i is row block i.
    for (bool strided : {false, true}) {
      SCOPED_TRACE(strided ? "strided" : "items");
      Matrix c = Matrix::random(2 * n, n, 1);
      const Matrix a = Matrix::random(2 * n, n, 2);
      const Matrix b = Matrix::random(2 * n, n, 3);
      Matrix want = c.clone();
      std::vector<BatchItem> items;
      for (index_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(single(want.view().block(i * n, 0, n, n),
                           a.view().block(i * n, 0, n, n),
                           b.view().block(i * n, 0, n, n))
                        .ok());
        items.push_back({c.view().block(i * n, 0, n, n),
                         a.view().block(i * n, 0, n, n),
                         b.view().block(i * n, 0, n, n)});
      }
      StridedBatch sb;
      sb.m = sb.n = sb.k = n;
      sb.count = 2;
      sb.c = c.data();
      sb.a = a.data();
      sb.b = b.data();
      sb.stride_c = sb.stride_a = sb.stride_b = n * n;
      const std::uint64_t before = e.stats().recursive_runs;
      const BatchSpec spec =
          strided ? BatchSpec::strided(sb) : BatchSpec::items(items);
      ASSERT_TRUE(batch(spec).ok());
      EXPECT_EQ(e.stats().recursive_runs, before + 2);
      expect_bitwise_equal(c, want);
    }

    // A cross-shape batch: two shape groups, each above the cutoff.
    RandomProblem p = random_problem(n, n, n, 5);
    RandomProblem q = random_problem(m2, n, k2, 6);
    ASSERT_TRUE(single(p.want.view(), p.a.view(), p.b.view()).ok());
    ASSERT_TRUE(single(q.want.view(), q.a.view(), q.b.view()).ok());
    const std::vector<BatchItem> items = {{p.c.view(), p.a.view(), p.b.view()},
                                          {q.c.view(), q.a.view(), q.b.view()}};
    const std::uint64_t before = e.stats().recursive_runs;
    ASSERT_TRUE(batch(BatchSpec::items(items)).ok());
    EXPECT_EQ(e.stats().recursive_runs, before + 2);
    expect_bitwise_equal(p.c, p.want);
    expect_bitwise_equal(q.c, q.want);
  }
}

// ---------------------------------------------------------------------------
// The hybrid schedule: full windows one product per participant, the
// products left over after the last full window one at a time across the
// whole budget.
// ---------------------------------------------------------------------------

// Exactly R mod window products reach the leaf asking for more than one
// thread; every other product runs on a serial leaf.
TEST(RecursiveHybrid, LeftoverProductsRunPoolWide) {
  const Plan plan = one_level_plan();  // R = 7
  const index_t n = 64;                // divisible: no fringe leaves
  RandomProblem p = random_problem(n, n, n, 41);
  BufferPool buffers;
  RecursiveExec ctx = gemm_leaf_ctx(&buffers, 16);
  const RecursiveLeafFnT<double> gemm_leaf = ctx.leaf;
  std::atomic<int> serial{0}, wide{0};
  ctx.leaf = [&](const Plan* lp, int threads, MatView c, ConstMatView a,
                 ConstMatView b) {
    (threads > 1 ? wide : serial).fetch_add(1);
    gemm_leaf(lp, threads, c, a, b);
  };
  for (int workers : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    serial = 0;
    wide = 0;
    Matrix c = p.c.clone();
    TaskPool pool(workers);
    ASSERT_TRUE(pool.submit([&] {
      run_recursive(ctx, plan, c.view(), p.a.view(), p.b.view());
    }).status().ok());
    const int window = std::min(7, workers);
    EXPECT_EQ(wide.load(), 7 % window);
    EXPECT_EQ(serial.load(), 7 - 7 % window);
  }
}

// A budget of 2 on a 4-worker pool: no more than 2 leaves at once, on no
// more than 2 threads, and the leftover product's leaf asks for 2.
TEST(RecursiveHybrid, ParticipantBudgetCapsTheRegion) {
  const Plan plan = one_level_plan();
  const index_t n = 64;
  RandomProblem p = random_problem(n, n, n, 43);
  BufferPool buffers;
  RecursiveExec ctx = gemm_leaf_ctx(&buffers, 16);
  ctx.participants = 2;
  const RecursiveLeafFnT<double> gemm_leaf = ctx.leaf;
  std::mutex mu;
  std::set<std::thread::id> active, seen;
  std::size_t most_at_once = 0;
  int most_threads = 0;
  ctx.leaf = [&](const Plan* lp, int threads, MatView c, ConstMatView a,
                 ConstMatView b) {
    const std::thread::id me = std::this_thread::get_id();
    {
      std::lock_guard<std::mutex> lk(mu);
      active.insert(me);
      seen.insert(me);
      most_at_once = std::max(most_at_once, active.size());
      most_threads = std::max(most_threads, threads);
    }
    // Long enough that leaves a wider region would run together overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gemm_leaf(lp, threads, c, a, b);
    std::lock_guard<std::mutex> lk(mu);
    active.erase(me);
  };
  TaskPool pool(4);
  ASSERT_TRUE(pool.submit([&] {
    run_recursive(ctx, plan, p.c.view(), p.a.view(), p.b.view());
  }).status().ok());
  EXPECT_LE(most_at_once, 2u);
  EXPECT_LE(seen.size(), 2u);
  EXPECT_EQ(most_threads, 2);  // window 2: 6 products, then 1 left over
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(n, 1));
}

// A leftover product's pool-wide leaf that throws fails the request and
// returns every lease.
TEST(RecursiveHybrid, PoolWideLeafExceptionFailsTheRequest) {
  const Plan plan = two_level_plan();
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 47);
  BufferPool buffers;
  RecursiveExec ctx = gemm_leaf_ctx(&buffers, 20);
  const RecursiveLeafFnT<double> gemm_leaf = ctx.leaf;
  std::atomic<int> wide{0};
  ctx.leaf = [&](const Plan* lp, int threads, MatView c, ConstMatView a,
                 ConstMatView b) {
    if (threads > 1) {
      wide.fetch_add(1);
      throw std::bad_alloc();
    }
    gemm_leaf(lp, threads, c, a, b);
  };
  TaskPool pool(4);
  const Status st = pool.submit([&] {
    run_recursive(ctx, plan, p.c.view(), p.a.view(), p.b.view());
  }).status();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(wide.load(), 1);  // the first pool-wide leaf stops the request
  EXPECT_EQ(buffers.outstanding(), 0u);
}

// The Engine's budget is the request's num_threads: every budget on a
// 4-worker engine gives the bits of the default (all-worker) request.
TEST(RecursiveHybrid, EngineBitsIndependentOfThreadBudget) {
  const Plan plan = two_level_plan();
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 53);
  Engine::Options o;
  o.recurse_cutoff = 20;
  o.workers = 4;
  Engine e(o);
  Matrix want = p.c.clone();
  ASSERT_TRUE(e.multiply(plan, want.view(), p.a.view(), p.b.view()).ok());
  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    GemmConfig cfg;
    cfg.num_threads = threads;
    Matrix c = p.c.clone();
    ASSERT_TRUE(e.multiply(plan, c.view(), p.a.view(), p.b.view(), cfg).ok());
    expect_bitwise_equal(c, want);
  }
}

// ---------------------------------------------------------------------------
// Peeling and degenerate shapes under recursion.
// ---------------------------------------------------------------------------

TEST(RecursiveExecution, NonDivisibleDimsPeelAtEveryLevel) {
  Engine::Options o;
  o.recurse_cutoff = 10;
  Engine e(o);
  const Plan plan2 = two_level_plan();
  const Plan plan1 = one_level_plan();
  struct Shape {
    index_t m, n, k;
  };
  for (const Shape& s : {Shape{97, 89, 101}, Shape{65, 97, 33},
                         Shape{47, 47, 47}, Shape{96, 95, 94}}) {
    RandomProblem p = random_problem(s.m, s.n, s.k, 1000 + s.m);
    ASSERT_TRUE(e.multiply(plan2, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(s.k, 2))
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;

    RandomProblem q = random_problem(s.m, s.n, s.k, 2000 + s.m);
    ASSERT_TRUE(e.multiply(plan1, q.c.view(), q.a.view(), q.b.view()).ok());
    ref_gemm(q.want.view(), q.a.view(), q.b.view());
    EXPECT_LE(max_abs_diff(q.c.view(), q.want.view()), tol_for(s.k, 1))
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
  EXPECT_GE(e.stats().recursive_runs, 8u);
}

TEST(RecursiveExecution, OneWideQuadrantsAndDegenerateShapes) {
  Engine::Options o;
  o.recurse_cutoff = 2;  // aggressively recurse even tiny shapes
  Engine e(o);
  const Plan plan = one_level_plan();

  // k = 3 above cutoff 2: ks = 1 quadrants, GEMM leaves with k = 1.
  {
    RandomProblem p = random_problem(18, 18, 3, 5);
    ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(3, 1));
  }

  // Degenerate 0/1-dim shapes route around the descent entirely.
  for (const auto& s : degenerate_shapes()) {
    RandomProblem p = random_problem(s[0], s[1], s[2], 90 + s[0]);
    ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(s[2], 1))
        << "m=" << s[0] << " n=" << s[1] << " k=" << s[2];
  }
}

// ---------------------------------------------------------------------------
// Workspace-slot pool under nested execution (the slots=1 regression).
// ---------------------------------------------------------------------------

TEST(RecursiveSlots, EnsureSlotsGrowsAndNeverShrinks) {
  const Plan plan = one_level_plan();
  FmmExecutor exec(plan, 32, 32, 32, GemmConfig{}, /*slots=*/1);
  EXPECT_EQ(exec.num_slots(), 1);
  exec.ensure_slots(4);
  EXPECT_EQ(exec.num_slots(), 4);
  exec.ensure_slots(2);  // never shrinks
  EXPECT_EQ(exec.num_slots(), 4);
  exec.ensure_slots(0);  // no-op
  EXPECT_EQ(exec.num_slots(), 4);

  // Still computes correctly after growth.
  RandomProblem p = random_problem(32, 32, 32, 77);
  exec.run(p.c.view(), p.a.view(), p.b.view());
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(32, 1));
}

// An engine pinned to one workspace slot per executor must still complete
// recursive execution with concurrent leaf tasks — ensure_slots grows the
// leaf executor's pool to the worker count, so the single-slot setting
// cannot serialize (or wedge) the leaves.
TEST(RecursiveSlots, SingleSlotEngineCompletesRecursion) {
  const Plan plan = two_level_plan();
  Engine::Options o;
  o.slots = 1;
  o.workers = 4;
  o.recurse_cutoff = 20;
  Engine e(o);
  const index_t n = 96;
  RandomProblem p = random_problem(n, n, n, 13);
  ASSERT_TRUE(e.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  EXPECT_GE(e.stats().recursive_runs, 1u);
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_for(n, 2));
}

}  // namespace
}  // namespace fmm
