// FmmExecutor: compile-once / run-many execution.  Covers equivalence with
// the Engine path (bitwise, same plan/config), the batched
// interface (distinct and shared B, item-parallel and sequential regimes),
// peeled and degenerate shapes, and thread-safety of one shared executor
// under concurrent host threads (the TSan CI leg runs this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/executor.h"
#include "src/linalg/ops.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

Plan strassen_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

// ---------------------------------------------------------------------------
// Correctness and equivalence with the Engine path.
// ---------------------------------------------------------------------------

class ExecutorVariant : public ::testing::TestWithParam<Variant> {};

TEST_P(ExecutorVariant, MatchesReference) {
  const Plan plan = strassen_plan(GetParam());
  for (index_t s : {64, 96, 127}) {
    test::RandomProblem p = test::random_problem(s, s, s, 7);
    FmmExecutor exec(plan, s, s, s);
    exec.run(p.c.view(), p.a.view(), p.b.view());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(s))
        << variant_name(GetParam()) << " s=" << s;
  }
}

TEST_P(ExecutorVariant, BitwiseIdenticalToEnginePath) {
  const Plan plan = strassen_plan(GetParam());
  // Shapes with and without peel fringes.
  for (index_t s : {96, 100, 101}) {
    test::RandomProblem p = test::random_problem(s, s, s, 11);
    Matrix c_engine = p.c.clone();
    GemmConfig cfg;
    cfg.num_threads = 2;
    FmmExecutor exec(plan, s, s, s, cfg);
    exec.run(p.c.view(), p.a.view(), p.b.view());
    ASSERT_TRUE(
        default_engine()
            .multiply(plan, c_engine.view(), p.a.view(), p.b.view(), cfg)
            .ok());
    EXPECT_EQ(max_abs_diff(p.c.view(), c_engine.view()), 0.0)
        << variant_name(GetParam()) << " s=" << s;
  }
}

TEST_P(ExecutorVariant, RepeatedRunsAreBitwiseStable) {
  const Plan plan = strassen_plan(GetParam());
  const index_t s = 80;
  test::RandomProblem p = test::random_problem(s, s, s, 3, /*zero_c=*/true);
  FmmExecutor exec(plan, s, s, s);
  exec.run(p.c.view(), p.a.view(), p.b.view());
  Matrix first = p.c.clone();
  for (int rep = 0; rep < 3; ++rep) {
    p.c.set_zero();
    exec.run(p.c.view(), p.a.view(), p.b.view());
    EXPECT_EQ(max_abs_diff(p.c.view(), first.view()), 0.0) << "rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ExecutorVariant,
                         ::testing::Values(Variant::kNaive, Variant::kAB,
                                           Variant::kABC),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return variant_name(info.param);
                         });

TEST(Executor, DegenerateShapes) {
  const Plan plan = strassen_plan();
  for (const auto& s : test::degenerate_shapes()) {
    test::RandomProblem p = test::random_problem(s[0], s[1], s[2], 5);
    FmmExecutor exec(plan, s[0], s[1], s[2]);
    exec.run(p.c.view(), p.a.view(), p.b.view());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()),
              test::tol_for(s[2]))
        << "m=" << s[0] << " n=" << s[1] << " k=" << s[2];
  }
}

TEST(Executor, PeelOnlyShapeSmallerThanTile) {
  // 1x1 .. smaller than <2,2,2> tiles: the whole problem is fringe.
  const Plan plan = strassen_plan();
  test::RandomProblem p = test::random_problem(1, 1, 1, 17);
  FmmExecutor exec(plan, 1, 1, 1);
  exec.run(p.c.view(), p.a.view(), p.b.view());
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), 1e-12);
}

TEST(Executor, TwoLevelHybridPlan) {
  const Plan plan = make_plan(
      {catalog::best(2, 2, 2), catalog::best(2, 3, 2)}, Variant::kABC);
  const index_t m = 4 * 31, k = 6 * 17, n = 4 * 23;
  test::RandomProblem p = test::random_problem(m, n, k, 9);
  FmmExecutor exec(plan, m, n, k);
  exec.run(p.c.view(), p.a.view(), p.b.view());
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(k, 2));
}

TEST(Executor, StridedOperandsShareOneExecutor) {
  // The compiled term offsets are stride-free; one executor must serve
  // operands with different leading dimensions.
  const Plan plan = strassen_plan();
  const index_t s = 64;
  FmmExecutor exec(plan, s, s, s);
  for (index_t pad : {0, 3, 17}) {
    Matrix a(s, s, s + pad), b(s, s, s + pad), c(s, s, s + pad);
    a.fill_random(21);
    b.fill_random(22);
    c.set_zero();
    Matrix want = Matrix::zero(s, s);
    exec.run(c.view(), a.view(), b.view());
    ref_gemm(want.view(), a.view(), b.view());
    double err = 0;
    for (index_t i = 0; i < s; ++i) {
      for (index_t j = 0; j < s; ++j) {
        err = std::max(err, std::abs(c(i, j) - want(i, j)));
      }
    }
    EXPECT_LE(err, test::tol_for(s)) << "pad=" << pad;
  }
}

TEST(Executor, FrozenConfigAndName) {
  const Plan plan = strassen_plan();
  GemmConfig cfg;
  cfg.num_threads = 2;
  FmmExecutor exec(plan, 128, 128, 128, cfg);
  // Blocking is resolved and frozen by value; the kernel actually running
  // is recorded and surfaces in the name.
  EXPECT_NE(exec.config().kernel, nullptr);
  EXPECT_GT(exec.config().mc, 0);
  EXPECT_GT(exec.config().kc, 0);
  EXPECT_GT(exec.config().nc, 0);
  EXPECT_EQ(exec.threads(), 2);
  EXPECT_NE(exec.name().find("<2,2,2> ABC ["), std::string::npos)
      << exec.name();
  EXPECT_NE(exec.name().find(exec.config().kernel->name), std::string::npos);
}

TEST(Executor, DoesNotMutateCallerConfig) {
  // The ScopedPlanKernel mutate-and-restore pattern is retired: the
  // caller's GemmConfig must never change, even transiently.
  Plan plan = strassen_plan();
  plan.kernel = &active_kernel();
  GemmConfig cfg;
  FmmExecutor exec(plan, 64, 64, 64, cfg);
  test::RandomProblem p = test::random_problem(64, 64, 64, 31);
  exec.run(p.c.view(), p.a.view(), p.b.view());
  EXPECT_EQ(cfg.kernel, nullptr);
  EXPECT_EQ(cfg.mc, 0);
}

// ---------------------------------------------------------------------------
// Batched execution.
// ---------------------------------------------------------------------------

struct BatchFixture {
  std::vector<Matrix> as, bs, cs, wants;
  std::vector<BatchItem> items;

  // `shared_b` makes every item reference bs[0].
  BatchFixture(index_t m, index_t n, index_t k, int count, bool shared_b,
               std::uint64_t seed) {
    for (int i = 0; i < count; ++i) {
      as.push_back(Matrix::random(m, k, seed + 3 * i));
      if (i == 0 || !shared_b) {
        bs.push_back(Matrix::random(k, n, seed + 3 * i + 1));
      }
      cs.push_back(Matrix::random(m, n, seed + 3 * i + 2));
      wants.push_back(cs.back().clone());
    }
    for (int i = 0; i < count; ++i) {
      const Matrix& b = shared_b ? bs[0] : bs[i];
      items.push_back({cs[static_cast<std::size_t>(i)].view(),
                       as[static_cast<std::size_t>(i)].view(), b.view()});
    }
  }
};

class ExecutorBatch
    : public ::testing::TestWithParam<std::tuple<bool, index_t>> {};

TEST_P(ExecutorBatch, MatchesPerCallRunsBitwise) {
  const bool shared_b = std::get<0>(GetParam());
  const index_t s = std::get<1>(GetParam());
  const Plan plan = strassen_plan();
  const int count = 9;
  BatchFixture f(s, s, s, count, shared_b, 41);
  FmmExecutor exec(plan, s, s, s);

  // Reference: per-item run() on a second executor (serial, so the batch
  // path's serial per-item execution must match bitwise).
  GemmConfig serial;
  serial.num_threads = 1;
  FmmExecutor ref_exec(plan, s, s, s, serial);
  for (int i = 0; i < count; ++i) {
    ref_exec.run(f.wants[static_cast<std::size_t>(i)].view(),
                 f.items[static_cast<std::size_t>(i)].a,
                 f.items[static_cast<std::size_t>(i)].b);
  }

  exec.run_batch(f.items);
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(max_abs_diff(f.cs[static_cast<std::size_t>(i)].view(),
                           f.wants[static_cast<std::size_t>(i)].view()),
              0.0)
        << "item " << i << " shared_b=" << shared_b << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSharing, ExecutorBatch,
    ::testing::Combine(::testing::Bool(),
                       // 64: the item-parallel regime; 67: peel fringes.
                       ::testing::Values<index_t>(64, 67)),
    [](const ::testing::TestParamInfo<std::tuple<bool, index_t>>& info) {
      return std::string(std::get<0>(info.param) ? "sharedB" : "distinctB") +
             "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(ExecutorBatch, SequentialRegimeMatchesPerCall) {
  // num_threads = 1 pins the sequential batch path (each item a full
  // run()) regardless of the host's core count.
  const Plan plan = strassen_plan();
  const index_t s = 200;
  const int count = 3;
  GemmConfig cfg;
  cfg.num_threads = 1;
  BatchFixture f(s, s, s, count, /*shared_b=*/false, 87);
  FmmExecutor exec(plan, s, s, s, cfg);
  FmmExecutor ref_exec(plan, s, s, s, cfg);
  for (int i = 0; i < count; ++i) {
    ref_exec.run(f.wants[static_cast<std::size_t>(i)].view(),
                 f.items[static_cast<std::size_t>(i)].a,
                 f.items[static_cast<std::size_t>(i)].b);
  }
  exec.run_batch(f.items);
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(max_abs_diff(f.cs[static_cast<std::size_t>(i)].view(),
                           f.wants[static_cast<std::size_t>(i)].view()),
              0.0)
        << "item " << i;
  }
}

TEST(ExecutorBatch, EmptyAndSingleItemBatches) {
  const Plan plan = strassen_plan();
  FmmExecutor exec(plan, 32, 32, 32);
  exec.run_batch(nullptr, 0);  // no-op
  BatchFixture f(32, 32, 32, 1, false, 77);
  exec.run_batch(f.items);
  ref_gemm(f.wants[0].view(), f.as[0].view(), f.bs[0].view());
  EXPECT_LE(max_abs_diff(f.cs[0].view(), f.wants[0].view()),
            test::tol_for(32));
}

TEST(ExecutorBatch, SharedBWithABVariantFallsBackCorrectly) {
  // The shared-B prepack fast path is ABC-only; AB batches must still be
  // correct through the generic path.
  const Plan plan = strassen_plan(Variant::kAB);
  const index_t s = 64;
  const int count = 6;
  BatchFixture f(s, s, s, count, /*shared_b=*/true, 53);
  FmmExecutor exec(plan, s, s, s);
  exec.run_batch(f.items);
  for (int i = 0; i < count; ++i) {
    ref_gemm(f.wants[static_cast<std::size_t>(i)].view(),
             f.as[static_cast<std::size_t>(i)].view(), f.bs[0].view());
    EXPECT_LE(max_abs_diff(f.cs[static_cast<std::size_t>(i)].view(),
                           f.wants[static_cast<std::size_t>(i)].view()),
              test::tol_for(s))
        << "item " << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrency: host threads hammering executors (the TSan leg's target).
// ---------------------------------------------------------------------------

TEST(ExecutorConcurrency, SharedExecutorManyHostThreads) {
  const Plan plan = strassen_plan();
  const index_t s = 72;
  const int n_threads = 4, iters = 5;
  // Keep the executor's internal parallelism at 1 so the host threads are
  // the only concurrency under test (and oversubscription stays bounded).
  GemmConfig cfg;
  cfg.num_threads = 1;
  FmmExecutor exec(plan, s, s, s, cfg, /*slots=*/n_threads);

  Matrix a = Matrix::random(s, s, 1);
  Matrix b = Matrix::random(s, s, 2);
  Matrix want = Matrix::zero(s, s);
  ref_gemm(want.view(), a.view(), b.view());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      Matrix c(s, s);
      for (int it = 0; it < iters; ++it) {
        c.set_zero();
        exec.run(c.view(), a.view(), b.view());
        if (max_abs_diff(c.view(), want.view()) > test::tol_for(s)) {
          failures.fetch_add(1);
        }
      }
      (void)t;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ExecutorConcurrency, FewerSlotsThanThreadsStillCorrect) {
  // More host threads than slots: callers queue on the lease, nobody
  // deadlocks, every result is right.
  const Plan plan = strassen_plan();
  const index_t s = 48;
  GemmConfig cfg;
  cfg.num_threads = 1;
  FmmExecutor exec(plan, s, s, s, cfg, /*slots=*/2);
  ASSERT_EQ(exec.num_slots(), 2);

  Matrix a = Matrix::random(s, s, 5);
  Matrix b = Matrix::random(s, s, 6);
  Matrix want = Matrix::zero(s, s);
  ref_gemm(want.view(), a.view(), b.view());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      Matrix c = Matrix::zero(s, s);
      exec.run(c.view(), a.view(), b.view());
      if (max_abs_diff(c.view(), want.view()) > test::tol_for(s)) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ExecutorConcurrency, SeparateExecutorsPerThread) {
  const Plan plan = strassen_plan();
  const index_t s = 60;
  GemmConfig cfg;
  cfg.num_threads = 1;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      FmmExecutor exec(plan, s, s, s, cfg, /*slots=*/1);
      test::RandomProblem p =
          test::random_problem(s, s, s, 100 + static_cast<std::uint64_t>(t));
      exec.run(p.c.view(), p.a.view(), p.b.view());
      ref_gemm(p.want.view(), p.a.view(), p.b.view());
      if (max_abs_diff(p.c.view(), p.want.view()) > test::tol_for(s)) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ExecutorConcurrency, ConcurrentBatchesOnSharedExecutor) {
  // Two host threads each driving run_batch on one executor: the shared-B
  // prepack is guarded (second batch takes the generic path), results
  // must all be correct.
  const Plan plan = strassen_plan();
  const index_t s = 64;
  GemmConfig cfg;
  cfg.num_threads = 2;
  FmmExecutor exec(plan, s, s, s, cfg);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      BatchFixture f(s, s, s, 8, /*shared_b=*/true,
                     200 + 50 * static_cast<std::uint64_t>(t));
      exec.run_batch(f.items);
      for (std::size_t i = 0; i < f.cs.size(); ++i) {
        ref_gemm(f.wants[i].view(), f.as[i].view(), f.bs[0].view());
        if (max_abs_diff(f.cs[i].view(), f.wants[i].view()) >
            test::tol_for(s)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Strided batch layout at the executor level (the Engine adds validation on
// top; here the compiled paths themselves must match the per-item views).
// ---------------------------------------------------------------------------

TEST(ExecutorBatch, StridedLayoutMatchesPerItemViewsBitwise) {
  const Plan plan = strassen_plan();
  // 64: item-parallel regime; 67: peel fringes + sequential larger shapes.
  for (index_t s : {static_cast<index_t>(64), static_cast<index_t>(67)}) {
    const std::size_t count = 6;
    const index_t item = s * s;
    Matrix a(static_cast<index_t>(count) * s, s), c(static_cast<index_t>(count) * s, s);
    Matrix cw(static_cast<index_t>(count) * s, s);
    Matrix b = Matrix::random(s, s, 19);
    a.fill_random(17);
    c.fill_random(18);
    std::memcpy(cw.data(), c.data(),
                static_cast<std::size_t>(count * static_cast<std::size_t>(item)) *
                    sizeof(double));

    FmmExecutor exec(plan, s, s, s);
    // Reference: the same executor over per-item views of the same storage.
    std::vector<BatchItem> items;
    for (std::size_t i = 0; i < count; ++i) {
      const index_t off = static_cast<index_t>(i) * item;
      items.push_back({MatView(cw.data() + off, s, s, s),
                       ConstMatView(a.data() + off, s, s, s), b.view()});
    }
    exec.run_batch(items);

    StridedBatch sb;
    sb.m = sb.n = sb.k = s;
    sb.count = count;
    sb.c = c.data();
    sb.a = a.data();
    sb.b = b.data();
    sb.stride_c = item;
    sb.stride_a = item;
    sb.stride_b = 0;  // shared B
    exec.run_batch_strided(sb);

    EXPECT_EQ(max_abs_diff(c.view(), cw.view()), 0.0) << "s=" << s;
  }
}

TEST(ExecutorBatch, StridedDistinctBMatchesRuns) {
  const Plan plan = strassen_plan();
  const index_t s = 64;
  const std::size_t count = 5;
  const index_t item = s * s;
  Matrix a(static_cast<index_t>(count) * s, s), b(static_cast<index_t>(count) * s, s);
  Matrix c(static_cast<index_t>(count) * s, s), cw(static_cast<index_t>(count) * s, s);
  a.fill_random(31);
  b.fill_random(32);
  c.set_zero();
  cw.set_zero();

  GemmConfig serial;
  serial.num_threads = 1;
  FmmExecutor ref_exec(plan, s, s, s, serial);
  for (std::size_t i = 0; i < count; ++i) {
    const index_t off = static_cast<index_t>(i) * item;
    ref_exec.run(MatView(cw.data() + off, s, s, s),
                 ConstMatView(a.data() + off, s, s, s),
                 ConstMatView(b.data() + off, s, s, s));
  }

  FmmExecutor exec(plan, s, s, s);
  StridedBatch sb;
  sb.m = sb.n = sb.k = s;
  sb.count = count;
  sb.c = c.data();
  sb.a = a.data();
  sb.b = b.data();
  sb.stride_c = item;
  sb.stride_a = item;
  sb.stride_b = item;
  exec.run_batch_strided(sb);
  EXPECT_EQ(max_abs_diff(c.view(), cw.view()), 0.0);
}

}  // namespace
}  // namespace fmm
