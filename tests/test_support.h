#ifndef FMM_TESTS_TEST_SUPPORT_H_
#define FMM_TESTS_TEST_SUPPORT_H_

// Shared test support: random-problem builders, tolerance helpers, shape
// tables, and the FMM_FUZZ_ITERS override.  Every test binary links the
// same fmm library; this header is the one place the reference-comparison
// idiom (build random A/B/C, run an engine, compare against ref_gemm) and
// the tolerance model live.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "src/core/engine.h"
#include "src/core/recursive.h"
#include "src/core/task_pool.h"
#include "src/gemm/gemm.h"
#include "src/linalg/matrix.h"
#include "src/linalg/ops.h"
#include "src/util/env.h"

namespace fmm {
namespace test {

// --------------------------------------------------------------------------
// Tolerances.
// --------------------------------------------------------------------------

// Classical (non-FMM) GEMM against the naive reference: only the summation
// order differs, so the bound is a small multiple of k * eps.
inline double tol_classical(index_t k) {
  return 1e-12 * std::max<index_t>(k, 1);
}

// FMM against the reference: each level loses a few bits relative to
// classical; this bound is loose enough for validation, tight enough to
// catch wrong coefficients.
inline double tol_for(index_t k, int levels = 1) {
  return 1e-11 * std::max<index_t>(k, 1) * (levels <= 1 ? 1 : 8);
}

// Single-precision twins: same error model scaled from double eps (~1e-16)
// to float eps (~1e-7).  Operands are uniform in [-1, 1], so k * eps is the
// natural growth; the FMM bound adds the same per-level slack as tol_for.
inline double tol_classical_f32(index_t k) {
  return 1e-5 * std::max<index_t>(k, 1);
}

inline double tol_for_f32(index_t k, int levels = 1) {
  return 1e-4 * std::max<index_t>(k, 1) * (levels <= 1 ? 1 : 8);
}

// --------------------------------------------------------------------------
// Random-problem builders.
// --------------------------------------------------------------------------

// A GEMM-shaped problem with random operands of element type T.  `c` is
// the output the engine under test writes into and `want` starts as an
// identical copy for the reference path, so C-accumulation (C += A*B) is
// exercised by default.
template <typename T = double>
struct RandomProblemT {
  MatrixT<T> a, b, c, want;
};
using RandomProblem = RandomProblemT<double>;

template <typename T = double>
RandomProblemT<T> random_problem(index_t m, index_t n, index_t k,
                                 std::uint64_t seed, bool zero_c = false) {
  RandomProblemT<T> p{
      MatrixT<T>::random(m, k, seed), MatrixT<T>::random(k, n, seed + 1),
      zero_c ? MatrixT<T>::zero(m, n) : MatrixT<T>::random(m, n, seed + 2),
      MatrixT<T>()};
  p.want = p.c.clone();
  return p;
}

// --------------------------------------------------------------------------
// Reference-comparison checkers.
// --------------------------------------------------------------------------

inline void expect_gemm_matches_ref(index_t m, index_t n, index_t k,
                                    const GemmConfig& cfg,
                                    std::uint64_t seed) {
  RandomProblem p = random_problem(m, n, k, seed);
  gemm(p.c.view(), p.a.view(), p.b.view(), cfg);
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), tol_classical(k))
      << "m=" << m << " n=" << n << " k=" << k;
}

inline void expect_fmm_matches_ref(const Plan& plan, index_t m, index_t n,
                                   index_t k, std::uint64_t seed) {
  RandomProblem p = random_problem(m, n, k, seed);
  const Status st =
      default_engine().multiply(plan, p.c.view(), p.a.view(), p.b.view());
  ASSERT_TRUE(st.ok()) << st.to_string();
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()),
            tol_for(k, plan.num_levels()))
      << plan.name() << " at m=" << m << " n=" << n << " k=" << k;
}

// --------------------------------------------------------------------------
// The recursive driver under every schedule.
// --------------------------------------------------------------------------

// C0 + A * B by run_recursive under each schedule its determinism contract
// covers: inside a task of a TaskPool of 1 (the serial schedule), 2 and 8
// workers; from the host thread (the process-default pool); and nested,
// two calls at once as the participants of a region on a 2-worker pool,
// whose own regions then find the pool busy and run (mostly) serially.
// Every result is returned for a bitwise comparison; a failing run fails
// the test.
template <typename T>
std::vector<MatrixT<T>> recursive_under_schedules(
    const RecursiveExecT<T>& ctx, const Plan& plan, const MatrixT<T>& c0,
    ConstMatViewT<NoDeduce<T>> a, ConstMatViewT<NoDeduce<T>> b) {
  std::vector<MatrixT<T>> out;
  for (int workers : {1, 2, 8}) {
    MatrixT<T> c = c0.clone();
    TaskPool pool(workers);
    const Status st = pool.submit([&] {
      run_recursive(ctx, plan, c.view(), a, b);
    }).status();
    EXPECT_TRUE(st.ok()) << "workers=" << workers << ": " << st.to_string();
    out.push_back(std::move(c));
  }
  out.push_back(c0.clone());
  run_recursive(ctx, plan, out.back().view(), a, b);
  std::vector<MatrixT<T>> nested;
  for (int i = 0; i < 2; ++i) nested.push_back(c0.clone());
  TaskPool pool(2);
  const Status st = pool.submit([&] {
    TaskPool::current().parallel_for(2, 2, 1, [&](std::int64_t i, int) {
      run_recursive(ctx, plan, nested[static_cast<std::size_t>(i)].view(), a,
                    b);
    });
  }).status();
  EXPECT_TRUE(st.ok()) << "nested: " << st.to_string();
  for (MatrixT<T>& c : nested) out.push_back(std::move(c));
  return out;
}

// --------------------------------------------------------------------------
// Shape tables.
// --------------------------------------------------------------------------

// Sizes bracketing a multiple of the tile `t`: exactly one below, exactly
// at, exactly one above, and a prime offset above — the adversarial band
// for dynamic peeling.
inline std::vector<index_t> sizes_around_multiple(index_t t, index_t mult = 4) {
  return {mult * t - 1, mult * t, mult * t + 1, mult * t + 3};
}

// Degenerate problem shapes (empty and one-dimensional): every engine must
// handle these without touching the interior path.
inline std::vector<std::array<index_t, 3>> degenerate_shapes() {
  return {{0, 8, 8},  {8, 0, 8},  {8, 8, 0},  {0, 0, 0},
          {1, 40, 40}, {40, 1, 40}, {40, 40, 1}, {1, 1, 1}};
}

// --------------------------------------------------------------------------
// Fuzzing knobs.
// --------------------------------------------------------------------------

// Iteration count for randomized property tests.  Defaults stay small so
// `ctest -L fuzz` is quick; set FMM_FUZZ_ITERS to run longer campaigns
// (e.g. FMM_FUZZ_ITERS=200 for a soak run).
inline int fuzz_iters(int default_iters) {
  return static_cast<int>(
      parse_env_long("FMM_FUZZ_ITERS", 1, 1L << 30).value_or(default_iters));
}

}  // namespace test
}  // namespace fmm

#endif  // FMM_TESTS_TEST_SUPPORT_H_
