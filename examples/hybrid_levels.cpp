// Multi-level plans & recursive descent — where each regime runs.
//
// An engine call picks one of three execution regimes by size:
//
//   min(m,n,k) >  cutoff   recursive descent: one plan level runs its
//                          products over quadrant views on the pool's
//                          workers, each recursing on its subproblem;
//   min(m,n,k) <= cutoff   compiled fast leaf: the remaining levels run
//                          as one cached FmmExecutor (serial for a
//                          product of a full window, pool-wide for a
//                          product left over after the last one);
//   fringes / levels out   plain GEMM slivers.
//
// This walkthrough builds one-level, two-level, and hybrid plans (paper
// §5.2: different algorithms on different levels, e.g. <2,2,2>+<2,3,2>
// when k splits 2x3), then runs each through two engines — descent
// disabled vs descent at --cutoff — and reports which regime fired and
// what it cost.  It also shows the determinism contract: recursive runs
// are bitwise reproducible run-to-run, and with the cutoff at the problem
// size the recursive engine is bitwise identical to flat.  The exit status
// is non-zero when a multiply returns a non-OK Status or a bitwise check
// fails.
//
//   $ ./hybrid_levels --n 1536 --cutoff 384
//   $ FMM_RECURSE_CUTOFF=512 ./hybrid_levels     # env default, same knob

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/recursive.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  using namespace fmm;
  Cli cli(argc, argv);
  const index_t n = cli.get_int("n", 1536, "m = n = k");
  const long long cutoff =
      cli.get_int("cutoff", 384, "recursive leaf cutoff (see below)");
  const int reps = cli.get_int("reps", 3, "timing repetitions");
  cli.finish();

  // Every multiply goes through here: a non-OK Status ends the walkthrough.
  auto check = [](const Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "multiply failed: %s\n", st.to_string().c_str());
      std::exit(1);
    }
  };

  Matrix a = Matrix::random(n, n, 1);
  Matrix b = Matrix::random(n, n, 2);
  Matrix c = Matrix::zero(n, n);
  Matrix c_ref = Matrix::zero(n, n);
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(n) * n;

  // Two engines, one knob apart.  Precedence for the cutoff is
  // Options::recurse_cutoff > FMM_RECURSE_CUTOFF > derived-from-L3;
  // negative disables descent entirely.
  Engine::Options flat_opts;
  flat_opts.recurse_cutoff = -1;
  Engine flat(flat_opts);
  Engine::Options rec_opts;
  rec_opts.recurse_cutoff = cutoff;
  Engine recursive(rec_opts);

  const FmmAlgorithm& s222 = catalog::best(2, 2, 2);
  const FmmAlgorithm& s232 = catalog::best(2, 3, 2);
  const FmmAlgorithm& s333 = catalog::best(3, 3, 3);
  struct Entry {
    const char* label;
    Plan plan;
  };
  const Entry entries[] = {
      {"<2,2,2> 1-level", make_plan({s222}, Variant::kABC)},
      {"<3,3,3> 1-level", make_plan({s333}, Variant::kABC)},
      {"<2,2,2> 2-level", make_plan({s222, s222}, Variant::kABC)},
      {"<2,2,2>+<2,3,2> hybrid", make_plan({s222, s232}, Variant::kABC)},
      {"<2,2,2>+<3,3,3> hybrid", make_plan({s222, s333}, Variant::kABC)},
  };

  // GEMM baseline (the engine's auto path below the crossover).
  GemmConfig cfg;
  GemmWorkspace ws;
  gemm(c.view(), a.view(), b.view(), ws, cfg);
  const double gemm_s =
      best_time_of(reps, [&] { gemm(c.view(), a.view(), b.view(), ws, cfg); });

  std::printf("m = n = k = %lld, leaf cutoff %lld "
              "(descent while min dim > cutoff)\n\n",
              static_cast<long long>(n), cutoff);

  TablePrinter table({"plan", "regime", "flat", "recursive", "rec/flat"});
  table.add_row({"gemm baseline", "gemm",
                 TablePrinter::fmt(effective_gflops(n, n, n, gemm_s), 1),
                 "-", "-"});
  for (const auto& e : entries) {
    // should_recurse is the engine's own predicate: a top level to
    // expand, every dimension strictly above the cutoff.
    const bool descends = should_recurse(e.plan, n, n, n, cutoff);
    auto run = [&](Engine& eng, Matrix& dst) {
      std::memset(dst.data(), 0, bytes);
      check(eng.multiply(e.plan, dst.view(), a.view(), b.view()));
    };
    run(flat, c_ref);  // warm (compile executors) + reference result
    run(recursive, c);
    const double t_flat = best_time_of(reps, [&] { run(flat, c_ref); });
    const double t_rec = best_time_of(reps, [&] { run(recursive, c); });
    table.add_row({e.label, descends ? "descend" : "leaf",
                   TablePrinter::fmt(effective_gflops(n, n, n, t_flat), 1),
                   TablePrinter::fmt(effective_gflops(n, n, n, t_rec), 1),
                   TablePrinter::fmt(t_flat / t_rec, 2)});
  }
  table.print(std::cout);
  std::printf("\nrecursive descents so far: %llu\n",
              static_cast<unsigned long long>(
                  recursive.stats().recursive_runs));

  // Determinism, part 1: the recursive driver is bitwise reproducible —
  // same bits across runs, schedules, and worker interleavings.
  const Plan& two_level = entries[2].plan;
  Matrix r1 = Matrix::zero(n, n);
  Matrix r2 = Matrix::zero(n, n);
  check(recursive.multiply(two_level, r1.view(), a.view(), b.view()));
  check(recursive.multiply(two_level, r2.view(), a.view(), b.view()));
  const bool reproducible = std::memcmp(r1.data(), r2.data(), bytes) == 0;
  std::printf("two recursive runs bitwise identical: %s\n",
              reproducible ? "yes" : "NO");

  // Determinism, part 2: with the cutoff at the problem size the engine
  // never descends, and the result is bitwise identical to flat (a
  // *descending* run matches flat only to an FMM tolerance — it sums the
  // same products in a different, but fixed, association).
  Engine::Options at_size;
  at_size.recurse_cutoff = n;
  Engine no_descent(at_size);
  check(no_descent.multiply(two_level, r1.view(), a.view(), b.view()));
  check(flat.multiply(two_level, r2.view(), a.view(), b.view()));
  const bool flat_at_size = std::memcmp(r1.data(), r2.data(), bytes) == 0;
  std::printf("cutoff-at-size engine bitwise identical to flat: %s\n",
              flat_at_size ? "yes" : "NO");
  return reproducible && flat_at_size ? 0 : 1;
}
