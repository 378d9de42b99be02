// Recursive execution (src/core/recursive.h): cutoff-based descent through
// fork-join regions to compiled-executor leaves, against the flat
// single-executor path, on large square shapes.
//
//   flat      — Engine with descent disabled: one FmmExecutor runs the
//               whole two-level plan through the fused loop nest
//               (fork-join parallel inside the multiply).
//   recursive — Engine with the leaf cutoff from --cutoff: sizes above it
//               descend, each fast-algorithm step running its products
//               on the pool's workers, leaves as compiled executors /
//               GEMMs (serial in a full window of products, pool-wide
//               for the products left over); sizes at or below it run
//               flat.
//
// The claim (informational; the exit code gates on correctness only): at
// n = 1024 the recursive path is >= 1.0x flat, and measurably faster at
// n >= 2048 on multi-core hosts, where the flat loop nest streams every
// operand from DRAM R times.  Correctness gates: the recursive result is
// bitwise deterministic (two runs match exactly), agrees with the flat
// result to a two-level FMM tolerance, and every size above the cutoff
// descended.
//
// Reported numbers are effective GFLOPS (2*m*n*k / time); higher is better,
// matching the bench-smoke diff semantics.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"
#include "src/linalg/ops.h"

using namespace fmm;
using namespace fmm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Options opts = parse_common(cli);
  const long long cutoff = cli.get_int(
      "cutoff", 256, "recursive leaf cutoff (FMM_RECURSE_CUTOFF semantics)");
  cli.finish();

  const Plan plan =
      make_plan({catalog::best(2, 2, 2), catalog::best(2, 2, 2)},
                Variant::kABC);
  const std::vector<index_t> sizes = opts.smoke
                                         ? std::vector<index_t>{512, 1024}
                                         : std::vector<index_t>{1024, 2048, 4096};
  const int reps = opts.smoke ? 3 : std::max(3, opts.reps);

  Engine::Options fopts;
  fopts.recurse_cutoff = -1;  // flat: descent disabled
  Engine flat(fopts);

  Engine::Options ropts;
  ropts.recurse_cutoff = cutoff;
  Engine recursive(ropts);

  std::printf("Recursive descent vs the flat executor\n");
  std::printf("%s, leaf cutoff %lld, pool workers = all cores\n",
              plan.name().c_str(), cutoff);
  std::printf("(effective GFLOPS; higher is better)\n\n");

  TablePrinter table({"scenario", "n", "flat", "recursive", "rec/flat"});
  bool correct = true;
  double ratio_1024 = 0;

  for (index_t s : sizes) {
    Matrix a = Matrix::random(s, s, 400 + s);
    Matrix b = Matrix::random(s, s, 401 + s);
    Matrix c_flat = Matrix::zero(s, s);
    Matrix c_rec = Matrix::zero(s, s);
    Matrix c_rec2 = Matrix::zero(s, s);
    const std::size_t bytes =
        sizeof(double) * static_cast<std::size_t>(s) * s;

    auto run = [&](Engine& e, Matrix& c) {
      std::memset(c.data(), 0, bytes);
      const Status st = e.multiply(plan, c.view(), a.view(), b.view());
      if (!st.ok()) {
        std::fprintf(stderr, "multiply failed at n=%lld: %s\n",
                     static_cast<long long>(s), st.to_string().c_str());
        correct = false;
      }
    };

    // Correctness first: bitwise determinism of the recursive path (two
    // runs, identical bits) and tolerance against flat (different FP
    // association, never bitwise).
    const std::uint64_t runs0 = recursive.stats().recursive_runs;
    run(flat, c_flat);
    run(recursive, c_rec);
    run(recursive, c_rec2);
    if (std::memcmp(c_rec.data(), c_rec2.data(), bytes) != 0) {
      std::fprintf(stderr, "n=%lld: recursive runs are not bitwise equal\n",
                   static_cast<long long>(s));
      correct = false;
    }
    const double tol = 1e-10 * static_cast<double>(s);
    const double diff = max_abs_diff(c_rec.view(), c_flat.view());
    if (!(diff <= tol)) {
      std::fprintf(stderr, "n=%lld: |recursive - flat| = %g exceeds %g\n",
                   static_cast<long long>(s), diff, tol);
      correct = false;
    }
    if (s > cutoff && recursive.stats().recursive_runs == runs0) {
      std::fprintf(stderr, "n=%lld: recursive engine never descended\n",
                   static_cast<long long>(s));
      correct = false;
    }

    const double t_flat = best_time_of(reps, [&] { run(flat, c_flat); });
    const double t_rec = best_time_of(reps, [&] { run(recursive, c_rec); });
    const double ratio = t_flat / t_rec;
    if (s == 1024) ratio_1024 = ratio;
    table.add_row({"flat-vs-rec", TablePrinter::fmt((long long)s),
                   TablePrinter::fmt(effective_gflops(s, s, s, t_flat), 1),
                   TablePrinter::fmt(effective_gflops(s, s, s, t_rec), 1),
                   TablePrinter::fmt(ratio, 2)});
  }
  emit(table, opts, "recursive");

  std::printf("\nrecursive path correct (bitwise-deterministic, matches "
              "flat): %s\n", correct ? "yes" : "NO");
  if (ratio_1024 > 0) {
    // Informational, not a gate: needs real cores; single runs on shared
    // runners are noisy (bench-smoke tracks the trend across PRs).
    std::printf("rec/flat at n=1024: %.2fx (claim: >= 1.0x on multi-core "
                "hosts)\n", ratio_1024);
  }
  return correct ? 0 : 1;
}
