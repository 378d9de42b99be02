// Domain example: tiled LU factorization on the task pool's fork-join
// teams, with every Schur-complement update running through the FMM
// poly-algorithm.
//
// The matrix is tiled into T x T blocks and each step k of the classic
// right-looking factorization is three data-parallel phases:
//
//   getrf(k)     : unblocked LU of A(k,k)                (one participant)
//   trsm         : every tile of row k and column k, in parallel:
//                  L(k,k) X = A(k,j) for the row panel (j > k), and
//                  X U(k,k) = A(i,k) for the column panel (i > k), whose
//                  -A(i,k) is stashed in a scratch block
//   gemm         : every trailing tile in parallel,
//                  A(i,j) += (-A(i,k)) * A(k,j)         (i, j > k)
//
// The whole factorization is one task of the pool opening one region; the
// end of each ParallelTeam::for_each is the barrier between phases.  The
// gemm phase calls Engine::multiply from pool workers — the engine runs
// those inline (nested calls never block on the pool) with the
// model-selected FMM algorithm for the b x b x b block shape.
//
//   $ ./lu_solver --n 2048 --block 256 --workers 0
//
// The scratch negation exists because the engine computes C += A * B and
// several gemm tiles read A(i,k) at once — negating it in place would
// race; negating once, into the scratch, is part of the column solve.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "src/core/engine.h"
#include "src/core/task_pool.h"
#include "src/linalg/ops.h"
#include "src/util/cli.h"
#include "src/util/timer.h"

using namespace fmm;

namespace {

// Unblocked LU (no pivoting) on the diagonal block.
void lu_unblocked(MatView a) {
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    const double piv = a(j, j);
    for (index_t i = j + 1; i < n; ++i) {
      a(i, j) /= piv;
      const double lij = a(i, j);
      double* arow = a.row(i);
      const double* prow = a.row(j);
      for (index_t p = j + 1; p < n; ++p) arow[p] -= lij * prow[p];
    }
  }
}

// Solves L11 * X = A12 in place (unit lower triangular L11).
void trsm_lower_unit(ConstMatView l, MatView x) {
  for (index_t i = 0; i < x.rows(); ++i) {
    for (index_t p = 0; p < i; ++p) {
      const double lip = l(i, p);
      double* xr = x.row(i);
      const double* xp = x.row(p);
      for (index_t j = 0; j < x.cols(); ++j) xr[j] -= lip * xp[j];
    }
  }
}

// Solves X * U11 = A21 in place (upper triangular U11).
void trsm_upper(ConstMatView u, MatView x) {
  for (index_t j = 0; j < x.cols(); ++j) {
    const double ujj = u(j, j);
    for (index_t i = 0; i < x.rows(); ++i) {
      double s = x(i, j);
      for (index_t p = 0; p < j; ++p) s -= x(i, p) * u(p, j);
      x(i, j) = s / ujj;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const index_t n = cli.get_int("n", 2048, "matrix dimension");
  const index_t nb = cli.get_int("block", 256, "tile size");
  const int workers =
      cli.get_int("workers", 0, "task-pool workers (0 = all cores)");
  cli.finish();

  // Diagonally dominant random matrix: LU without pivoting is stable.
  Matrix a = Matrix::random(n, n, 42);
  for (index_t i = 0; i < n; ++i) a(i, i) += 2.0 * n;
  Matrix orig = a.clone();
  // Scratch for the negated column panels (-L blocks feeding the updates).
  Matrix neg = Matrix::zero(n, n);

  const index_t T = (n + nb - 1) / nb;  // tile count per dimension
  auto row0 = [&](index_t i) { return i * nb; };
  auto rows = [&](index_t i) { return std::min(nb, n - i * nb); };
  auto block = [&](Matrix& m, index_t i, index_t j) {
    return m.view().block(row0(i), row0(j), rows(i), rows(j));
  };

  // The engine's multiplies run on the team's participants, one tile
  // each: internal threading stays off and the pool provides all the
  // parallelism.
  Engine::Options eopts;
  eopts.config.num_threads = 1;
  Engine engine(eopts);
  TaskPool pool(workers);

  std::printf("tiled fork-join LU, n=%lld, tile=%lld (%lldx%lld blocks), "
              "%d pool workers\n",
              (long long)n, (long long)nb, (long long)T, (long long)T,
              pool.workers());

  Timer total;
  std::atomic<int> failed_updates{0};
  const Status run = pool.submit([&] {
    pool.parallel_region(0, std::max<index_t>(1, (T - 1) * (T - 1)),
                         [&](ParallelTeam& team) {
      for (index_t k = 0; k < T; ++k) {
        lu_unblocked(block(a, k, k));
        const index_t rest = T - k - 1;
        team.for_each(2 * rest, 1, [&](std::int64_t t, int) {
          if (t < rest) {  // row panel tile (k, j)
            trsm_lower_unit(block(a, k, k), block(a, k, k + 1 + t));
            return;
          }
          const index_t i = k + 1 + (t - rest);  // column panel tile (i, k)
          MatView l = block(a, i, k);
          trsm_upper(block(a, k, k), l);
          MatView d = block(neg, i, k);
          for (index_t r = 0; r < l.rows(); ++r) {
            const double* s = l.row(r);
            double* dst = d.row(r);
            for (index_t c = 0; c < l.cols(); ++c) dst[c] = -s[c];
          }
        });
        team.for_each(rest * rest, 1, [&](std::int64_t t, int) {
          const index_t i = k + 1 + t / rest, j = k + 1 + t % rest;
          // A(i,j) += (-L(i,k)) * U(k,j), model-selected per block shape;
          // runs inline (this is a pool worker).
          const Status st =
              engine.multiply(block(a, i, j), block(neg, i, k), block(a, k, j));
          if (!st.ok()) {
            failed_updates.fetch_add(1);
            std::fprintf(stderr, "update (%lld,%lld,%lld): %s\n",
                         (long long)k, (long long)i, (long long)j,
                         st.to_string().c_str());
          }
        });
      }
    });
  }).status();
  const double total_s = total.seconds();
  if (!run.ok() || failed_updates.load() != 0) {
    std::fprintf(stderr, "factorization failed: %s\n",
                 run.to_string().c_str());
    return 1;
  }

  // Validate: reconstruct L*U and compare with the original matrix.
  Matrix l = Matrix::zero(n, n);
  Matrix u = Matrix::zero(n, n);
  for (index_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (index_t j = 0; j < n; ++j) {
      if (j < i) l(i, j) = a(i, j);
      else u(i, j) = a(i, j);
    }
  }
  Matrix lu = Matrix::zero(n, n);
  GemmWorkspace ws;
  gemm(lu.view(), l.view(), u.view(), ws, GemmConfig{});
  const double err = rel_error_fro(lu.view(), orig.view());

  std::printf("factorization time : %.3f s (%.2f effective GFLOPS for the "
              "2/3 n^3 LU)\n", total_s, 2.0 / 3.0 * n * n * n / total_s * 1e-9);
  std::printf("||LU - A|| / ||A|| : %.3e\n", err);
  return err < 1e-12 ? 0 : 1;
}
