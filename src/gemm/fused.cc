#include "src/gemm/fused.h"

#include <cassert>

#include "src/core/task_pool.h"
#include "src/gemm/kernel.h"
#include "src/gemm/pack.h"

namespace fmm {

template <typename T>
void GemmWorkspaceT<T>::ensure(const BlockingParams& bp, int num_threads,
                               int num_a, int num_b, int num_c) {
  b_packed_.resize(static_cast<std::size_t>(bp.kc) * bp.nc);
  if (static_cast<int>(a_tiles_.size()) < num_threads) {
    a_tiles_.resize(num_threads);
  }
  for (auto& tile : a_tiles_) {
    tile.resize(static_cast<std::size_t>(bp.mc) * bp.kc);
  }
  if (static_cast<int>(term_scratch_.size()) < num_threads) {
    term_scratch_.resize(num_threads);
  }
  for (auto& ts : term_scratch_) {
    // Grow-only: shrinking a vector never releases capacity, so steady
    // state does no allocation no matter how call shapes interleave.
    if (static_cast<int>(ts.a.size()) < num_a) ts.a.resize(num_a);
    if (static_cast<int>(ts.b.size()) < num_b) ts.b.resize(num_b);
    if (static_cast<int>(ts.c.size()) < num_c) ts.c.resize(num_c);
  }
}

template class GemmWorkspaceT<double>;
template class GemmWorkspaceT<float>;

int resolve_threads(const GemmConfig& cfg) {
  return cfg.num_threads > 0 ? cfg.num_threads
                             : TaskPool::current().workers();
}

namespace {

// Shifts every term's base pointer by a (row, col) block offset.
template <typename T>
void offset_terms(const LinTermT<T>* in, int n, index_t ld, index_t row,
                  index_t col, LinTermT<T>* out) {
  for (int i = 0; i < n; ++i) {
    out[i].ptr = in[i].ptr + row * ld + col;
    out[i].coeff = in[i].coeff;
  }
}

}  // namespace

template <typename T>
void fused_multiply(index_t m, index_t n, index_t k,
                    const LinTermT<T>* a_terms, int num_a, index_t lda,
                    const LinTermT<T>* b_terms, int num_b, index_t ldb,
                    const OutTermT<T>* c_terms, int num_c, index_t ldc,
                    GemmWorkspaceT<T>& ws, const GemmConfig& cfg,
                    bool accumulate) {
  assert(cfg.valid());
  if (m <= 0 || n <= 0 || num_c == 0) return;
  if (k <= 0) {
    if (!accumulate) {
      // C = 0 * anything: the overwrite contract still must clear targets.
      for (int t = 0; t < num_c; ++t) {
        for (index_t i = 0; i < m; ++i) {
          T* row = c_terms[t].ptr + i * ldc;
          for (index_t j = 0; j < n; ++j) row[j] = T(0);
        }
      }
    }
    return;
  }

  const BlockingParams bp = resolve_blocking(cfg, DTypeOf<T>::value);
  const int mr = bp.mr;
  const int nr = bp.nr;
  const auto ukr = kernel_fn<T>(*bp.kernel);
  assert(ukr != nullptr);
  const int nth = resolve_threads(cfg);
  ws.ensure(bp, nth, num_a, num_b, num_c);
  T* bpack = ws.b_packed();

  // Parallelization mode (paper §5.1 / Smith et al. IPDPS'14): by default
  // the 3rd loop around the micro-kernel (i_c) carries the data
  // parallelism.  The i_c blocks split m evenly, and into at least one
  // block per thread when m allows (cheap: a thinner A-tile still lives
  // comfortably in L2); only when even mR-high tiles cannot feed half the
  // threads fall back to parallelizing the 2nd loop (j_r) with a
  // cooperatively packed shared A-tile, which costs two barriers per tile.
  const index_t mc_use = even_block(m, bp.mc, mr, nth);
  const index_t ic_blocks = ceil_div(m, mc_use);
  const bool jr_parallel =
      nth > 1 && ic_blocks < std::max<index_t>(2, nth / 2);

  // One fork for the whole loop nest: the team's helpers serve every
  // for_each below, and each for_each returning is the barrier that
  // publishes what it packed.
  const index_t max_chunks =
      std::max(ceil_div(std::min<index_t>(n, bp.nc), nr), ic_blocks);
  TaskPool::current().parallel_region(nth, max_chunks, [&](ParallelTeam& team) {
    // Per-participant scratch, pre-sized by ws.ensure; the caller's holds
    // the term lists a whole loop shares.
    LinTermT<T>* b_shared = ws.terms(0).b.data();
    LinTermT<T>* a_shared = ws.terms(0).a.data();

    // 5th loop: jc over column blocks of width nc.
    for (index_t jc = 0; jc < n; jc += bp.nc) {
      const index_t nc_eff = std::min<index_t>(bp.nc, n - jc);
      // 4th loop: pc over the shared dimension in steps of kc.
      for (index_t pc = 0; pc < k; pc += bp.kc) {
        const index_t kc_eff = std::min<index_t>(bp.kc, k - pc);
        const bool acc_block = accumulate || pc > 0;

        // One packed A-tile against packed B~ columns [jr_begin, jr_end).
        auto macro_kernel = [&](const T* apack, index_t ic, index_t mc_eff,
                                index_t jr_begin, index_t jr_end,
                                OutTermT<T>* c_local) {
          alignas(64) T acc[kMaxAccElemsOf<T>];
          for (index_t jr = jr_begin; jr < jr_end; jr += nr) {
            const index_t n_sub = std::min<index_t>(nr, jr_end - jr);
            const T* bpanel = bpack + (jr / nr) * nr * kc_eff;
            for (index_t ir = 0; ir < mc_eff; ir += mr) {
              const index_t m_sub = std::min<index_t>(mr, mc_eff - ir);
              ukr(kc_eff, apack + (ir / mr) * mr * kc_eff, bpanel, acc);
              for (int t = 0; t < num_c; ++t) {
                c_local[t].ptr = c_terms[t].ptr + (ic + ir) * ldc + (jc + jr);
                c_local[t].coeff = c_terms[t].coeff;
              }
              epilogue_update(*bp.kernel, c_local, num_c, ldc, m_sub, n_sub,
                              acc, acc_block);
            }
          }
        };

        // Cooperative pack of B~ = sum_j v_j B_j[pc:, jc:], one nr-wide
        // panel per index.
        offset_terms<T>(b_terms, num_b, ldb, pc, jc, b_shared);
        const index_t b_panels = ceil_div(nc_eff, nr);
        team.for_each(b_panels, ceil_div(b_panels, nth), [&](index_t q, int) {
          pack_b_panel<T>(b_shared, num_b, ldb, kc_eff, nc_eff, nr, q,
                          bpack + q * nr * kc_eff);
        });

        if (!jr_parallel) {
          // 3rd loop (i_c) carries the parallelism; A-tiles are private to
          // the participant.
          team.for_each(ic_blocks, 1, [&](index_t icb, int tid) {
            const index_t ic = icb * mc_use;
            const index_t mc_eff = std::min<index_t>(mc_use, m - ic);
            LinTermT<T>* a_local = ws.terms(tid).a.data();
            offset_terms<T>(a_terms, num_a, lda, ic, pc, a_local);
            pack_a<T>(a_local, num_a, lda, mc_eff, kc_eff, mr, ws.a_tile(tid));
            macro_kernel(ws.a_tile(tid), ic, mc_eff, 0, nc_eff,
                         ws.terms(tid).c.data());
          });
          continue;
        }
        // 2nd-loop (j_r) parallel mode: i_c runs sequentially, each tile
        // packed cooperatively into the shared buffer, then the j_r panels
        // are divided among the participants.
        T* apack = ws.a_tile(0);
        for (index_t ic = 0; ic < m; ic += mc_use) {
          const index_t mc_eff = std::min<index_t>(mc_use, m - ic);
          offset_terms<T>(a_terms, num_a, lda, ic, pc, a_shared);
          const index_t a_panels = ceil_div(mc_eff, mr);
          team.for_each(a_panels, ceil_div(a_panels, nth), [&](index_t p, int) {
            pack_a_panel<T>(a_shared, num_a, lda, mc_eff, kc_eff, mr, p,
                            apack + p * mr * kc_eff);
          });
          team.for_each(b_panels, 2, [&](index_t q, int tid) {
            macro_kernel(apack, ic, mc_eff, q * nr,
                         std::min<index_t>((q + 1) * nr, nc_eff),
                         ws.terms(tid).c.data());
          });
        }
      }
    }
  });
}

template void fused_multiply<double>(
    index_t, index_t, index_t, const LinTerm*, int, index_t, const LinTerm*,
    int, index_t, const OutTerm*, int, index_t, GemmWorkspace&,
    const GemmConfig&, bool);
template void fused_multiply<float>(
    index_t, index_t, index_t, const LinTermF32*, int, index_t,
    const LinTermF32*, int, index_t, const OutTermF32*, int, index_t,
    GemmWorkspaceF32&, const GemmConfig&, bool);

}  // namespace fmm
