#include "src/core/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <thread>

#include "src/core/task_pool.h"
#include "src/gemm/kernel.h"
#include "src/gemm/pack.h"
#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace fmm {
namespace {

// Parallel C_view += w * M over rows (the scatter of AB/Naive variants).
template <typename T>
void scaled_add(int threads, double w, ConstMatViewT<T> src, MatViewT<T> dst) {
  const index_t rows = src.rows(), cols = src.cols();
  const T c = static_cast<T>(w);
  TaskPool::current().parallel_for(threads, rows, ceil_div(rows, threads),
                                   [&](index_t i, int) {
    const T* s = src.row(i);
    T* d = dst.row(i);
    for (index_t j = 0; j < cols; ++j) d[j] += c * s[j];
  });
}

// Parallel dst = Σ terms (the explicit operand sums of the Naive variant).
template <typename T>
void lin_comb(int threads, const LinTermT<T>* terms, int num_terms,
              index_t lds, index_t rows, index_t cols, MatViewT<T> dst) {
  TaskPool::current().parallel_for(threads, rows, ceil_div(rows, threads),
                                   [&](index_t i, int) {
    T* d = dst.row(i);
    {
      const T* s = terms[0].ptr + i * lds;
      const T c = static_cast<T>(terms[0].coeff);
      for (index_t j = 0; j < cols; ++j) d[j] = c * s[j];
    }
    for (int t = 1; t < num_terms; ++t) {
      const T* s = terms[t].ptr + i * lds;
      const T c = static_cast<T>(terms[t].coeff);
      for (index_t j = 0; j < cols; ++j) d[j] += c * s[j];
    }
  });
}

}  // namespace

std::vector<PeelPiece> peel_pieces(index_t m, index_t n, index_t k,
                                   index_t m1, index_t n1, index_t k1) {
  std::vector<PeelPiece> out;
  // C[0:m1, 0:n1] += A[0:m1, k1:k] B[k1:k, 0:n1]   (k fringe)
  if (k > k1 && m1 > 0 && n1 > 0) out.push_back({0, m1, k1, k, 0, n1});
  // C[0:m1, n1:n] += A[0:m1, 0:k] B[0:k, n1:n]     (n fringe, full k)
  if (n > n1 && m1 > 0) out.push_back({0, m1, 0, k, n1, n});
  // C[m1:m, 0:n] += A[m1:m, 0:k] B[0:k, 0:n]       (m fringe, full k, n)
  if (m > m1) out.push_back({m1, m, 0, k, 0, n});
  return out;
}

// Per-lease workspace: everything one in-flight multiply mutates.  The
// temporaries are dense AlignedBuffers viewed at the interior submatrix
// shape (Matrix stays double-only; executors are typed).
template <typename T>
struct FmmExecutorT<T>::Slot {
  GemmWorkspaceT<T> ws;
  AlignedBuffer<T> m_buf;  // M_r (ms x ns)   (AB, Naive)
  AlignedBuffer<T> ta;     // Σ u_i A_i (ms x ks)  (Naive)
  AlignedBuffer<T> tb;     // Σ v_j B_j (ks x ns)  (Naive)
  // Pre-sized pointer/coefficient staging for one product r.
  std::vector<LinTermT<T>> a_terms, b_terms;
  std::vector<OutTermT<T>> c_terms;
};

template <typename T>
FmmExecutorT<T>::FmmExecutorT(const Plan& plan, index_t m, index_t n,
                              index_t k, const GemmConfig& cfg, int slots)
    : plan_(plan), m_(m), n_(n), k_(k) {
  assert(m >= 0 && n >= 0 && k >= 0);

  obs::TraceScope compile_span("executor.compile", "executor");
  if (compile_span.active()) {
    compile_span.set_argf("%lldx%lldx%lld", static_cast<long long>(m),
                          static_cast<long long>(n),
                          static_cast<long long>(k));
  }

  // The executor's element type is authoritative: a plan handed to the f32
  // executor always executes (and is keyed) as f32.
  plan_.dtype = DTypeOf<T>::value;

  // Resolve the blocking once, with the plan's kernel threaded by value —
  // no GemmConfig is ever mutated after this constructor returns.
  GemmConfig resolve_cfg = cfg;
  if (plan_.kernel != nullptr) resolve_cfg.kernel = plan_.kernel;
  bp_ = resolve_blocking(resolve_cfg, plan_.dtype);
  // Clamp the cache blocks to the problem so a small-shape executor carries
  // small workspaces.  The clamps never change the loop geometry (each
  // clamped block still covers its dimension in one step whenever the
  // unclamped one did), so arithmetic stays bitwise identical to the
  // unclamped blocking.
  bp_.mc = std::min<index_t>(bp_.mc, round_up(std::max<index_t>(m_, 1), bp_.mr));
  bp_.kc = std::min<index_t>(bp_.kc, std::max<index_t>(k_, 1));
  bp_.nc = std::min<index_t>(bp_.nc, round_up(std::max<index_t>(n_, 1), bp_.nr));
  plan_.kernel = bp_.kernel;  // record what actually runs (name(), plan())

  frozen_cfg_ = cfg;
  frozen_cfg_.kernel = bp_.kernel;
  frozen_cfg_.mc = static_cast<int>(bp_.mc);
  frozen_cfg_.kc = static_cast<int>(bp_.kc);
  frozen_cfg_.nc = static_cast<int>(bp_.nc);
  nth_ = resolve_threads(cfg);
  frozen_cfg_.num_threads = nth_;
  serial_cfg_ = frozen_cfg_;
  serial_cfg_.num_threads = 1;

  // The divisible interior and the fringe GEMMs completing the product.
  m1_ = m_ - m_ % plan_.Mt();
  k1_ = k_ - k_ % plan_.Kt();
  n1_ = n_ - n_ % plan_.Nt();
  if (m1_ <= 0 || k1_ <= 0 || n1_ <= 0) m1_ = k1_ = n1_ = 0;
  for (const PeelPiece& p : peel_pieces(m_, n_, k_, m1_, n1_, k1_)) {
    if (p.m1 > p.m0 && p.n1 > p.n0 && p.k1 > p.k0) peel_.push_back(p);
  }

  // Compile the per-r non-zero term lists of U, V, W into element offsets
  // (block row/col times submatrix size; strides are applied at run time,
  // so operands with different strides can share one executor).
  const FmmAlgorithm& alg = plan_.flat;
  const int R = alg.R;
  a_ofs_.assign(static_cast<std::size_t>(R) + 1, 0);
  b_ofs_.assign(static_cast<std::size_t>(R) + 1, 0);
  c_ofs_.assign(static_cast<std::size_t>(R) + 1, 0);
  if (m1_ > 0) {
    ms_ = m1_ / alg.mt;
    ks_ = k1_ / alg.kt;
    ns_ = n1_ / alg.nt;
    for (int r = 0; r < R; ++r) {
      for (int i = 0; i < alg.rows_u(); ++i) {
        const double coef = alg.u(i, r);
        if (coef != 0.0) {
          a_refs_.push_back({(i / alg.kt) * ms_, (i % alg.kt) * ks_, coef});
        }
      }
      for (int j = 0; j < alg.rows_v(); ++j) {
        const double coef = alg.v(j, r);
        if (coef != 0.0) {
          b_refs_.push_back({(j / alg.nt) * ks_, (j % alg.nt) * ns_, coef});
        }
      }
      for (int p = 0; p < alg.rows_w(); ++p) {
        const double coef = alg.w(p, r);
        if (coef != 0.0) {
          c_refs_.push_back({(p / alg.nt) * ms_, (p % alg.nt) * ns_, coef});
        }
      }
      a_ofs_[r + 1] = static_cast<int>(a_refs_.size());
      b_ofs_[r + 1] = static_cast<int>(b_refs_.size());
      c_ofs_[r + 1] = static_cast<int>(c_refs_.size());
      max_a_ = std::max(max_a_, a_ofs_[r + 1] - a_ofs_[r]);
      max_b_ = std::max(max_b_, b_ofs_[r + 1] - b_ofs_[r]);
      max_c_ = std::max(max_c_, c_ofs_[r + 1] - c_ofs_[r]);
      assert(max_a_ > 0 && max_b_ > 0 && max_c_ > 0);
    }
  }

  // Shared-B batch fast path: viable when the interior covers the whole
  // problem, the ABC variant runs (no M_r scatter), and each per-r packed
  // B~ panel is a single cache block, within a fixed memory budget.
  shared_b_possible_ = plan_.variant == Variant::kABC && m1_ == m_ &&
                       n1_ == n_ && k1_ == k_ && m1_ > 0 && ks_ <= bp_.kc &&
                       ns_ <= bp_.nc;
  if (shared_b_possible_) {
    shared_b_panel_elems_ = round_up(ns_, bp_.nr) * ks_;
    constexpr index_t kSharedBBudgetElems = (32ll << 20) / sizeof(T);
    if (shared_b_panel_elems_ * R > kSharedBBudgetElems) {
      shared_b_possible_ = false;
      shared_b_panel_elems_ = 0;
    } else {
      shared_b_.resize(static_cast<std::size_t>(shared_b_panel_elems_) * R);
    }
  }

  // The slot pool: `slots` leases for concurrent host callers (default:
  // the thread count, which also serves run_batch's item-parallel mode).
  // Every buffer a run can touch is sized here; run() allocates nothing.
  const int pool = slots > 0 ? slots : nth_;
  slots_.reserve(static_cast<std::size_t>(pool));
  for (int s = 0; s < pool; ++s) {
    slots_.push_back(make_slot());
    free_.push_back(slots_.back().get());
  }
}

template <typename T>
auto FmmExecutorT<T>::make_slot() -> std::unique_ptr<Slot> {
  auto slot = std::make_unique<Slot>();
  slot->ws.ensure(bp_, nth_, std::max(max_a_, 1), std::max(max_b_, 1),
                  std::max(max_c_, 1));
  if (m1_ > 0 && plan_.variant != Variant::kABC) {
    slot->m_buf.resize(static_cast<std::size_t>(ms_) * ns_);
  }
  if (m1_ > 0 && plan_.variant == Variant::kNaive) {
    slot->ta.resize(static_cast<std::size_t>(ms_) * ks_);
    slot->tb.resize(static_cast<std::size_t>(ks_) * ns_);
  }
  slot->a_terms.resize(static_cast<std::size_t>(std::max(max_a_, 1)));
  slot->b_terms.resize(static_cast<std::size_t>(std::max(max_b_, 1)));
  slot->c_terms.resize(static_cast<std::size_t>(std::max(max_c_, 1)));
  return slot;
}

template <typename T>
void FmmExecutorT<T>::ensure_slots(int target) {
  if (target <= 0) return;
  // Cap the growth: slots are full workspace sets, and a pool wider than
  // the host's concurrent-leaf fan-out is pure memory waste.
  target = std::min(target, 64);
  std::size_t added = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    while (slots_.size() < static_cast<std::size_t>(target)) {
      slots_.push_back(make_slot());
      free_.push_back(slots_.back().get());
      ++added;
    }
  }
  if (added > 0) cv_.notify_all();
}

template <typename T>
FmmExecutorT<T>::~FmmExecutorT() = default;

template <typename T>
std::string FmmExecutorT<T>::name() const { return plan_.name(); }

template <typename T>
auto FmmExecutorT<T>::acquire_slot() -> Slot* {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !free_.empty(); });
  Slot* s = free_.back();
  free_.pop_back();
  return s;
}

template <typename T>
auto FmmExecutorT<T>::try_acquire_slot() -> Slot* {
  std::lock_guard<std::mutex> lk(mu_);
  if (free_.empty()) return nullptr;
  Slot* s = free_.back();
  free_.pop_back();
  return s;
}

template <typename T>
void FmmExecutorT<T>::release_slot(Slot* slot) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(slot);
  }
  cv_.notify_one();
}

template <typename T>
void FmmExecutorT<T>::run_on_slot(Slot& slot, MatViewT<T> c,
                                  ConstMatViewT<T> a, ConstMatViewT<T> b,
                                  const GemmConfig& cfg) {
  assert(c.rows() == m_ && c.cols() == n_ && a.rows() == m_ && a.cols() == k_ &&
         b.rows() == k_ && b.cols() == n_);
  if (m_ == 0 || n_ == 0) return;

  if (m1_ > 0) {
    const index_t lda = a.stride(), ldb = b.stride(), ldc = c.stride();
    const int R = plan_.R();
    LinTermT<T>* a_terms = slot.a_terms.data();
    LinTermT<T>* b_terms = slot.b_terms.data();
    OutTermT<T>* c_terms = slot.c_terms.data();
    const MatViewT<T> m_view(slot.m_buf.data(), ms_, ns_, ns_);
    for (int r = 0; r < R; ++r) {
      const int na = a_ofs_[r + 1] - a_ofs_[r];
      const int nb = b_ofs_[r + 1] - b_ofs_[r];
      const int nc = c_ofs_[r + 1] - c_ofs_[r];
      for (int i = 0; i < na; ++i) {
        const TermRef& t = a_refs_[static_cast<std::size_t>(a_ofs_[r] + i)];
        a_terms[i] = {a.data() + t.row * lda + t.col, t.coeff};
      }
      for (int j = 0; j < nb; ++j) {
        const TermRef& t = b_refs_[static_cast<std::size_t>(b_ofs_[r] + j)];
        b_terms[j] = {b.data() + t.row * ldb + t.col, t.coeff};
      }
      for (int p = 0; p < nc; ++p) {
        const TermRef& t = c_refs_[static_cast<std::size_t>(c_ofs_[r] + p)];
        c_terms[p] = {c.data() + t.row * ldc + t.col, t.coeff};
      }

      switch (plan_.variant) {
        case Variant::kABC: {
          fused_multiply<T>(ms_, ns_, ks_, a_terms, na, lda, b_terms, nb, ldb,
                            c_terms, nc, ldc, slot.ws, cfg);
          break;
        }
        case Variant::kAB: {
          // Packing still absorbs the A/B sums; M_r is an explicit buffer
          // (overwritten by the first k-block — no zero-fill pass).
          OutTermT<T> m_out{slot.m_buf.data(), 1.0};
          fused_multiply<T>(ms_, ns_, ks_, a_terms, na, lda, b_terms, nb, ldb,
                            &m_out, 1, ns_, slot.ws, cfg,
                            /*accumulate=*/false);
          for (int p = 0; p < nc; ++p) {
            scaled_add<T>(cfg.num_threads, c_terms[p].coeff, m_view,
                          MatViewT<T>(c_terms[p].ptr, ms_, ns_, ldc));
          }
          break;
        }
        case Variant::kNaive: {
          // Explicit temporaries for the operand sums, then a plain GEMM
          // overwriting M_r.
          lin_comb<T>(cfg.num_threads, a_terms, na, lda, ms_, ks_,
                      MatViewT<T>(slot.ta.data(), ms_, ks_, ks_));
          lin_comb<T>(cfg.num_threads, b_terms, nb, ldb, ks_, ns_,
                      MatViewT<T>(slot.tb.data(), ks_, ns_, ns_));
          LinTermT<T> ta{slot.ta.data(), 1.0};
          LinTermT<T> tb{slot.tb.data(), 1.0};
          OutTermT<T> m_out{slot.m_buf.data(), 1.0};
          fused_multiply<T>(ms_, ns_, ks_, &ta, 1, ks_, &tb, 1, ns_, &m_out,
                            1, ns_, slot.ws, cfg, /*accumulate=*/false);
          for (int p = 0; p < nc; ++p) {
            scaled_add<T>(cfg.num_threads, c_terms[p].coeff, m_view,
                          MatViewT<T>(c_terms[p].ptr, ms_, ns_, ldc));
          }
          break;
        }
      }
    }
  }

  for (const PeelPiece& p : peel_) {
    gemm(c.block(p.m0, p.n0, p.m1 - p.m0, p.n1 - p.n0),
         a.block(p.m0, p.k0, p.m1 - p.m0, p.k1 - p.k0),
         b.block(p.k0, p.n0, p.k1 - p.k0, p.n1 - p.n0), slot.ws, cfg);
  }
}

template <typename T>
void FmmExecutorT<T>::run_batch(const BatchAccessT<T>& batch) {
  const std::size_t count = batch.count;
  if (count == 0) return;
#ifndef NDEBUG
  for (std::size_t i = 0; i < count; ++i) {
    const BatchItemT<T> it = batch.at(i);
    assert(it.c.rows() == m_ && it.c.cols() == n_ && it.a.cols() == k_);
    // Two items writing one C race silently (items execute concurrently in
    // the item-parallel regimes).  Debug builds reject such batches.
    for (std::size_t j = i + 1; j < count; ++j) {
      assert(it.c.data() != batch.at(j).c.data() &&
             "run_batch: two batch items write the same C");
    }
  }
#endif
  // Shared-B fast path first: packing every B~_r once pays on any thread
  // count (it removes (count - 1) * R panel packs), and the path
  // parallelizes across r and items on its own.  One batch at a time may
  // own the shared panels; a concurrent caller falls through to the
  // generic paths below.
  std::unique_lock<std::mutex> shared_lk(batch_mu_, std::defer_lock);
  const bool prepacked = count > 1 && shared_b_possible_ &&
                         batch.shares_b() && shared_lk.try_lock();

  // Small-shape criterion, shared with the fused driver's mode switch:
  // when one multiply yields fewer i_c blocks than threads, internal data
  // parallelism runs in the barrier-heavy fallback — make the independent
  // items the parallel dimension instead, each executed serially.  The
  // fused driver sees the interior *submatrix* rows (ms_), not m_; shapes
  // with no interior are all peel, which sees m_.
  const index_t rows_seen = m1_ > 0 ? ms_ : std::max<index_t>(m_, 1);
  const bool item_parallel =
      count > 1 && nth_ > 1 && ceil_div(rows_seen, bp_.mc) < nth_;

  // The slot wait stays outside the timed window (see set_timing_hook).
  Lease mine{this, acquire_slot()};
  Timer t;
  if (!prepacked && !item_parallel) {
    for (std::size_t i = 0; i < count; ++i) {
      const BatchItemT<T> it = batch.at(i);
      run_on_slot(*mine.s, it.c, it.a, it.b, frozen_cfg_);
    }
  } else {
    // nth_ lanes drain one item queue, each on its own slot lease.  A lane
    // that cannot lease a slot (concurrent callers hold them) idles; lane
    // 0 uses the slot leased *blocking* above, which guarantees progress.
    // Prepacked, lane 0 first packs the per-r B~ panels in r order,
    // publishing each through panels_ready; the other lanes consume items
    // at once, each item's r loop waiting only for its panel.  Items still
    // walk r in order, so results stay bitwise identical to run().
    std::atomic<int> panels_ready{0};
    std::atomic<std::int64_t> next{0};
    const std::int64_t total = static_cast<std::int64_t>(count);
    TaskPool::current().parallel_for(nth_, nth_, 1, [&](index_t lane, int) {
      Lease lease{this, nullptr};
      Slot* s = mine.s;
      if (lane != 0) s = lease.s = try_acquire_slot();
      if (prepacked && lane == 0) {
        pack_shared_b(*s, batch.at(0).b, panels_ready);
      }
      if (s == nullptr) return;
      for (std::int64_t i = next.fetch_add(1); i < total;
           i = next.fetch_add(1)) {
        const BatchItemT<T> it = batch.at(static_cast<std::size_t>(i));
        if (prepacked) {
          run_item_prepacked(*s, it, panels_ready);
        } else {
          run_on_slot(*s, it.c, it.a, it.b, serial_cfg_);
        }
      }
    });
  }
  if (hook_) hook_(make_observation(t.seconds(), count));
}

template <typename T>
void FmmExecutorT<T>::pack_shared_b(Slot& slot, ConstMatViewT<T> b,
                                    std::atomic<int>& panels_ready) {
  const index_t ldb = b.stride();
  for (int r = 0; r < plan_.R(); ++r) {
    const int nb = b_ofs_[r + 1] - b_ofs_[r];
    for (int j = 0; j < nb; ++j) {
      const TermRef& t = b_refs_[static_cast<std::size_t>(b_ofs_[r] + j)];
      slot.b_terms[static_cast<std::size_t>(j)] = {
          b.data() + t.row * ldb + t.col, t.coeff};
    }
    pack_b<T>(slot.b_terms.data(), nb, ldb, ks_, ns_, bp_.nr,
              shared_b_.data() + r * shared_b_panel_elems_);
    panels_ready.store(r + 1, std::memory_order_release);
  }
}

// One item of a shared-B batch: the serial ABC interior against the per-r
// B~ panels, gated on `panels_ready` so it can start before the packer
// finishes.  Loop structure and arithmetic order match the serial fused
// driver exactly (single jc/pc block), so results are bitwise identical to
// run().
template <typename T>
void FmmExecutorT<T>::run_item_prepacked(
    Slot& slot, const BatchItemT<T>& item,
    const std::atomic<int>& panels_ready) {
  assert(item.c.rows() == m_ && item.c.cols() == n_ && item.a.cols() == k_);
  const index_t lda = item.a.stride(), ldc = item.c.stride();
  const int mr = bp_.mr, nr = bp_.nr;
  const index_t mc_use = even_block(ms_, bp_.mc, mr, 1);
  const auto ukr = kernel_fn<T>(*bp_.kernel);
  T* apack = slot.ws.a_tile(0);
  typename GemmWorkspaceT<T>::TermScratch& scratch = slot.ws.terms(0);
  LinTermT<T>* a_local = scratch.a.data();
  OutTermT<T>* c_local = scratch.c.data();
  alignas(64) T acc[kMaxAccElemsOf<T>];

  const int R = plan_.R();
  for (int r = 0; r < R; ++r) {
    // The acquire pairs with the packer's release: once panels_ready > r,
    // panel r's bytes are visible.  The wait is bounded by one panel pack
    // (panels publish in the same r order this loop consumes).
    while (panels_ready.load(std::memory_order_acquire) <= r) {
      std::this_thread::yield();
    }
    const int na = a_ofs_[r + 1] - a_ofs_[r];
    const int nc = c_ofs_[r + 1] - c_ofs_[r];
    for (int i = 0; i < na; ++i) {
      const TermRef& t = a_refs_[static_cast<std::size_t>(a_ofs_[r] + i)];
      slot.a_terms[static_cast<std::size_t>(i)] = {
          item.a.data() + t.row * lda + t.col, t.coeff};
    }
    for (int p = 0; p < nc; ++p) {
      const TermRef& t = c_refs_[static_cast<std::size_t>(c_ofs_[r] + p)];
      slot.c_terms[static_cast<std::size_t>(p)] = {
          item.c.data() + t.row * ldc + t.col, t.coeff};
    }
    const T* bpack_r = shared_b_.data() + r * shared_b_panel_elems_;

    for (index_t ic = 0; ic < ms_; ic += mc_use) {
      const index_t mc_eff = std::min<index_t>(mc_use, ms_ - ic);
      for (int i = 0; i < na; ++i) {
        a_local[i] = {slot.a_terms[static_cast<std::size_t>(i)].ptr + ic * lda,
                      slot.a_terms[static_cast<std::size_t>(i)].coeff};
      }
      pack_a<T>(a_local, na, lda, mc_eff, ks_, mr, apack);

      for (index_t jr = 0; jr < ns_; jr += nr) {
        const index_t n_sub = std::min<index_t>(nr, ns_ - jr);
        const T* bpanel = bpack_r + (jr / nr) * nr * ks_;
        for (index_t ir = 0; ir < mc_eff; ir += mr) {
          const index_t m_sub = std::min<index_t>(mr, mc_eff - ir);
          const T* apanel = apack + (ir / mr) * mr * ks_;
          ukr(ks_, apanel, bpanel, acc);
          for (int t = 0; t < nc; ++t) {
            c_local[t].ptr = slot.c_terms[static_cast<std::size_t>(t)].ptr +
                             (ic + ir) * ldc + jr;
            c_local[t].coeff = slot.c_terms[static_cast<std::size_t>(t)].coeff;
          }
          epilogue_update(*bp_.kernel, c_local, nc, ldc, m_sub, n_sub, acc,
                          /*accumulate=*/true);
        }
      }
    }
  }
}

template class FmmExecutorT<double>;
template class FmmExecutorT<float>;

}  // namespace fmm
