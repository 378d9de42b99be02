#include "src/core/recursive.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "src/core/executor.h"  // peel_pieces
#include "src/core/task_pool.h"
#include "src/obs/trace.h"

namespace fmm {

namespace {

// Counter tracks sampled on every pool transition while tracing: how many
// leases are out and how much memory the pool has ever held at once.
inline void trace_pool_pressure(std::size_t outstanding, std::size_t bytes) {
  obs::trace_counter("bufpool.outstanding", "recurse",
                     static_cast<std::int64_t>(outstanding));
  obs::trace_counter("bufpool.peak_bytes", "recurse",
                     static_cast<std::int64_t>(bytes));
}

}  // namespace

// ---------------------------------------------------------------------------
// BufferPool.
// ---------------------------------------------------------------------------

void BufferPool::Lease::reset() {
  if (pool_ == nullptr) return;
  BufferPool* p = pool_;
  pool_ = nullptr;
  p->put_back(std::move(buf_));
}

BufferPool::Lease BufferPool::acquire(std::size_t elems) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Smallest sufficient free buffer; a node's products cycle through
    // three sizes, so exact reuse is the common case.
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].size() < elems) continue;
      if (best == free_.size() || free_[i].size() < free_[best].size()) {
        best = i;
      }
    }
    if (best != free_.size()) {
      AlignedBuffer<double> buf = std::move(free_[best]);
      free_[best] = std::move(free_.back());
      free_.pop_back();
      ++outstanding_;
      if (obs::trace_enabled()) trace_pool_pressure(outstanding_, peak_bytes_);
      return Lease(this, std::move(buf));
    }
  }
  // Nothing fits: allocate (outside the lock) instead of waiting — a
  // participant blocking here while holding other leases could wedge its
  // region.
  AlignedBuffer<double> buf(std::max<std::size_t>(elems, 1));
  const std::size_t bytes = buf.size() * sizeof(double);
  std::lock_guard<std::mutex> lk(mu_);
  ++outstanding_;
  live_bytes_ += bytes;
  peak_bytes_ = std::max(peak_bytes_, live_bytes_);
  if (obs::trace_enabled()) trace_pool_pressure(outstanding_, peak_bytes_);
  return Lease(this, std::move(buf));
}

void BufferPool::put_back(AlignedBuffer<double> buf) {
  std::lock_guard<std::mutex> lk(mu_);
  --outstanding_;
  if (free_.size() < kMaxFree) {
    free_.push_back(std::move(buf));
  } else {
    live_bytes_ -= buf.size() * sizeof(double);
  }
  if (obs::trace_enabled()) trace_pool_pressure(outstanding_, peak_bytes_);
}

std::size_t BufferPool::free_buffers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return free_.size();
}

std::size_t BufferPool::outstanding() const {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_;
}

std::size_t BufferPool::peak_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peak_bytes_;
}

// ---------------------------------------------------------------------------
// Descent predicate.
// ---------------------------------------------------------------------------

bool should_recurse(const Plan& plan, index_t m, index_t n, index_t k,
                    index_t cutoff) {
  if (cutoff <= 0 || plan.num_levels() < 1) return false;
  if (m <= cutoff || n <= cutoff || k <= cutoff) return false;
  const FmmAlgorithm& alg = plan.levels.front();
  // A non-empty divisible interior at the outermost level; anything less
  // is all fringe and belongs to the flat executor.
  return m >= alg.mt && k >= alg.kt && n >= alg.nt;
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

namespace {

// The BufferPool deals in doubles; a typed lease rounds its byte size up
// to whole doubles so f32 intermediates share the same pool (the 64-byte
// allocation alignment satisfies any element type).
template <typename T>
std::size_t lease_doubles(index_t elems) {
  return (static_cast<std::size_t>(elems) * sizeof(T) + sizeof(double) - 1) /
         sizeof(double);
}

// coeff * the block at ptr (row stride given alongside).
template <typename T>
struct BlockTerm {
  const T* ptr;
  double coeff;
};

// Row i of dst = Σ_t coeff_t * src_t (src row stride lds), terms in
// block-index-ascending order.
template <typename T>
void lin_comb_row(const BlockTerm<T>* terms, int num_terms, index_t lds,
                  index_t i, index_t cols, T* d) {
  const T* s0 = terms[0].ptr + i * lds;
  const T c0 = static_cast<T>(terms[0].coeff);
  for (index_t j = 0; j < cols; ++j) d[j] = c0 * s0[j];
  for (int t = 1; t < num_terms; ++t) {
    const T* st = terms[t].ptr + i * lds;
    const T ct = static_cast<T>(terms[t].coeff);
    for (index_t j = 0; j < cols; ++j) d[j] += ct * st[j];
  }
}

// Row d += w_t * (row i of src_t) for t = 0, 1, ... in order (the C_p
// quadrant update): the row of dst stays in cache across the terms, and
// each element still takes the terms one rounding step at a time.
template <typename T>
void scaled_adds_row(const BlockTerm<T>* terms, int num_terms, index_t lds,
                     index_t i, index_t cols, T* d) {
  for (int t = 0; t < num_terms; ++t) {
    const T* s = terms[t].ptr + i * lds;
    const T w = static_cast<T>(terms[t].coeff);
    for (index_t j = 0; j < cols; ++j) d[j] += w * s[j];
  }
}

// One product's intermediates: S_r / T_r (an aliased quadrant or a pooled
// buffer) and M_r.  Resetting it returns the leases.
template <typename T>
struct ProductBufs {
  BufferPool::Lease s, t, m;
  ConstMatViewT<T> sv, tv;
  MatViewT<T> mv;
};

// fn(i) for every row i in [0, rows), split evenly among up to
// `participants` members of a region on the current pool (serially, on the
// caller, when participants == 1).
template <typename F>
void for_rows(int participants, index_t rows, F&& fn) {
  TaskPool::current().parallel_for(
      participants, rows, ceil_div(rows, participants),
      [&](std::int64_t i, int) { fn(static_cast<index_t>(i)); });
}

// Σ_i coef(i) X_i over the quadrants of `x` (a grid of `grid_cols`-wide
// blocks of rows x cols) into a pooled buffer, split by rows among
// `participants` — or an alias of the one quadrant when the column has a
// single +1.0 term.
template <typename T, typename Coef>
ConstMatViewT<T> gather(ConstMatViewT<T> x, int num_blocks, int grid_cols,
                        index_t rows, index_t cols, Coef coef,
                        int participants, BufferPool& buffers,
                        BufferPool::Lease& lease) {
  std::vector<BlockTerm<T>> terms;
  terms.reserve(static_cast<std::size_t>(num_blocks));
  const index_t ld = x.stride();
  for (int i = 0; i < num_blocks; ++i) {
    const double c = coef(i);
    if (c == 0.0) continue;
    terms.push_back(
        {x.data() + (i / grid_cols) * rows * ld + (i % grid_cols) * cols, c});
  }
  if (terms.size() == 1 && terms[0].coeff == 1.0) {
    return ConstMatViewT<T>(terms[0].ptr, rows, cols, ld);
  }
  lease = buffers.acquire(lease_doubles<T>(rows * cols));
  T* dst = reinterpret_cast<T*>(lease.data());
  if (terms.empty()) {
    std::memset(dst, 0, static_cast<std::size_t>(rows * cols) * sizeof(T));
  } else {
    for_rows(participants, rows, [&](index_t i) {
      lin_comb_row(terms.data(), static_cast<int>(terms.size()), ld, i, cols,
                   dst + i * cols);
    });
  }
  return ConstMatViewT<T>(dst, rows, cols, cols);
}

// One fast-algorithm step of C += A * B on at most `participants`
// participants: the consumed level is plan.levels.front(); the products
// recurse into the remaining levels.
template <typename T>
void run_node(const RecursiveExecT<T>& ctx, const Plan& plan, MatViewT<T> c,
              ConstMatViewT<T> a, ConstMatViewT<T> b, int participants,
              int depth) {
  const FmmAlgorithm& alg = plan.levels.front();
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  const index_t m1 = m - m % alg.mt;
  const index_t k1 = k - k % alg.kt;
  const index_t n1 = n - n % alg.nt;
  const index_t ms = m1 / alg.mt, ks = k1 / alg.kt, ns = n1 / alg.nt;
  const int R = alg.R;

  std::optional<Plan> child;  // remaining levels (none: GEMM leaves)
  if (plan.num_levels() > 1) {
    child = make_plan(
        std::vector<FmmAlgorithm>(plan.levels.begin() + 1, plan.levels.end()),
        plan.variant);
    child->kernel = plan.kernel;
  }
  const bool descend =
      child && should_recurse(*child, ms, ns, ks, ctx.cutoff);

  std::vector<PeelPiece> fringe;
  for (const PeelPiece& p : peel_pieces(m, n, k, m1, n1, k1)) {
    if (p.m1 > p.m0 && p.n1 > p.n0 && p.k1 > p.k0) fringe.push_back(p);
  }

  TaskPool& pool = TaskPool::current();
  const int window = std::min({R, participants, pool.workers()});
  const int full = R - R % window;  // products of the full windows
  std::vector<ProductBufs<T>> bufs(static_cast<std::size_t>(window));

  // M_r = S_r T_r into pb on `parts` participants: 1 for a product of a
  // window (its participant runs it serially), the node's budget for a
  // leftover product (the gathers, the zeroing and the leaf or child node
  // span the pool).
  auto product = [&](int r, int parts, ProductBufs<T>& pb) {
    {
      obs::TraceScope prep("recurse.prep", "recurse");
      if (prep.active()) {
        prep.set_argf("r=%d d=%d %lldx%lldx%lld", r, depth, (long long)ms,
                      (long long)ns, (long long)ks);
      }
      pb.sv = gather<T>(a, alg.rows_u(), alg.kt, ms, ks,
                        [&](int i) { return alg.u(i, r); }, parts,
                        *ctx.buffers, pb.s);
      pb.tv = gather<T>(b, alg.rows_v(), alg.nt, ks, ns,
                        [&](int j) { return alg.v(j, r); }, parts,
                        *ctx.buffers, pb.t);
      pb.m = ctx.buffers->acquire(lease_doubles<T>(ms * ns));
      T* mp = reinterpret_cast<T*>(pb.m.data());
      for_rows(parts, ms, [&](index_t i) {
        std::memset(mp + i * ns, 0, static_cast<std::size_t>(ns) * sizeof(T));
      });
      pb.mv = MatViewT<T>(mp, ms, ns, ns);
    }
    if (descend) {
      run_node(ctx, *child, pb.mv, pb.sv, pb.tv, parts, depth + 1);
    } else {
      obs::TraceScope leaf("recurse.leaf", "recurse");
      if (leaf.active()) {
        leaf.set_argf("r=%d d=%d t=%d %lldx%lldx%lld", r, depth, parts,
                      (long long)ms, (long long)ns, (long long)ks);
      }
      ctx.leaf(child ? &*child : nullptr, parts, pb.mv, pb.sv, pb.tv);
    }
    // Only M_r outlives the product: S_r / T_r go back now.
    pb.s.reset();
    pb.t.reset();
  };

  // Rows [i0, i1) of quadrant C_p += w_pr M_r for the `count` products
  // from r0 held in bufs, in ascending r: the fixed per-element order
  // behind the determinism contract.
  auto update = [&](int p, int r0, int count, index_t i0, index_t i1) {
    obs::TraceScope upd("recurse.update", "recurse");
    if (upd.active()) upd.set_argf("p=%d r0=%d d=%d", p, r0, depth);
    std::vector<BlockTerm<T>> terms;
    for (int i = 0; i < count; ++i) {
      const double w = alg.w(p, r0 + i);
      if (w != 0.0) {
        terms.push_back({bufs[static_cast<std::size_t>(i)].mv.data(), w});
      }
    }
    if (terms.empty()) return;
    MatViewT<T> q = c.block((p / alg.nt) * ms, (p % alg.nt) * ns, ms, ns);
    for (index_t i = i0; i < i1; ++i) {
      scaled_adds_row(terms.data(), static_cast<int>(terms.size()), ns, i, ns,
                      q.row(i));
    }
  };

  // Phase 1: the full windows, one product per participant.
  pool.parallel_region(
      participants, std::max<std::int64_t>(window, alg.rows_w()),
      [&](ParallelTeam& team) {
    for (int r0 = 0; r0 < full; r0 += window) {
      team.for_each(window, 1, [&](std::int64_t i, int) {
        product(r0 + static_cast<int>(i), 1,
                bufs[static_cast<std::size_t>(i)]);
      });
      team.for_each(alg.rows_w(), 1, [&](std::int64_t p, int) {
        update(static_cast<int>(p), r0, window, 0, ms);
      });
      for (ProductBufs<T>& pb : bufs) pb = ProductBufs<T>{};
    }
  });

  // Phase 2: the R mod window products left over, one at a time, each
  // across every participant; the C update splits each quadrant into row
  // bands.
  const index_t bands = std::min<index_t>(participants, ms);
  for (int r = full; r < R; ++r) {
    product(r, participants, bufs[0]);
    pool.parallel_for(participants, alg.rows_w() * bands, 1,
                      [&](std::int64_t q, int) {
      const index_t band = q % bands;
      update(static_cast<int>(q / bands), r, 1, ms * band / bands,
             ms * (band + 1) / bands);
    });
    bufs[0] = ProductBufs<T>{};
  }

  // The fringes write disjoint regions; the k fringe adds into the
  // interior, after every product's update.
  pool.parallel_for(participants, static_cast<std::int64_t>(fringe.size()), 1,
                    [&](std::int64_t f, int) {
    const PeelPiece& p = fringe[static_cast<std::size_t>(f)];
    obs::TraceScope span("recurse.fringe", "recurse");
    if (span.active()) {
      span.set_argf("d=%d %lldx%lldx%lld", depth, (long long)(p.m1 - p.m0),
                    (long long)(p.n1 - p.n0), (long long)(p.k1 - p.k0));
    }
    ctx.leaf(nullptr, 1, c.block(p.m0, p.n0, p.m1 - p.m0, p.n1 - p.n0),
             a.block(p.m0, p.k0, p.m1 - p.m0, p.k1 - p.k0),
             b.block(p.k0, p.n0, p.k1 - p.k0, p.n1 - p.n0));
  });
}

}  // namespace

template <typename T>
void run_recursive(const RecursiveExecT<T>& ctx, const Plan& plan,
                   MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                   ConstMatViewT<NoDeduce<T>> b) {
  assert(ctx.buffers != nullptr && ctx.leaf);
  assert(should_recurse(plan, c.rows(), c.cols(), a.cols(), ctx.cutoff));
  const int participants = ctx.participants > 0
                               ? ctx.participants
                               : TaskPool::current().workers();
  run_node<T>(ctx, plan, c, a, b, participants, /*depth=*/0);
}

template void run_recursive<double>(const RecursiveExecT<double>&,
                                    const Plan&, MatViewT<double>,
                                    ConstMatViewT<double>,
                                    ConstMatViewT<double>);
template void run_recursive<float>(const RecursiveExecT<float>&, const Plan&,
                                   MatViewT<float>, ConstMatViewT<float>,
                                   ConstMatViewT<float>);

}  // namespace fmm
