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

// Serial dense dst[rows x cols] = Σ_t coeff_t * src_t (src row stride lds),
// terms in block-index-ascending order.
template <typename T>
void lin_comb_serial(const BlockTerm<T>* terms, int num_terms, index_t lds,
                     index_t rows, index_t cols, T* dst) {
  for (index_t i = 0; i < rows; ++i) {
    T* d = dst + i * cols;
    const T* s0 = terms[0].ptr + i * lds;
    const T c0 = static_cast<T>(terms[0].coeff);
    for (index_t j = 0; j < cols; ++j) d[j] = c0 * s0[j];
    for (int t = 1; t < num_terms; ++t) {
      const T* st = terms[t].ptr + i * lds;
      const T ct = static_cast<T>(terms[t].coeff);
      for (index_t j = 0; j < cols; ++j) d[j] += ct * st[j];
    }
  }
}

// Serial dst += w_t * src_t for t = 0, 1, ... in order (the C_p quadrant
// update), one row at a time so the row of dst stays in cache across the
// terms; each element still takes the terms one rounding step at a time.
template <typename T>
void scaled_adds_serial(const BlockTerm<T>* terms, int num_terms,
                        index_t lds, MatViewT<T> dst) {
  const index_t rows = dst.rows(), cols = dst.cols();
  for (index_t i = 0; i < rows; ++i) {
    T* d = dst.row(i);
    for (int t = 0; t < num_terms; ++t) {
      const T* s = terms[t].ptr + i * lds;
      const T w = static_cast<T>(terms[t].coeff);
      for (index_t j = 0; j < cols; ++j) d[j] += w * s[j];
    }
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

// Σ_i coef(i) X_i over the quadrants of `x` (a grid of `grid_cols`-wide
// blocks of rows x cols) into a pooled buffer — or an alias of the one
// quadrant when the column has a single +1.0 term.
template <typename T, typename Coef>
ConstMatViewT<T> gather(ConstMatViewT<T> x, int num_blocks, int grid_cols,
                        index_t rows, index_t cols, Coef coef,
                        BufferPool& buffers, BufferPool::Lease& lease) {
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
    lin_comb_serial(terms.data(), static_cast<int>(terms.size()), ld, rows,
                    cols, dst);
  }
  return ConstMatViewT<T>(dst, rows, cols, cols);
}

// One fast-algorithm step of C += A * B: the consumed level is
// plan.levels.front(); the products recurse into the remaining levels.
template <typename T>
void run_node(const RecursiveExecT<T>& ctx, const Plan& plan, MatViewT<T> c,
              ConstMatViewT<T> a, ConstMatViewT<T> b, int depth) {
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
  const int window = std::min(R, pool.workers());
  std::vector<ProductBufs<T>> bufs(static_cast<std::size_t>(window));

  auto product = [&](int r, ProductBufs<T>& pb) {
    {
      obs::TraceScope prep("recurse.prep", "recurse");
      if (prep.active()) {
        prep.set_argf("r=%d d=%d %lldx%lldx%lld", r, depth, (long long)ms,
                      (long long)ns, (long long)ks);
      }
      pb.sv = gather<T>(a, alg.rows_u(), alg.kt, ms, ks,
                        [&](int i) { return alg.u(i, r); }, *ctx.buffers,
                        pb.s);
      pb.tv = gather<T>(b, alg.rows_v(), alg.nt, ks, ns,
                        [&](int j) { return alg.v(j, r); }, *ctx.buffers,
                        pb.t);
      pb.m = ctx.buffers->acquire(lease_doubles<T>(ms * ns));
      T* mp = reinterpret_cast<T*>(pb.m.data());
      std::memset(mp, 0, static_cast<std::size_t>(ms * ns) * sizeof(T));
      pb.mv = MatViewT<T>(mp, ms, ns, ns);
    }
    if (descend) {
      run_node(ctx, *child, pb.mv, pb.sv, pb.tv, depth + 1);
    } else {
      obs::TraceScope leaf("recurse.leaf", "recurse");
      if (leaf.active()) {
        leaf.set_argf("r=%d d=%d %lldx%lldx%lld", r, depth, (long long)ms,
                      (long long)ns, (long long)ks);
      }
      ctx.leaf(child ? &*child : nullptr, pb.mv, pb.sv, pb.tv);
    }
    // Only M_r outlives the product: S_r / T_r go back now.
    pb.s.reset();
    pb.t.reset();
  };

  const std::int64_t max_chunks = std::max<std::int64_t>(
      {window, alg.rows_w(), static_cast<std::int64_t>(fringe.size())});
  pool.parallel_region(0, max_chunks, [&](ParallelTeam& team) {
    for (int r0 = 0; r0 < R; r0 += window) {
      const int count = std::min(window, R - r0);
      team.for_each(count, 1, [&](std::int64_t i, int) {
        product(r0 + static_cast<int>(i), bufs[static_cast<std::size_t>(i)]);
      });
      // Each quadrant takes the window's products in ascending r: the
      // fixed per-element order behind the determinism contract.
      team.for_each(alg.rows_w(), 1, [&](std::int64_t p64, int) {
        const int p = static_cast<int>(p64);
        obs::TraceScope upd("recurse.update", "recurse");
        if (upd.active()) upd.set_argf("p=%d r0=%d d=%d", p, r0, depth);
        std::vector<BlockTerm<T>> terms;
        for (int i = 0; i < count; ++i) {
          const double w = alg.w(p, r0 + i);
          if (w != 0.0) {
            terms.push_back({bufs[static_cast<std::size_t>(i)].mv.data(), w});
          }
        }
        scaled_adds_serial(terms.data(), static_cast<int>(terms.size()), ns,
                           c.block((p / alg.nt) * ms, (p % alg.nt) * ns, ms,
                                   ns));
      });
      for (ProductBufs<T>& pb : bufs) pb = ProductBufs<T>{};
    }
    // The fringes write disjoint regions; the k fringe adds into the
    // interior, after every product's update.
    team.for_each(static_cast<std::int64_t>(fringe.size()), 1,
                  [&](std::int64_t f, int) {
      const PeelPiece& p = fringe[static_cast<std::size_t>(f)];
      obs::TraceScope span("recurse.fringe", "recurse");
      if (span.active()) {
        span.set_argf("d=%d %lldx%lldx%lld", depth, (long long)(p.m1 - p.m0),
                      (long long)(p.n1 - p.n0), (long long)(p.k1 - p.k0));
      }
      ctx.leaf(nullptr, c.block(p.m0, p.n0, p.m1 - p.m0, p.n1 - p.n0),
               a.block(p.m0, p.k0, p.m1 - p.m0, p.k1 - p.k0),
               b.block(p.k0, p.n0, p.k1 - p.k0, p.n1 - p.n0));
    });
  });
}

}  // namespace

template <typename T>
void run_recursive(const RecursiveExecT<T>& ctx, const Plan& plan,
                   MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                   ConstMatViewT<NoDeduce<T>> b) {
  assert(ctx.buffers != nullptr && ctx.leaf);
  assert(should_recurse(plan, c.rows(), c.cols(), a.cols(), ctx.cutoff));
  run_node<T>(ctx, plan, c, a, b, /*depth=*/0);
}

template void run_recursive<double>(const RecursiveExecT<double>&,
                                    const Plan&, MatViewT<double>,
                                    ConstMatViewT<double>,
                                    ConstMatViewT<double>);
template void run_recursive<float>(const RecursiveExecT<float>&, const Plan&,
                                   MatViewT<float>, ConstMatViewT<float>,
                                   ConstMatViewT<float>);

}  // namespace fmm
