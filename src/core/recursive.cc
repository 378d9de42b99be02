#include "src/core/recursive.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/core/executor.h"  // peel_pieces
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
  // Nothing fits: allocate (outside the lock) instead of waiting — a task
  // blocking here while holding other leases could wedge the pool.
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
// Node expansion.  Both drivers (task graph and sequential) run the exact
// same operation sequence per C element — prep_product and the per-p
// ascending-r update order are the shared single source of truth — which is
// what makes them bitwise identical.
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

template <typename T>
struct GatherTerm {
  const T* ptr;
  double coeff;
};

// Serial dense dst[rows x cols] = Σ_t coeff_t * src_t (src row stride lds);
// term order is block-index-ascending in both drivers.
template <typename T>
void lin_comb_serial(const GatherTerm<T>* terms, int num_terms, index_t lds,
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

// Serial dst += w * src (the C_p quadrant update).
template <typename T>
void scaled_add_serial(double w, ConstMatViewT<T> src, MatViewT<T> dst) {
  const index_t rows = src.rows(), cols = src.cols();
  const T wv = static_cast<T>(w);
  for (index_t i = 0; i < rows; ++i) {
    const T* s = src.row(i);
    T* d = dst.row(i);
    for (index_t j = 0; j < cols; ++j) d[j] += wv * s[j];
  }
}

// Shared state of one expanded fast-algorithm step.  Task bodies hold it
// via shared_ptr (std::function requires copyable callables); the per-r
// buffer slots are written by prep tasks and cleared by release tasks, with
// every access ordered by the tag dependencies.
template <typename T>
struct Node {
  RecursiveExecT<T> ctx;
  FmmAlgorithm alg;                   // the consumed outermost level
  std::shared_ptr<const Plan> child;  // remaining levels (null: GEMM leaves)
  bool descend = false;               // products recurse one level further
  MatViewT<T> c;
  ConstMatViewT<T> a, b;
  index_t ms = 0, ks = 0, ns = 0;     // quadrant sizes
  int depth = 0;

  struct RBuf {
    BufferPool::Lease s, t, m;
    ConstMatViewT<T> sv, tv;  // S_r / T_r (aliased quadrant or pooled buffer)
    MatViewT<T> mv;           // M_r
  };
  std::vector<RBuf> rb;
};

// Gathers S_r and T_r (aliasing a single +1.0-coefficient quadrant rather
// than copying it) and zeroes M_r into node.rb[r].
template <typename T>
void prep_product(Node<T>& node, int r) {
  const FmmAlgorithm& alg = node.alg;
  typename Node<T>::RBuf& rb = node.rb[static_cast<std::size_t>(r)];
  const index_t ms = node.ms, ks = node.ks, ns = node.ns;
  std::vector<GatherTerm<T>> terms;

  const index_t lda = node.a.stride();
  terms.reserve(static_cast<std::size_t>(alg.rows_u()));
  for (int i = 0; i < alg.rows_u(); ++i) {
    const double coef = alg.u(i, r);
    if (coef == 0.0) continue;
    terms.push_back(
        {node.a.data() + (i / alg.kt) * ms * lda + (i % alg.kt) * ks, coef});
  }
  if (terms.size() == 1 && terms[0].coeff == 1.0) {
    rb.sv = ConstMatViewT<T>(terms[0].ptr, ms, ks, lda);
  } else {
    rb.s = node.ctx.buffers->acquire(lease_doubles<T>(ms * ks));
    T* sp = reinterpret_cast<T*>(rb.s.data());
    if (terms.empty()) {
      std::memset(sp, 0, static_cast<std::size_t>(ms * ks) * sizeof(T));
    } else {
      lin_comb_serial(terms.data(), static_cast<int>(terms.size()), lda, ms,
                      ks, sp);
    }
    rb.sv = ConstMatViewT<T>(sp, ms, ks, ks);
  }

  const index_t ldb = node.b.stride();
  terms.clear();
  for (int j = 0; j < alg.rows_v(); ++j) {
    const double coef = alg.v(j, r);
    if (coef == 0.0) continue;
    terms.push_back(
        {node.b.data() + (j / alg.nt) * ks * ldb + (j % alg.nt) * ns, coef});
  }
  if (terms.size() == 1 && terms[0].coeff == 1.0) {
    rb.tv = ConstMatViewT<T>(terms[0].ptr, ks, ns, ldb);
  } else {
    rb.t = node.ctx.buffers->acquire(lease_doubles<T>(ks * ns));
    T* tp = reinterpret_cast<T*>(rb.t.data());
    if (terms.empty()) {
      std::memset(tp, 0, static_cast<std::size_t>(ks * ns) * sizeof(T));
    } else {
      lin_comb_serial(terms.data(), static_cast<int>(terms.size()), ldb, ks,
                      ns, tp);
    }
    rb.tv = ConstMatViewT<T>(tp, ks, ns, ns);
  }

  rb.m = node.ctx.buffers->acquire(lease_doubles<T>(ms * ns));
  T* mp = reinterpret_cast<T*>(rb.m.data());
  std::memset(mp, 0, static_cast<std::size_t>(ms * ns) * sizeof(T));
  rb.mv = MatViewT<T>(mp, ms, ns, ns);
}

// Builds one expanded step plus its children on ctx.pool.  The finalizer
// task carries `done_tag` and its future is the node's completion.
template <typename T>
TaskFuture build_node(const RecursiveExecT<T>& ctx,
                      std::shared_ptr<const Plan> plan, MatViewT<T> c,
                      ConstMatViewT<T> a, ConstMatViewT<T> b, int depth,
                      TaskTag done_tag) {
  TaskPool& pool = *ctx.pool;
  const FmmAlgorithm& alg = plan->levels.front();
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  const index_t m1 = m - m % alg.mt;
  const index_t k1 = k - k % alg.kt;
  const index_t n1 = n - n % alg.nt;
  const int R = alg.R;

  auto node = std::make_shared<Node<T>>();
  node->ctx = ctx;
  node->alg = alg;
  if (plan->num_levels() > 1) {
    Plan childp = make_plan(
        std::vector<FmmAlgorithm>(plan->levels.begin() + 1,
                                  plan->levels.end()),
        plan->variant);
    childp.kernel = plan->kernel;
    node->child = std::make_shared<const Plan>(std::move(childp));
  }
  node->c = c;
  node->a = a;
  node->b = b;
  node->ms = m1 / alg.mt;
  node->ks = k1 / alg.kt;
  node->ns = n1 / alg.nt;
  node->depth = depth;
  node->rb.resize(static_cast<std::size_t>(R));
  node->descend = node->child != nullptr &&
                  should_recurse(*node->child, node->ms, node->ns, node->ks,
                                 ctx.cutoff);

  // The memory throttle: at most `window` products of this node hold
  // buffers at once (prep_r waits for release[r - window]).
  const int window = std::min(
      R, ctx.window > 0 ? ctx.window : std::max(2, pool.workers()));

  std::vector<TaskTag> m_done(static_cast<std::size_t>(R));
  std::vector<TaskTag> rel(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    m_done[static_cast<std::size_t>(r)] = pool.fresh_tag();
    rel[static_cast<std::size_t>(r)] = pool.fresh_tag();
  }

  // Prep (and, for leaves, compute) tasks.  Deeper nodes run at higher
  // priority so open subtrees drain before new products start.
  for (int r = 0; r < R; ++r) {
    TaskOptions po;
    po.priority = depth;
    if (r >= window) po.deps.push_back(rel[static_cast<std::size_t>(r - window)]);
    const TaskTag mt = m_done[static_cast<std::size_t>(r)];
    // A leaf prep *is* the product, so it carries the m_done tag itself; a
    // descending prep submits the child graph whose finalizer carries it.
    if (!node->descend) po.tag = mt;
    pool.submit(
        [node, r, mt] {
          {
            obs::TraceScope prep("recurse.prep", "recurse");
            if (prep.active()) {
              prep.set_argf("r=%d d=%d %lldx%lldx%lld", r, node->depth,
                            (long long)node->ms, (long long)node->ns,
                            (long long)node->ks);
            }
            prep_product(*node, r);
          }
          auto& rb = node->rb[static_cast<std::size_t>(r)];
          if (node->descend) {
            build_node(node->ctx, node->child, rb.mv, rb.sv, rb.tv,
                       node->depth + 1, mt);
          } else {
            obs::TraceScope leaf("recurse.leaf", "recurse");
            if (leaf.active()) {
              leaf.set_argf("r=%d d=%d %lldx%lldx%lld", r, node->depth,
                            (long long)node->ms, (long long)node->ns,
                            (long long)node->ks);
            }
            node->ctx.leaf(node->child.get(), rb.mv, rb.sv, rb.tv);
          }
        },
        std::move(po));
  }

  // C updates: per quadrant p one chain of tasks, r ascending, serialized
  // by tag deps — the fixed per-element accumulation order that makes the
  // graph deterministic under any schedule.
  std::vector<std::vector<TaskTag>> consumers(static_cast<std::size_t>(R));
  std::vector<TaskTag> chain_last;
  for (int p = 0; p < alg.rows_w(); ++p) {
    const MatViewT<T> cp =
        c.block((p / alg.nt) * node->ms, (p % alg.nt) * node->ns, node->ms,
                node->ns);
    TaskTag prev = kNoTag;
    for (int r = 0; r < R; ++r) {
      const double w = alg.w(p, r);
      if (w == 0.0) continue;
      TaskOptions uo;
      uo.tag = pool.fresh_tag();
      uo.priority = depth;
      uo.deps.push_back(m_done[static_cast<std::size_t>(r)]);
      if (prev != kNoTag) uo.deps.push_back(prev);
      consumers[static_cast<std::size_t>(r)].push_back(uo.tag);
      prev = uo.tag;
      pool.submit(
          [node, w, r, cp] {
            obs::TraceScope upd("recurse.update", "recurse");
            if (upd.active()) upd.set_argf("r=%d d=%d", r, node->depth);
            scaled_add_serial<T>(w, node->rb[static_cast<std::size_t>(r)].mv,
                                 cp);
          },
          std::move(uo));
    }
    if (prev != kNoTag) chain_last.push_back(prev);
  }

  // Release tasks recycle S/T/M once every consumer of M_r has run.
  for (int r = 0; r < R; ++r) {
    TaskOptions ro;
    ro.tag = rel[static_cast<std::size_t>(r)];
    ro.priority = depth;
    ro.deps = consumers[static_cast<std::size_t>(r)].empty()
                  ? std::vector<TaskTag>{m_done[static_cast<std::size_t>(r)]}
                  : consumers[static_cast<std::size_t>(r)];
    pool.submit(
        [node, r] {
          node->rb[static_cast<std::size_t>(r)] = typename Node<T>::RBuf{};
        },
        std::move(ro));
  }

  // Fringe GEMMs.  The k fringe writes the interior C region and must
  // follow every update chain; the n/m fringes write disjoint regions and
  // run free.
  std::vector<TaskTag> fin_deps = chain_last;
  for (const PeelPiece& p : peel_pieces(m, n, k, m1, n1, k1)) {
    if (p.m1 <= p.m0 || p.n1 <= p.n0 || p.k1 <= p.k0) continue;
    TaskOptions po;
    po.tag = pool.fresh_tag();
    po.priority = depth;
    if (p.k0 > 0) po.deps = chain_last;
    fin_deps.push_back(po.tag);
    const MatViewT<T> cp = c.block(p.m0, p.n0, p.m1 - p.m0, p.n1 - p.n0);
    const ConstMatViewT<T> ap = a.block(p.m0, p.k0, p.m1 - p.m0, p.k1 - p.k0);
    const ConstMatViewT<T> bp = b.block(p.k0, p.n0, p.k1 - p.k0, p.n1 - p.n0);
    pool.submit(
        [node, cp, ap, bp] {
          obs::TraceScope fringe("recurse.fringe", "recurse");
          if (fringe.active()) {
            fringe.set_argf("d=%d %lldx%lldx%lld", node->depth,
                            (long long)cp.rows(), (long long)cp.cols(),
                            (long long)ap.cols());
          }
          node->ctx.leaf(nullptr, cp, ap, bp);
        },
        std::move(po));
  }

  TaskOptions fo;
  fo.tag = done_tag;
  fo.priority = depth;
  fo.deps = std::move(fin_deps);
  return pool.submit([] { return Status{}; }, std::move(fo));
}

// The sequential twin: identical decomposition and operation order, inline.
template <typename T>
void run_node_sequential(const RecursiveExecT<T>& ctx, const Plan& plan,
                         MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b,
                         int depth) {
  const FmmAlgorithm& alg = plan.levels.front();
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  const index_t m1 = m - m % alg.mt;
  const index_t k1 = k - k % alg.kt;
  const index_t n1 = n - n % alg.nt;
  const int R = alg.R;

  Node<T> node;
  node.ctx = ctx;
  node.alg = alg;
  if (plan.num_levels() > 1) {
    Plan childp = make_plan(
        std::vector<FmmAlgorithm>(plan.levels.begin() + 1, plan.levels.end()),
        plan.variant);
    childp.kernel = plan.kernel;
    node.child = std::make_shared<const Plan>(std::move(childp));
  }
  node.c = c;
  node.a = a;
  node.b = b;
  node.ms = m1 / alg.mt;
  node.ks = k1 / alg.kt;
  node.ns = n1 / alg.nt;
  node.depth = depth;
  node.rb.resize(static_cast<std::size_t>(R));
  node.descend =
      node.child != nullptr &&
      should_recurse(*node.child, node.ms, node.ns, node.ks, ctx.cutoff);

  for (int r = 0; r < R; ++r) {
    prep_product(node, r);
    auto& rb = node.rb[static_cast<std::size_t>(r)];
    if (node.descend) {
      run_node_sequential(ctx, *node.child, rb.mv, rb.sv, rb.tv, depth + 1);
    } else {
      ctx.leaf(node.child.get(), rb.mv, rb.sv, rb.tv);
    }
    for (int p = 0; p < alg.rows_w(); ++p) {
      const double w = alg.w(p, r);
      if (w == 0.0) continue;
      scaled_add_serial<T>(w, rb.mv,
                           c.block((p / alg.nt) * node.ms,
                                   (p % alg.nt) * node.ns, node.ms, node.ns));
    }
    rb = typename Node<T>::RBuf{};  // recycle before the next product
  }

  for (const PeelPiece& p : peel_pieces(m, n, k, m1, n1, k1)) {
    if (p.m1 <= p.m0 || p.n1 <= p.n0 || p.k1 <= p.k0) continue;
    ctx.leaf(nullptr, c.block(p.m0, p.n0, p.m1 - p.m0, p.n1 - p.n0),
             a.block(p.m0, p.k0, p.m1 - p.m0, p.k1 - p.k0),
             b.block(p.k0, p.n0, p.k1 - p.k0, p.n1 - p.n0));
  }
}

}  // namespace

template <typename T>
TaskFuture submit_recursive(const RecursiveExecT<T>& ctx, const Plan& plan,
                            MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                            ConstMatViewT<NoDeduce<T>> b) {
  assert(ctx.pool != nullptr && ctx.buffers != nullptr && ctx.leaf);
  assert(should_recurse(plan, c.rows(), c.cols(), a.cols(), ctx.cutoff));
  return build_node(ctx, std::make_shared<const Plan>(plan), c, a, b,
                    /*depth=*/0, ctx.pool->fresh_tag());
}

template <typename T>
void run_recursive_sequential(const RecursiveExecT<T>& ctx, const Plan& plan,
                              MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                              ConstMatViewT<NoDeduce<T>> b) {
  assert(ctx.buffers != nullptr && ctx.leaf);
  assert(should_recurse(plan, c.rows(), c.cols(), a.cols(), ctx.cutoff));
  run_node_sequential(ctx, plan, c, a, b, /*depth=*/0);
}

template TaskFuture submit_recursive<double>(const RecursiveExecT<double>&,
                                             const Plan&, MatViewT<double>,
                                             ConstMatViewT<double>,
                                             ConstMatViewT<double>);
template TaskFuture submit_recursive<float>(const RecursiveExecT<float>&,
                                            const Plan&, MatViewT<float>,
                                            ConstMatViewT<float>,
                                            ConstMatViewT<float>);
template void run_recursive_sequential<double>(const RecursiveExecT<double>&,
                                               const Plan&, MatViewT<double>,
                                               ConstMatViewT<double>,
                                               ConstMatViewT<double>);
template void run_recursive_sequential<float>(const RecursiveExecT<float>&,
                                              const Plan&, MatViewT<float>,
                                              ConstMatViewT<float>,
                                              ConstMatViewT<float>);

}  // namespace fmm
