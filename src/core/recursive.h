#pragma once

// Recursive multi-level execution — the out-of-L3 regime.
//
// A compiled FmmExecutor (executor.h) runs the *whole* Kronecker-flattened
// plan through one loop nest: excellent while the working set is cache
// resident, but above the L3 it streams every operand from DRAM R times.
// Benson & Ballard ("A Framework for Practical Parallel Fast Matrix
// Multiplication") show the win at scale comes from recursing the fast
// algorithm and handing off to a tuned leaf below a cutoff; the paper
// parallelizes every such step with plain data parallelism.  This module
// is that top level, in three regimes:
//
//   1. recursive regime        — while min(m, n, k) > cutoff and plan
//      levels remain, one fast-algorithm step runs on the calling thread's
//      pool with at most P participants (the request's thread budget,
//      capped by the pool).  The R products are scheduled as Benson &
//      Ballard's hybrid of product and data parallelism, in two phases:
//        phase 1 — one fork-join region (TaskPool::parallel_region) runs
//          the full windows of W = min(R, P) products: a for_each over the
//          window's products gathers S_r = Σ_i u_ir A_i and
//          T_r = Σ_j v_jr B_j into pooled buffers (a quadrant with a
//          single +1 term is aliased, not copied), zeroes M_r and computes
//          M_r = S_r T_r by recursing or calling the leaf, each product
//          serially on one participant with a budget of 1; then a for_each
//          over the C quadrants p applies C_p += w_pr M_r for the window's
//          r in ascending order;
//        phase 2 — the R mod W products left over run one at a time in
//          ascending r, each across all P participants: the gathers, the
//          zeroing and the C update split by rows, and the leaf (or the
//          child node, with the full budget) runs P-wide;
//      the dynamic-peeling fringes then run as a region of their own;
//   2. compiled fast-leaf regime — at the cutoff each product becomes one
//      cached FmmExecutor running the *remaining* plan levels, serially in
//      phase 1 and P-wide in phase 2;
//   3. plain GEMM               — products that arrive with no levels left
//      (and the fringes) run as ordinary blocked GEMMs.
//
// Determinism.  Every C element receives its updates in one fixed order —
// r ascending within a quadrant, window after window, then the leftover
// products, then the k fringe — every S/T element sums its terms in one
// fixed order, and a leaf's bits do not depend on its thread count (the
// fused loop nest splits only the i_c / j_r loops among threads).  So the
// result does not depend on which participant ran what: it is **bitwise
// identical** across runs, worker counts, participant budgets, and between
// a host call and a nested call on a busy worker (where the regions run
// serially).  Results are *not* bitwise identical to the flat FmmExecutor
// (summing u2·(Σ u1·a) per level associates differently from the flat
// Kronecker gather); with the cutoff at or above the problem size no
// descent happens and the flat path runs unchanged.
//
// Memory.  A node holds leases for at most one window — W products — in
// phase 1 and for one product in phase 2: S_r / T_r go back to the
// BufferPool as soon as M_r is computed, M_r after its C update and before
// the next product's gathers.  A nested node holds its own leases below
// its parent's: one product at a time under a phase-1 product (budget 1),
// a full window under a phase-2 product.
//
// Failure.  A gather, leaf or fringe that throws (std::bad_alloc from a
// lease, an executor compile) stops the node after the current loop and
// the first exception is rethrown on the calling thread; C is then
// partially updated and the caller reports an error.

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

#include "src/core/plan.h"
#include "src/linalg/mat_view.h"
#include "src/util/aligned_buffer.h"

namespace fmm {

// Thread-safe free-list allocator for the per-r S/T/M intermediates.
// acquire() never blocks: an empty free list allocates instead of waiting
// (the driver's window, not the allocator, bounds peak memory).  Buffers are
// recycled smallest-sufficient-first; the free list is capped so a burst
// of deep recursion does not pin its high-water mark forever.
class BufferPool {
 public:
  // RAII lease of >= `elems` doubles; returns to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), buf_(std::move(o.buf_)) {
      o.pool_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        reset();
        pool_ = o.pool_;
        buf_ = std::move(o.buf_);
        o.pool_ = nullptr;
      }
      return *this;
    }
    ~Lease() { reset(); }

    double* data() { return buf_.data(); }
    bool engaged() const { return pool_ != nullptr; }
    // Early return to the pool (the destructor otherwise).
    void reset();

   private:
    friend class BufferPool;
    Lease(BufferPool* pool, AlignedBuffer<double> buf)
        : pool_(pool), buf_(std::move(buf)) {}
    BufferPool* pool_ = nullptr;
    AlignedBuffer<double> buf_;
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  Lease acquire(std::size_t elems);

  // Introspection (tests and observability).
  std::size_t free_buffers() const;
  std::size_t outstanding() const;   // leases not yet returned
  std::size_t peak_bytes() const;    // high-water mark of live allocation

 private:
  friend class Lease;
  void put_back(AlignedBuffer<double> buf);

  static constexpr std::size_t kMaxFree = 64;

  mutable std::mutex mu_;
  std::vector<AlignedBuffer<double>> free_;
  std::size_t outstanding_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
};

// The leaf executor: computes c += a * b for one product on `threads`
// participants.  `plan` is the remaining (not yet recursed) levels,
// nullptr for plain GEMM — regimes 2 and 3 above.  A phase-1 product or a
// fringe asks for 1 thread and is called concurrently from a region's
// participants: it must then run serially (the node's products are the
// parallelism).  A phase-2 product asks for the node's budget and may fork
// up to that many participants on TaskPool::current().  Either way it must
// be deterministic, with bits independent of `threads` (same inputs ->
// same bits).  It may throw.  The Engine's leaf routes plan leaves through
// its executor cache.
template <typename T>
using RecursiveLeafFnT =
    std::function<void(const Plan* plan, int threads, MatViewT<T> c,
                       ConstMatViewT<T> a, ConstMatViewT<T> b)>;

// Everything one recursive execution needs; the pointed-to buffers must
// outlive the call.  The BufferPool is shared across element types (it
// deals in raw 64-byte-aligned allocations; f32 leases round their byte
// size up to whole doubles), so mixed-precision serving shares one
// intermediate pool.
template <typename T>
struct RecursiveExecT {
  BufferPool* buffers = nullptr;
  RecursiveLeafFnT<T> leaf;
  index_t cutoff = 0;           // descend while min(m, n, k) > cutoff
  // The request's participant budget P: the cap on the top node's region,
  // its window and its phase-2 leaves; <= 0 = the pool's worker count.
  int participants = 0;
};
using RecursiveExec = RecursiveExecT<double>;

// True when (plan, m, n, k) qualifies for one step of recursive descent
// under `cutoff`: a positive cutoff, at least one plan level, every
// dimension strictly above the cutoff, and a non-empty divisible interior
// at the outermost level.
bool should_recurse(const Plan& plan, index_t m, index_t n, index_t k,
                    index_t cutoff);

// C += A * B by recursive descent, on TaskPool::current() (the calling
// worker's pool, else the process-default pool); returns when C is
// complete and rethrows the first exception a gather, leaf or fringe
// threw.  Requires should_recurse(plan, ...) — callers route
// non-qualifying shapes to a flat executor instead.  T is deduced from C
// (and ctx); A and B may be writable views (see NoDeduce, mat_view.h).
template <typename T>
void run_recursive(const RecursiveExecT<T>& ctx, const Plan& plan,
                   MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                   ConstMatViewT<NoDeduce<T>> b);

}  // namespace fmm
