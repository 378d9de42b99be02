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
//      levels remain, one fast-algorithm step runs as a fork-join region
//      (TaskPool::parallel_region) on the calling thread's pool.  The R
//      products go in windows of min(R, workers): a for_each over the
//      window's products gathers S_r = Σ_i u_ir A_i and T_r = Σ_j v_jr B_j
//      into pooled buffers (a quadrant with a single +1 term is aliased,
//      not copied), zeroes M_r and computes M_r = S_r T_r by recursing or
//      calling the leaf; then a for_each over the C quadrants p applies
//      C_p += w_pr M_r for the window's r in ascending order;
//   2. compiled fast-leaf regime — at the cutoff each product becomes one
//      cached FmmExecutor running the *remaining* plan levels serially;
//   3. plain GEMM               — products that arrive with no levels left
//      (and the dynamic-peeling fringes, run after the last window) run as
//      ordinary blocked GEMMs.
//
// Determinism.  Every C element receives its updates in one fixed order —
// r ascending within a quadrant, window after window, then the k fringe —
// and every S/T gather and leaf is serial, so the result does not depend
// on which participant ran what: it is **bitwise identical** across runs,
// worker counts, and between a host call and a nested call on a busy
// worker (where the region runs serially).  Results are *not* bitwise
// identical to the flat FmmExecutor (summing u2·(Σ u1·a) per level
// associates differently from the flat Kronecker gather); with the cutoff
// at or above the problem size no descent happens and the flat path runs
// unchanged.
//
// Memory.  A node holds leases for at most one window — min(R, workers)
// products — at a time: S_r / T_r go back to the BufferPool as soon as
// M_r is computed, the window's M buffers after its C updates and before
// the next window's gathers.  A nested node (a product that recurses)
// holds its own window below its parent's.
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

// The serial leaf executor: computes c += a * b for one product.  `plan` is
// the remaining (not yet recursed) levels, nullptr for plain GEMM — regimes
// 2 and 3 above.  Called concurrently from a region's participants; it
// must run serially (the node's products are the parallelism) and be
// deterministic (same inputs -> same bits).  It may throw.  The Engine's
// leaf routes plan leaves through its executor cache.
template <typename T>
using RecursiveLeafFnT = std::function<void(
    const Plan* plan, MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b)>;

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
