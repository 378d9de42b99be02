#pragma once

// Task-recursive multi-level execution — the out-of-L3 regime.
//
// A compiled FmmExecutor (executor.h) runs the *whole* Kronecker-flattened
// plan through one loop nest: excellent while the working set is cache
// resident, but above the L3 a single multiply leaves the task runtime
// (task_pool.h) idle and streams every operand from DRAM R times.  Benson &
// Ballard ("A Framework for Practical Parallel Fast Matrix Multiplication",
// on StarPU) show the win at scale comes from recursing the fast algorithm
// as a task DAG and handing off to a tuned leaf below a cutoff.  This
// module is that top level, in three regimes:
//
//   1. recursive task regime   — while min(m, n, k) > cutoff and plan
//      levels remain, one fast-algorithm step expands into TaskPool tasks:
//      per-r prep tasks compute S_r = Σ_i u_ir A_i and T_r = Σ_j v_jr B_j
//      into pooled buffers (quadrant views are aliased directly when the
//      column has a single +1 term), each product M_r = S_r T_r recurses,
//      and the C_p += w_pr M_r updates are sequenced by tag dependencies;
//   2. compiled fast-leaf regime — at the cutoff each product becomes one
//      cached FmmExecutor running the *remaining* plan levels serially;
//   3. plain GEMM               — products that arrive with no levels left
//      (and the dynamic-peeling fringes) run as ordinary blocked GEMMs.
//
// Determinism.  The task graph for a given (plan, shape, cutoff) is fixed,
// and every C quadrant is written by one per-p chain of update tasks whose
// tag deps force increasing-r order, so results are **bitwise deterministic**
// across runs, schedules, and worker counts — and bitwise identical to
// run_recursive_sequential(), which executes the same operation sequence
// inline (the Engine uses it for nested calls from pool workers).  Results
// are *not* bitwise identical to the flat FmmExecutor (summing u2·(Σ u1·a)
// per level associates differently from the flat Kronecker gather); with
// the cutoff at or above the problem size no descent happens and the flat
// path runs unchanged.
//
// Write-after-write hazards and ordering:
//   * updates into one C quadrant: serialized per p by a tag chain, r
//     ascending (the only order both drivers produce);
//   * the k-fringe peel GEMM writes the interior C region, so it depends
//     on every chain's last tag; the n/m fringes write disjoint regions
//     and run as independent tasks;
//   * S_r/T_r/M_r buffers return to the pool through a release task that
//     depends on every consumer of M_r, and prep_r (r >= window) depends
//     on release[r - window] — bounding peak intermediate memory to
//     ~window products per node without ever blocking a worker.

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/plan.h"
#include "src/core/task_pool.h"
#include "src/linalg/mat_view.h"
#include "src/util/aligned_buffer.h"

namespace fmm {

// Thread-safe free-list allocator for the per-r S/T/M intermediates.
// acquire() never blocks: an empty free list allocates instead of waiting,
// so tasks holding leases can never deadlock the pool (the window throttle
// in the graph, not the allocator, bounds peak memory).  Buffers are
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
// 2 and 3 above.  Called concurrently from pool workers; it must run
// serially (task-level parallelism is the node's job), must not block on
// other tasks, and must be deterministic (same inputs -> same bits).  The
// Engine's leaf routes plan leaves through its executor cache.
template <typename T>
using RecursiveLeafFnT = std::function<void(
    const Plan* plan, MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b)>;

// Everything one recursive execution needs.  Copied into the node state;
// the pointed-to pool/buffers/leaf must outlive the returned future.  The
// BufferPool is shared across element types (it deals in raw 64-byte-
// aligned allocations; f32 leases round their byte size up to whole
// doubles), so mixed-precision serving shares one intermediate pool.
template <typename T>
struct RecursiveExecT {
  TaskPool* pool = nullptr;     // required by submit_recursive
  BufferPool* buffers = nullptr;
  RecursiveLeafFnT<T> leaf;
  index_t cutoff = 0;           // descend while min(m, n, k) > cutoff
  int window = 0;               // in-flight products per node; 0 = auto
                                // (max(2, pool workers), capped at R)
};
using RecursiveExec = RecursiveExecT<double>;

// True when (plan, m, n, k) qualifies for one step of task-recursive
// descent under `cutoff`: a positive cutoff, at least one plan level, every
// dimension strictly above the cutoff, and a non-empty divisible interior
// at the outermost level.
bool should_recurse(const Plan& plan, index_t m, index_t n, index_t k,
                    index_t cutoff);

// Builds the task graph for C += A * B on ctx.pool and returns the
// finalizer's future (resolves when every update and peel piece has
// landed).  Callers must keep the operand buffers alive until then; `plan`
// is copied.  Requires should_recurse(plan, ...) — callers route
// non-qualifying shapes to a flat executor instead.  T is deduced from C
// (and ctx); A and B may be writable views (see NoDeduce, mat_view.h).
template <typename T>
TaskFuture submit_recursive(const RecursiveExecT<T>& ctx, const Plan& plan,
                            MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                            ConstMatViewT<NoDeduce<T>> b);

// The sequential twin: the same decomposition, leaf calls, and per-element
// update order executed inline on the calling thread — bitwise identical
// to the task graph.  Used for nested synchronous multiplies on pool
// workers (blocking a worker on child tasks could deadlock a busy pool)
// and as the determinism oracle in tests.  ctx.pool may be null.
template <typename T>
void run_recursive_sequential(const RecursiveExecT<T>& ctx, const Plan& plan,
                              MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                              ConstMatViewT<NoDeduce<T>> b);

}  // namespace fmm
