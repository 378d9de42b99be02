#pragma once

// Compile-once / run-many FMM execution — the serving path.
//
// Every multiply needs shape-dependent setup: resolving blocking against
// the machine, installing the plan's kernel, gathering the non-zero
// coefficient terms of U, V, W per product r, sizing workspaces, and
// computing the peeling decomposition.  For one big multiply that setup is
// noise; for millions of small-to-medium calls it dominates (Benson &
// Ballard, SC'14: fast-matmul wins at modest sizes exactly when framework
// overheads are amortized).
//
// FmmExecutorT<T> performs that derivation once, at construction, for one
// (plan, m, n, k, config) tuple:
//
//   * blocking resolved and frozen (explicit values beat env re-reads),
//     clamped to the problem so small-shape executors stay small;
//   * the plan's kernel threaded by value — no caller state is mutated;
//   * per-r U/V/W term lists compiled to (row, col, coeff) offsets;
//   * the dynamic-peeling decomposition precomputed;
//   * per-slot workspaces fully sized.
//
// run() then does zero allocation and zero re-derivation, and is safe to
// call from multiple host threads concurrently: each call leases a
// workspace slot from a fixed pool (blocking briefly when more host
// threads than slots arrive).  Arithmetic depends only on the plan, shape
// and config, never on which slot or thread ran it.
//
// run_batch() executes many operand triples against the one compiled plan.
// For small shapes (too few i_c blocks to feed the threads — the same
// criterion the fused driver uses to switch parallel modes) the items
// themselves become the parallel dimension, each executed serially; when
// every item also shares one B operand, the per-r packed B~ panels are
// built once and reused across all items.
//
// The element type T (double or float; see src/gemm/dtype.h) selects which
// kernel family the compiled executor dispatches into; FmmExecutor /
// BatchItem / StridedBatch remain the f64 spellings.  Explicit
// instantiations live in executor.cc.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/plan.h"
#include "src/gemm/gemm.h"
#include "src/linalg/matrix.h"
#include "src/util/aligned_buffer.h"

namespace fmm {

// One sub-multiplication of the dynamic-peeling decomposition.
struct PeelPiece {
  // Half-open element ranges into C, A, B for a plain GEMM
  // C[mr0:mr1, nc0:nc1] += A[mr0:mr1, kr0:kr1] * B[kr0:kr1, nc0:nc1].
  index_t m0, m1, k0, k1, n0, n1;
};

// The dynamic-peeling decomposition for a problem of size (m, n, k) with an
// FMM interior of (m1, n1, k1) = (m - m%Mt, ...): the list of fringe GEMMs
// that complete the product (in order).  Exposed for unit testing.
std::vector<PeelPiece> peel_pieces(index_t m, index_t n, index_t k,
                                   index_t m1, index_t n1, index_t k1);

// One operand triple of a batch.  Every item must match the executor's
// compiled shape; strides may differ per item.
template <typename T>
struct BatchItemT {
  MatViewT<T> c;
  ConstMatViewT<T> a;
  ConstMatViewT<T> b;
};

// A batch laid out as one base pointer plus a fixed element stride between
// consecutive items, per operand: item i is
//
//   C_i = c + i * stride_c   (m x n, row stride ldc)
//   A_i = a + i * stride_a   (m x k, row stride lda)
//   B_i = b + i * stride_b   (k x n, row stride ldb)
//
// A row stride of 0 means dense (ldc = n, lda = k, ldb = n).  A *batch*
// stride of 0 on A or B means every item shares that operand — stride_b = 0
// is the one-weight-many-activations motif and feeds the shared-B prepacked
// fast path directly.  stride_c = 0 with count > 1 would make every item
// write the same C and is rejected by the Engine validation layer.  The
// items are expanded internally (a view is computed per index on the fly);
// no per-item view array is ever materialized.
template <typename T>
struct StridedBatchT {
  index_t m = 0, n = 0, k = 0;
  std::size_t count = 0;
  T* c = nullptr;
  const T* a = nullptr;
  const T* b = nullptr;
  index_t ldc = 0, lda = 0, ldb = 0;                 // 0 = dense
  index_t stride_c = 0, stride_a = 0, stride_b = 0;  // item-to-item strides
};

using BatchItem = BatchItemT<double>;
using StridedBatch = StridedBatchT<double>;
using BatchItemF32 = BatchItemT<float>;
using StridedBatchF32 = StridedBatchT<float>;

// What one observed execution looked like — the payload of the executor
// timing hook (see FmmExecutorT::set_timing_hook).  Shared across element
// types so a consumer (the Engine) can handle both with one function.
struct ExecObservation {
  double seconds = 0.0;
  std::size_t items = 1;    // 1 per run(), the item count per batch
  const char* kernel = "";  // frozen kernel registry name (static string)
  DType dtype = DType::kF64;
  index_t m = 0, n = 0, k = 0;  // compiled shape
};

template <typename T>
class FmmExecutorT {
 public:
  // Compiles `plan` for problems of exactly C (m x n) += A (m x k) *
  // B (k x n) under `cfg`.  `slots` is how many host threads can run()
  // concurrently without waiting; 0 sizes the pool to the resolved thread
  // count (which run_batch's item-parallel mode needs anyway).  All
  // allocation happens here.
  explicit FmmExecutorT(const Plan& plan, index_t m, index_t n, index_t k,
                        const GemmConfig& cfg = GemmConfig{}, int slots = 0);
  ~FmmExecutorT();

  FmmExecutorT(const FmmExecutorT&) = delete;
  FmmExecutorT& operator=(const FmmExecutorT&) = delete;

  // C += A * B.  Operands must match the compiled shape.  Thread-safe;
  // zero allocation, zero re-derivation.
  void run(MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b);

  // Executes every item (C_i += A_i * B_i) against the compiled plan.
  // Items run in parallel (one per thread, serial inside) when the shape
  // is too small to feed the threads from within one multiply; otherwise
  // sequentially with full internal parallelism.  Results are bitwise
  // identical to calling run() per item.  Empty and single-item batches
  // short-circuit before any batch bookkeeping (no shared-B mutex, no
  // parallel region).  Debug builds assert that no two items write the
  // same C (a silently racy batch otherwise).
  void run_batch(const BatchItemT<T>* items, std::size_t count);
  void run_batch(const std::vector<BatchItemT<T>>& items) {
    run_batch(items.data(), items.size());
  }

  // run_batch over a strided/interleaved layout: per-index views are
  // computed on the fly from the base pointers — no BatchItem array is
  // materialized.  sb's shape must match the compiled shape (the Engine
  // validates; this layer asserts).  stride_b == 0 routes through the
  // shared-B prepacked fast path when the plan/shape allow it.
  void run_batch_strided(const StridedBatchT<T>& sb);

  // Observation hook: called once per top-level run() (items == 1) and
  // once per multi-item batch (items == count) — a batch is one
  // observation of `items` multiplies, never double-counted per item.  The
  // ExecObservation carries everything a consumer needs to attribute the
  // timing (the frozen kernel name, element type, and compiled shape), so
  // one hook serves both the online performance model and the tracing
  // layer (src/obs/trace.h).  The hook runs on the calling thread after
  // the arithmetic finishes and must be cheap and thread-safe (concurrent
  // run() calls invoke it concurrently).  Install before the executor is
  // shared between threads (the Engine installs it right after
  // construction); not synchronized against in-flight runs.
  using TimingHook = std::function<void(const ExecObservation&)>;
  void set_timing_hook(TimingHook hook) { hook_ = std::move(hook); }
  bool has_timing_hook() const { return static_cast<bool>(hook_); }

  // Grows the workspace-slot pool to at least `target` leases (never
  // shrinks; capped at 64).  Nested execution needs this: when many
  // TaskPool workers funnel recursive-leaf runs through one cached
  // executor compiled with a small slot count (Engine slots = 1, say),
  // the leases would serialize the leaves — or, with the parent call
  // itself holding a slot, stall them behind it.  Growing the pool keeps
  // leaf tasks concurrent without recompiling.  Safe to call while other
  // threads run(); idempotent once the pool is large enough.
  void ensure_slots(int target);

  const Plan& plan() const { return plan_; }
  index_t m() const { return m_; }
  index_t n() const { return n_; }
  index_t k() const { return k_; }
  // The frozen configuration: resolved blocking (clamped to the problem)
  // and the kernel carried by value.
  const GemmConfig& config() const { return frozen_cfg_; }
  const BlockingParams& blocking() const { return bp_; }
  int threads() const { return nth_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }
  // Plan name including the frozen kernel, e.g. "<2,2,2> ABC [avx2_6x8]".
  std::string name() const;

 private:
  struct Slot;

  // One non-zero coefficient of column r of U/V/W, compiled to the element
  // offset of its operand block: ptr = base + row * stride + col.
  struct TermRef {
    index_t row;
    index_t col;
    double coeff;
  };

  // Uniform indexed access over the two batch layouts: a BatchItem array,
  // or a StridedBatch expanded one index at a time (branching on the mode
  // per item costs nothing next to a multiply, and avoids materializing
  // views for the strided layout).
  struct BatchAccess {
    const BatchItemT<T>* items = nullptr;  // per-item mode when non-null
    StridedBatchT<T> sb;                   // strided mode otherwise
    BatchItemT<T> at(std::size_t i) const {
      if (items != nullptr) return items[i];
      const index_t off = static_cast<index_t>(i);
      return {MatViewT<T>(sb.c + off * sb.stride_c, sb.m, sb.n, sb.ldc),
              ConstMatViewT<T>(sb.a + off * sb.stride_a, sb.m, sb.k, sb.lda),
              ConstMatViewT<T>(sb.b + off * sb.stride_b, sb.k, sb.n, sb.ldb)};
    }
  };

  // Fills the hook observation from the frozen compile-time facts.
  ExecObservation make_observation(double seconds, std::size_t items) const {
    ExecObservation o;
    o.seconds = seconds;
    o.items = items;
    o.kernel = bp_.kernel != nullptr ? bp_.kernel->name : "";
    o.dtype = plan_.dtype;
    o.m = m_;
    o.n = n_;
    o.k = k_;
    return o;
  }

  std::unique_ptr<Slot> make_slot();
  Slot* acquire_slot();
  Slot* try_acquire_slot();
  void release_slot(Slot* slot);
  // run() minus the timing hook: the batch paths' per-item workhorse (the
  // enclosing batch reports one aggregate observation instead).
  void run_unobserved(MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b);
  // The full multiply (interior + peel) on one slot.  `cfg` is either the
  // frozen config or its serial twin (batch item-parallel mode).
  void run_on_slot(Slot& slot, MatViewT<T> c, ConstMatViewT<T> a,
                   ConstMatViewT<T> b, const GemmConfig& cfg);
  void run_batch_impl(const BatchAccess& acc, std::size_t count,
                      bool shared_b);
  // Shared-B fast path with pack/compute overlap: one lane packs the
  // per-r B~ panels in order, publishing each through an atomic watermark;
  // the others consume items, gating each item's r step on that watermark.
  void pack_shared_b(Slot& slot, ConstMatViewT<T> b,
                     std::atomic<int>& panels_ready);
  void run_item_prepacked(Slot& slot, const BatchItemT<T>& item,
                          const std::atomic<int>& panels_ready);

  Plan plan_;
  index_t m_ = 0, n_ = 0, k_ = 0;
  index_t m1_ = 0, n1_ = 0, k1_ = 0;  // divisible interior (0 if none)
  index_t ms_ = 0, ns_ = 0, ks_ = 0;  // interior submatrix sizes
  GemmConfig frozen_cfg_;   // resolved blocking + kernel, by value
  GemmConfig serial_cfg_;   // frozen_cfg_ with num_threads = 1
  BlockingParams bp_;       // the blocking every run() uses
  int nth_ = 1;             // resolved internal thread count
  std::vector<PeelPiece> peel_;

  // Flattened per-r term lists; terms of product r occupy [ofs[r], ofs[r+1]).
  std::vector<TermRef> a_refs_, b_refs_, c_refs_;
  std::vector<int> a_ofs_, b_ofs_, c_ofs_;
  int max_a_ = 0, max_b_ = 0, max_c_ = 0;  // longest per-r list

  // Workspace slot pool (mutex + condvar lease; run() blocks when empty).
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
  std::mutex mu_;
  std::condition_variable cv_;

  // Observation hook (see set_timing_hook).
  TimingHook hook_;

  // Shared-B batch fast path: all R packed B~ panels prepacked once.
  bool shared_b_possible_ = false;
  index_t shared_b_panel_elems_ = 0;  // elements per r
  AlignedBuffer<T> shared_b_;
  std::mutex batch_mu_;  // guards shared_b_ across concurrent run_batch
};

extern template class FmmExecutorT<double>;
extern template class FmmExecutorT<float>;

using FmmExecutor = FmmExecutorT<double>;
using FmmExecutorF32 = FmmExecutorT<float>;

}  // namespace fmm
