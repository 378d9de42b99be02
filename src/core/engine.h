#pragma once

// fmm::Engine — the one public handle for serving FMM traffic.  One engine
// is shared by any number of host threads and serves a mixed-shape,
// mixed-precision request stream; it owns every amortization:
//
//   * a bounded, mutex-sharded, LRU-evicting **executor cache** keyed by
//     (plan — exact coefficient compare, m/n/k, requested GemmConfig).
//     Explicit-plan and auto-selected calls share the same cache, so a
//     shape served both ways compiles exactly one executor.  Cache hits
//     perform zero allocation; hit/miss/eviction counts are exposed via
//     stats().  Capacity comes from Options or the FMM_ENGINE_CACHE env.
//
//   * an **explicit-plan path** (multiply(plan, C, A, B)) and an **auto
//     path** (multiply(C, A, B)) that delegates shape -> algorithm choice
//     to the performance model, with a bounded LRU per-shape choice cache.
//
//   * **batches** described by BatchSpec: per-item views, a strided or
//     interleaved layout (base pointer + batch stride per operand, expanded
//     on the fly — no view array is materialized), and cross-shape batches
//     which Engine groups by (m, n, k) and fans out to one cached executor
//     per shape.  A batch item runs exactly as the same multiply sent
//     alone (above the recursive cutoff it descends), so a batch and the
//     per-item loop produce the same bits.
//
//   * **recoverable errors**: every entry point validates the request and
//     returns a Status instead of asserting, so a serving process survives
//     a malformed request.  Validation runs before any arithmetic — a batch
//     with one bad item computes nothing.  A failure during execution is a
//     Status too, inline or queued alike: an allocation failure is
//     kResourceExhausted, any other exception kInvalidArgument (C may then
//     be partially updated).
//
//   * an **online performance model**: every execution's wall time is
//     recorded into a footprint-keyed history store (src/model/history.h)
//     through the executor timing hook; once a key has enough low-variance
//     observations the measured GFLOP/s overrides the analytic model in
//     the auto path's ranking (the model stays the cold-start prior and
//     tie-breaker), and cached choices invalidate when an override could
//     flip.  Optionally persisted across processes (FMM_HISTORY_CACHE /
//     Options::history_path), keyed by CPU model like FMM_CALIB_CACHE.
//
//   * an **async surface**: submit(...) mirrors every multiply(...) form
//     and returns a TaskFuture<Status> immediately (validation still runs
//     synchronously — a malformed request resolves before any task is
//     queued).  Every request takes one path: it is lowered to shape
//     groups (one (m, n, k) plus a BatchAccessT over its operand triples;
//     a single request is a group of one item), and one dispatch runs it
//     as one task on the engine's TaskPool (task_pool.h), where each group
//     goes through one exec (auto-path GEMM arm, recursive descent, or a
//     cached executor).  Inside the task, all parallelism is fork-join on
//     the same pool — the BLIS loops, the products of a recursive descent,
//     and the shape groups of a cross-shape item batch, which overlap even
//     when each multiply runs serially.  multiply() itself is submit +
//     wait, except when called *from* a pool worker (a task body doing a
//     nested synchronous multiply): the same dispatch then executes inline,
//     because a task blocking on another task's future could deadlock a
//     fully busy pool, while an inline region simply runs serially there.
//
// Thread-safety: every public method may be called from any number of host
// threads concurrently.  Executor run() concurrency is the slot-pool story
// from executor.h; the caches are sharded/mutexed here.
//
//   Engine engine;                                    // process defaults
//   engine.multiply(plan, C, A, B);                   // explicit plan
//   engine.multiply(C, A, B);                         // model-selected
//   engine.multiply(plan, BatchSpec::items(items));   // batch (any shapes)
//   engine.multiply(plan, BatchSpec::strided(sb));    // strided layout
//   TaskFuture f = engine.submit(plan, C, A, B);      // async; f.status()
//   engine.wait_all();                                // drain every submit
//
// Element type: every single-request entry point is a template on T
// (double or float) deduced from C alone; A and B are
// ConstMatViewT<NoDeduce<T>>, so writable views convert as usual.  Batches
// carry T in their BatchSpec.  Both precisions run the same code path.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/executor.h"
#include "src/core/recursive.h"
#include "src/core/task_pool.h"
#include "src/model/history.h"
#include "src/model/selector.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace fmm {

// The auto path's per-shape decision.
struct AutoChoice {
  bool use_gemm = true;      // conventional GEMM won the model ranking
  std::optional<Plan> plan;  // set when use_gemm == false
  double predicted_seconds = 0.0;
  std::string description;   // "gemm" or the plan name
  // True when the winner's predicted_seconds came from the measured
  // history (confident observations) rather than the analytic model; the
  // measured rate is then in measured_gflops.
  bool measured = false;
  double measured_gflops = 0.0;
};

// One batch of multiplies, in one of two layouts:
//
//   items(...)   — an array of {C, A, B} view triples.  Shapes may differ
//                  per item (a cross-shape batch); Engine groups items by
//                  shape and runs each group through one cached executor.
//   strided(...) — one base pointer + batch stride per operand
//                  (StridedBatch, executor.h); a single shape, expanded
//                  index-by-index without materializing views.
//
// Both layouts are templated on the element type T (double or float); the
// factories record it and Engine::multiply dispatches on dtype().  A batch
// is homogeneous in element type — mixed-precision traffic is separate
// calls.
//
// BatchSpec does not own the views or buffers; they must outlive the call.
class BatchSpec {
 public:
  BatchSpec() = default;

  template <typename T>
  static BatchSpec items(const BatchItemT<T>* items, std::size_t count) {
    BatchSpec s;
    s.items_ = items;
    s.count_ = count;
    s.dtype_ = DTypeOf<T>::value;
    return s;
  }
  template <typename T>
  static BatchSpec items(const std::vector<BatchItemT<T>>& v) {
    return items(v.data(), v.size());
  }
  template <typename T>
  static BatchSpec strided(const StridedBatchT<T>& sb) {
    BatchSpec s;
    std::get<StridedBatchT<T>>(s.strided_) = sb;
    s.is_strided_ = true;
    s.count_ = sb.count;
    s.dtype_ = DTypeOf<T>::value;
    return s;
  }

  DType dtype() const { return dtype_; }
  bool is_strided() const { return is_strided_; }
  std::size_t size() const { return count_; }
  // Typed accessors; valid only when dtype() matches T.
  template <typename T>
  const BatchItemT<T>* items_as() const {
    return static_cast<const BatchItemT<T>*>(items_);
  }
  template <typename T>
  const StridedBatchT<T>& strided_as() const {
    return std::get<StridedBatchT<T>>(strided_);
  }

 private:
  const void* items_ = nullptr;
  std::size_t count_ = 0;
  std::tuple<StridedBatchT<double>, StridedBatchT<float>> strided_{};
  bool is_strided_ = false;
  DType dtype_ = DType::kF64;
};

class Engine {
 public:
  struct Options {
    // Base configuration for every multiply that does not pass its own
    // (threads, blocking overrides, pinned kernel).
    GemmConfig config;
    // Every knob resolves with explicit-Options > environment > default
    // precedence: a non-zero / non-empty / engaged value here wins
    // outright, 0 / empty / nullopt defers to the named env variable, and
    // an unset env falls back to the built-in default.

    // Executor-cache capacity (entries).  0 = FMM_ENGINE_CACHE env, else
    // kDefaultCacheCapacity.  Rounded up to a multiple of the shard count.
    // The auto path's per-shape choice cache holds 8x as many entries.
    std::size_t cache_capacity = 0;
    // Mutex shards for the executor cache.  0 = kDefaultShards, clamped to
    // the capacity.
    int shards = 0;
    // Workspace slots per compiled executor (FmmExecutor's `slots`); 0 =
    // the executor default (its resolved thread count).
    int slots = 0;
    // Worker threads for the async submit path (multiply() is submit +
    // wait, so these serve the synchronous calls too).  0 = FMM_WORKERS
    // env, else hardware concurrency.  The pool is created lazily on first
    // use.  A request's data parallelism forks up to config.num_threads
    // participants (0 = every worker) from this same pool, so concurrent
    // requests share the workers instead of oversubscribing the cores.
    int workers = 0;
    // Calibration-cache file for the measured kernel rates.  Non-empty
    // overrides FMM_CALIB_CACHE *process-wide* (the rate cache is shared
    // by every engine in the process); empty defers to the env.
    std::string calib_cache_path;
    // Online performance model (src/model/history.h).  history: engaged
    // value wins, nullopt = FMM_HISTORY env flag, default on.  Its
    // confidence gate (observations before a measured rate may override
    // the analytic ranking, default 10) is history().set_tuning(...).
    std::optional<bool> history;
    // Persistence file for the history store: loaded in the constructor,
    // saved in the destructor (and by save_history()).  Empty =
    // FMM_HISTORY_CACHE env; empty everywhere = in-memory only.
    std::string history_path;
    // Recursive descent cutoff (src/core/recursive.h): multiplies whose
    // every dimension exceeds the cutoff run one fast-algorithm level on
    // the request's threads and recurse, handing each product below the
    // cutoff to a cached executor leaf: the full windows of products run
    // one per thread on serial leaves, the products left over run one at a
    // time on leaves spanning every thread.  > 0 = that leaf
    // size; 0 = FMM_RECURSE_CUTOFF env (where 0 disables), else the
    // analytic default from the detected cache topology
    // (recommended_recurse_cutoff); < 0 disables descent entirely.
    long long recurse_cutoff = 0;
    // Tracing (src/obs/trace.h): non-empty joins the process-wide trace
    // session and the Chrome trace-event JSON is written to this path when
    // the last participating engine is destroyed (the first participant's
    // path wins).  Empty = FMM_TRACE env; empty everywhere = no tracing
    // (cost: one relaxed atomic load per instrumented site).
    std::string trace_path;
    // Metrics capture gate (src/obs/metrics.h): gates the call sites whose
    // *capture* costs something (clock reads for the latency / queue-wait
    // histograms).  The counters that replaced CacheStats' atomics are
    // always on.  Engaged value wins, nullopt = FMM_METRICS env flag,
    // default on.
    std::optional<bool> metrics;
  };

  struct CacheStats {
    std::uint64_t hits = 0;        // executor-cache hits
    std::uint64_t misses = 0;      // executor compilations
    std::uint64_t evictions = 0;   // executors LRU-evicted
    std::size_t entries = 0;       // live executors
    std::uint64_t choice_hits = 0;
    std::uint64_t choice_misses = 0;
    std::uint64_t choice_evictions = 0;
    std::size_t choice_entries = 0;
    // Online performance model (all 0 when history is disabled):
    std::uint64_t history_observations = 0;  // timings recorded
    std::size_t history_keys = 0;            // distinct footprint keys
    std::uint64_t history_hits = 0;      // rankings that used measured data
    std::uint64_t history_overrides = 0; // rankings where measured flipped
                                         // the analytic winner
    std::uint64_t recursive_runs = 0;    // multiplies (batch items count
                                         // one each) that descended into
                                         // the recursive path
  };

  static constexpr std::size_t kDefaultCacheCapacity = 32;
  static constexpr int kDefaultShards = 8;

  Engine();  // default Options
  explicit Engine(const Options& opts);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The single-request forms are templates on the element type (see the
  // top of this file); each forwards to submit_single<T>.

  // --- Explicit-plan path -------------------------------------------------
  // C += A * B through the cached executor for (plan, shape, config).
  // Element type is a runtime plan property: the call stamps DTypeOf<T> on
  // its copy of the plan, so one Plan value may serve both precisions while
  // the executor cache, choice cache and history keys stay strictly
  // per-dtype.
  template <typename T>
  Status multiply(const Plan& plan, MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                  ConstMatViewT<NoDeduce<T>> b) {
    return submit_single<T>(&plan, c, a, b, cfg_, nullptr).status();
  }
  // Per-call config override (keys the cache alongside the plan and shape).
  template <typename T>
  Status multiply(const Plan& plan, MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                  ConstMatViewT<NoDeduce<T>> b, const GemmConfig& cfg) {
    return submit_single<T>(&plan, c, a, b, cfg, nullptr).status();
  }

  // --- Auto path ----------------------------------------------------------
  // C += A * B with the model-selected algorithm for the shape (cached
  // per-shape decision; compiled executors shared with the explicit path).
  template <typename T>
  Status multiply(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                  ConstMatViewT<NoDeduce<T>> b) {
    return submit_single<T>(nullptr, c, a, b, cfg_, nullptr).status();
  }
  // As above, and reports the decision this call executed through
  // `executed` (a shared snapshot; same single cache lookup the execution
  // uses, so it is exactly what ran).  `executed` may be null; it is left
  // untouched when validation rejects the request.  It stays valid for the
  // task's lifetime because this call waits.
  template <typename T>
  Status multiply(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                  ConstMatViewT<NoDeduce<T>> b,
                  std::shared_ptr<const AutoChoice>* executed) {
    return submit_single<T>(nullptr, c, a, b, cfg_, executed).status();
  }

  // --- Batches ------------------------------------------------------------
  // Every item through the one plan; cross-shape item batches are grouped
  // by shape, one cached executor per group.  The BatchSpec carries its
  // element type, so these entry points serve both precisions.
  Status multiply(const Plan& plan, const BatchSpec& batch);
  Status multiply(const Plan& plan, const BatchSpec& batch,
                  const GemmConfig& cfg);
  // Auto-selected per shape group.
  Status multiply(const BatchSpec& batch);

  // --- Async surface ------------------------------------------------------
  // Every submit mirrors a multiply overload: validation runs now (an
  // invalid request returns an already-resolved future), the arithmetic
  // runs on the engine's task pool, and the future resolves when it
  // finishes.  Operand buffers must stay alive and unmodified until then;
  // the Plan and any item array are copied, so *they* need not outlive the
  // call.  A batch is one task (its shape groups share it as a fork-join
  // region) and the returned future resolves when the whole batch is
  // done.  Results are bitwise identical to the synchronous forms.
  template <typename T>
  TaskFuture submit(const Plan& plan, MatViewT<T> c,
                    ConstMatViewT<NoDeduce<T>> a,
                    ConstMatViewT<NoDeduce<T>> b) {
    return submit_single<T>(&plan, c, a, b, cfg_, nullptr);
  }
  template <typename T>
  TaskFuture submit(const Plan& plan, MatViewT<T> c,
                    ConstMatViewT<NoDeduce<T>> a, ConstMatViewT<NoDeduce<T>> b,
                    const GemmConfig& cfg) {
    return submit_single<T>(&plan, c, a, b, cfg, nullptr);
  }
  template <typename T>
  TaskFuture submit(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
                    ConstMatViewT<NoDeduce<T>> b) {
    return submit_single<T>(nullptr, c, a, b, cfg_, nullptr);
  }
  TaskFuture submit(const Plan& plan, const BatchSpec& batch);
  TaskFuture submit(const Plan& plan, const BatchSpec& batch,
                    const GemmConfig& cfg);
  TaskFuture submit(const BatchSpec& batch);
  // Blocks until every task this engine has submitted (from any thread)
  // has finished.
  void wait_all();

  // --- Auto-path inspection / control -------------------------------------
  // The decision multiply() would take for a shape (computed and cached on
  // first use).  Returned by value: the underlying cache entry may be
  // evicted at any time.  `dtype` ranks within that element type's kernel
  // family under its own model parameters.
  AutoChoice choice_for(index_t m, index_t n, index_t k,
                        DType dtype = DType::kF64);
  // Allocation-free-on-hit variant: a shared snapshot of the cached
  // decision (stays valid across eviction; never null).  The hot-path form
  // for callers that query per call.
  std::shared_ptr<const AutoChoice> choice_handle(index_t m, index_t n,
                                                  index_t k,
                                                  DType dtype = DType::kF64);
  // Measure machine parameters for the model (~1 s, once; both element
  // types); until then the auto path ranks with literature-default
  // parameters.  Clears the choice cache — decisions made under the old
  // parameters are stale.  Returns the calibration-cache file status
  // (arch::calibration_file_status()): the parameters are always updated
  // best-effort, a non-OK Status means the *persisted* rate cache is not
  // working.
  Status calibrate();
  ModelParams params(DType dtype = DType::kF64) const;

  // --- Online performance model -------------------------------------------
  // The history store: measured per-(plan, shape-bucket, kernel, threads)
  // rates recorded by every execution this engine runs (see
  // src/model/history.h).  Exposed mutable so tests and tools can inject
  // or clear observations; all engine bookkeeping is internal.
  PerfHistory& history() { return history_; }
  const PerfHistory& history() const { return history_; }
  bool history_enabled() const { return history_enabled_; }
  // Sorted aggregate dump for observability (benches print it).
  std::vector<PerfHistory::Entry> history_snapshot() const {
    return history_.snapshot();
  }
  // Persist the store to the configured history path now (the destructor
  // also saves).  kInvalidArgument when no path is configured, kIOError on
  // write failure.
  Status save_history();
  // The Status of the constructor's history load: OK (loaded or no file),
  // kIOError (unreadable), or kCorruptData (bad version/row — the store
  // started empty).
  Status history_load_status() const { return history_load_status_; }
  // The footprint key an execution of `plan` (resp. conventional GEMM) at
  // (m, n, k) under this engine's config records under — for tests and
  // tools that pre-seed or inspect the store.
  HistoryKey history_key(const Plan& plan, index_t m, index_t n,
                         index_t k) const;
  HistoryKey gemm_history_key(index_t m, index_t n, index_t k) const;

  // --- Observability -------------------------------------------------------
  // The engine's metrics registry: counters (cache traffic, recursive
  // descents), gauges (live entries), and latency / throughput histograms.
  // Exposed mutable so hosts can hang their own instruments off it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  // Refreshes the level gauges (cache entries, history keys, buffer-pool
  // footprint) and dumps every instrument; the text form is what
  // examples/serving.cpp prints, the JSON form is one parseable object.
  std::string metrics_report();
  std::string metrics_report_json();

  // --- Introspection ------------------------------------------------------
  CacheStats stats() const;
  std::size_t cache_capacity() const { return cap_total_; }
  std::size_t choice_capacity() const { return choice_cap_; }
  // Resolved worker count of the engine's pool.
  int workers() const { return workers_; }
  // Resolved recursive leaf cutoff (0 = descent disabled).
  index_t recurse_cutoff() const { return recurse_cutoff_; }
  const GemmConfig& config() const { return cfg_; }
  const std::string& history_path() const { return history_path_; }

 private:
  struct Entry;
  struct Shard;
  struct ChoiceEntry;

  // The compiled executor for (plan, m, n, k, cfg): cache hit or compile +
  // insert (with LRU eviction).  Never fails; allocation failures throw.
  // The cache entry stores the executor type-erased; the plan's dtype
  // (part of the key) discriminates, so a hit always casts back to the
  // type it was compiled as.  Callers pass a plan already stamped with
  // DTypeOf<T>::value.
  template <typename T>
  std::shared_ptr<FmmExecutorT<T>> executor_for(const Plan& plan, index_t m,
                                                index_t n, index_t k,
                                                const GemmConfig& cfg);
  // Request observation.  request_start() is the capture gate: the
  // submit-time clock read happens only when tracing or metrics capture is
  // on (0 otherwise, and observe_request is then a no-op).  The span /
  // latency sample covers queue wait + execution per path.
  enum class RequestPath { kExplicit, kAuto, kBatch };
  std::uint64_t request_start() const;
  void observe_request(RequestPath path, index_t m, index_t n, index_t k,
                       std::size_t items, std::uint64_t t0);
  // submit_* validate the request and lower it to shape groups; every
  // multiply/submit form lands here.  Explicitly instantiated for double
  // and float in engine.cc.
  template <typename T>
  TaskFuture submit_single(const Plan* plan, MatViewT<T> c, ConstMatViewT<T> a,
                           ConstMatViewT<T> b, const GemmConfig& cfg,
                           std::shared_ptr<const AutoChoice>* executed);
  template <typename T>
  TaskFuture submit_batch(const Plan* plan, const BatchSpec& batch,
                          const GemmConfig& cfg);
  // The one request lifecycle: stamps the plan for T, runs body(plan)
  // inline on a pool worker or as one task on the pool, maps a throw to a
  // Status the same way on both, and records the request observation.
  template <typename T, typename Body>
  TaskFuture dispatch(const Plan* plan, RequestPath path, index_t m,
                      index_t n, index_t k, std::size_t items, Body body);
  // Runs one shape group (count >= 1): the auto-path choice lookup (its
  // snapshot stored through `executed` when non-null), then the timed GEMM
  // arm, a recursive descent per item, or the cached executor's run_batch.
  // Throws what the execution throws.
  template <typename T>
  void exec(const Plan* plan, const BatchAccessT<T>& group,
            const GemmConfig& cfg, std::shared_ptr<const AutoChoice>* executed);
  TaskPool& pool();
  // The leaf/buffer/cutoff bundle the recursive descent runs with under
  // `cfg`, with threads_for(cfg) as its participant budget: leaves execute
  // through the executor cache (plain GEMM for nullptr plans and fringes),
  // serially or on threads_for(cfg) threads as the descent asks; a serial
  // leaf grows its cached executor's slot pool to the worker count so
  // concurrent leaves never serialize on workspace leases.
  template <typename T>
  RecursiveExecT<T> recursive_ctx(const GemmConfig& cfg);
  void ensure_plan_space_locked();
  // Builds the gemm footprint key under a per-call config and element type
  // (the f32 key is dtype-salted and names the f32 kernel's cache key).
  HistoryKey gemm_key_for(index_t m, index_t n, index_t k,
                          const GemmConfig& cfg, DType dtype) const;
  // cfg's thread cap resolved against this engine's pool (0 = workers_).
  int threads_for(const GemmConfig& cfg) const {
    return cfg.num_threads > 0 ? cfg.num_threads : workers_;
  }
  // Records an auto-path gemm execution (the executor hook's twin for the
  // fallback that bypasses FmmExecutor).
  void record_gemm(index_t m, index_t n, index_t k, const GemmConfig& cfg,
                   DType dtype, double seconds, std::size_t items);
  // The one consumer behind every execution observation — executor hook
  // and gemm arm alike: history (under `hkey` when non-null), the GFLOP/s
  // and batch-size histograms, and the "executor.run" trace span.
  void observe_execution(const ExecObservation& o, const HistoryKey* hkey);
  // Recomputes the level gauges a report should show current (cache and
  // choice entries, history size, recursive buffer-pool footprint).
  void refresh_gauges();

  GemmConfig cfg_;
  int slots_ = 0;
  int workers_ = 0;
  std::size_t cap_total_ = 0;      // executor entries, whole engine
  std::size_t cap_per_shard_ = 0;  // executor entries per shard
  std::size_t choice_cap_ = 0;

  // Observability.  The registry owns every counter the old CacheStats
  // atomics became (stats() reads them back); the pointers below are
  // resolved once in the constructor and never change.  owns_trace_ marks
  // an engine that joined the refcounted trace session.
  obs::MetricsRegistry metrics_;
  bool owns_trace_ = false;
  obs::Histogram* lat_explicit_ = nullptr;  // request latency per path (us)
  obs::Histogram* lat_auto_ = nullptr;
  obs::Histogram* lat_batch_ = nullptr;
  obs::Histogram* exec_gflops_ = nullptr;  // effective GFLOP/s per execution
  obs::Histogram* batch_items_ = nullptr;  // items per multi-item batch

  std::vector<std::unique_ptr<Shard>> shards_;
  // The async pool, created on first use (double-checked through
  // pool_ptr_ so the hot path is one acquire load).
  std::mutex pool_mu_;
  std::unique_ptr<TaskPool> pool_;
  std::atomic<TaskPool*> pool_ptr_{nullptr};
  std::atomic<std::uint64_t> tick_{1};
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;

  // Auto path: plan space built lazily (the explicit path never pays for
  // it), model parameters, bounded per-shape choice cache.  params_gen_
  // bumps on every calibrate(); a choice computed under an older
  // generation is served once but never cached (the clear in calibrate()
  // must not be undone by an in-flight ranking).
  mutable std::mutex choice_mu_;
  bool space_built_ = false;
  std::vector<Plan> space_;
  ModelParams params_;                                     // f64
  ModelParams params_f32_ = default_model_params(DType::kF32);
  std::uint64_t params_gen_ = 0;
  std::vector<ChoiceEntry> choices_;
  obs::Counter* choice_hits_ = nullptr;
  obs::Counter* choice_misses_ = nullptr;
  obs::Counter* choice_evictions_ = nullptr;

  // Online performance model: the store itself, the resolved knobs (fixed
  // at construction), and the ranking counters.
  // Task-recursive descent: resolved cutoff, the S/T/M intermediate
  // allocator shared by every descent this engine runs, and the count of
  // multiplies that took the recursive path.
  index_t recurse_cutoff_ = 0;
  BufferPool recurse_buffers_;
  obs::Counter* recursive_runs_ = nullptr;

  PerfHistory history_;
  bool history_enabled_ = true;
  std::string history_path_;
  Status history_load_status_;
  obs::Counter* history_hits_ = nullptr;
  obs::Counter* history_overrides_ = nullptr;
};

// A process-wide Engine with default Options, for callers that do not own
// one (tests, benches).  Constructed on first use, never destroyed before
// program exit.
Engine& default_engine();

}  // namespace fmm
