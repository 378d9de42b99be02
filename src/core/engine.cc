#include "src/core/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>

#include "src/arch/cache_info.h"
#include "src/arch/calibrate.h"
#include "src/gemm/fused.h"
#include "src/gemm/gemm.h"
#include "src/model/perf_model.h"
#include "src/obs/trace.h"
#include "src/util/env.h"
#include "src/util/timer.h"

namespace fmm {
namespace {

// ---------------------------------------------------------------------------
// Key hashing.  Equality is exact (same_execution + field compares); the
// hash only routes lookups to a shard and prunes the scan, so collisions
// are harmless.
// ---------------------------------------------------------------------------

std::size_t hash_combine(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::size_t hash_doubles(std::size_t h, const std::vector<double>& v) {
  for (double d : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    h = hash_combine(h, static_cast<std::size_t>(bits));
  }
  return h;
}

std::size_t key_hash(const Plan& plan, index_t m, index_t n, index_t k,
                     const GemmConfig& cfg) {
  std::size_t h = 0xfeedface;
  h = hash_combine(h, static_cast<std::size_t>(plan.variant));
  h = hash_combine(h, static_cast<std::size_t>(plan.dtype));
  h = hash_combine(h, std::hash<const void*>{}(plan.kernel));
  const FmmAlgorithm& f = plan.flat;
  h = hash_combine(h, static_cast<std::size_t>(f.mt));
  h = hash_combine(h, static_cast<std::size_t>(f.kt));
  h = hash_combine(h, static_cast<std::size_t>(f.nt));
  h = hash_combine(h, static_cast<std::size_t>(f.R));
  h = hash_doubles(h, f.U);
  h = hash_doubles(h, f.V);
  h = hash_doubles(h, f.W);
  h = hash_combine(h, static_cast<std::size_t>(m));
  h = hash_combine(h, static_cast<std::size_t>(n));
  h = hash_combine(h, static_cast<std::size_t>(k));
  h = hash_combine(h, static_cast<std::size_t>(cfg.mc));
  h = hash_combine(h, static_cast<std::size_t>(cfg.kc));
  h = hash_combine(h, static_cast<std::size_t>(cfg.nc));
  h = hash_combine(h, static_cast<std::size_t>(cfg.num_threads));
  h = hash_combine(h, std::hash<const void*>{}(cfg.kernel));
  return h;
}

// ---------------------------------------------------------------------------
// Request validation.  Cheap exact checks only: base-pointer aliasing is
// detected, partial overlaps of distinct blocks remain the caller's
// responsibility (blocks of one parent matrix are legitimate operands).
// ---------------------------------------------------------------------------

std::string shape_str(index_t m, index_t n, index_t k) {
  return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " k=" + std::to_string(k);
}

// The history footprint salt per element type: 0 for f64 keeps every
// pre-existing persisted key unchanged; f32 keys can never collide with
// the f64 key of the same plan and shape.
constexpr std::uint64_t dtype_history_salt(DType dtype) {
  return dtype == DType::kF32 ? 0x6633326b65797aull : 0;
}

constexpr index_t kIndexMax = std::numeric_limits<index_t>::max();

// True when `rows` rows of `len` elements, `stride` apart, span more than
// index_t can address: (rows - 1) * stride + len > kIndexMax.  Decided by a
// division, so the overflowing product is never formed.  Arguments are
// non-negative.
bool span_overflows(index_t rows, index_t stride, index_t len) {
  return rows > 1 && stride > 0 && rows - 1 > (kIndexMax - len) / stride;
}

// The elements that span covers; only after span_overflows() said no.
index_t span(index_t rows, index_t stride, index_t len) {
  return rows == 0 ? 0 : (rows - 1) * stride + len;
}

template <typename T>
Status validate_triple(MatViewT<T> c, ConstMatViewT<T> a, ConstMatViewT<T> b) {
  if (c.rows() < 0 || c.cols() < 0 || a.rows() < 0 || a.cols() < 0 ||
      b.rows() < 0 || b.cols() < 0) {
    return Status::error(StatusCode::kInvalidShape,
                         "negative operand dimension");
  }
  if (a.rows() != c.rows() || b.cols() != c.cols() || a.cols() != b.rows()) {
    return Status::error(
        StatusCode::kInvalidShape,
        "operands do not conform: C " + std::to_string(c.rows()) + "x" +
            std::to_string(c.cols()) + ", A " + std::to_string(a.rows()) +
            "x" + std::to_string(a.cols()) + ", B " +
            std::to_string(b.rows()) + "x" + std::to_string(b.cols()));
  }
  if (c.stride() < c.cols() || a.stride() < a.cols() ||
      b.stride() < b.cols()) {
    return Status::error(StatusCode::kInvalidStride,
                         "row stride smaller than the row length");
  }
  if (span_overflows(c.rows(), c.stride(), c.cols()) ||
      span_overflows(a.rows(), a.stride(), a.cols()) ||
      span_overflows(b.rows(), b.stride(), b.cols())) {
    return Status::error(StatusCode::kInvalidShape,
                         "operand extent overflows the index type");
  }
  if (!c.empty() && c.data() == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null C data");
  }
  if (!a.empty() && a.data() == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null A data");
  }
  if (!b.empty() && b.data() == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null B data");
  }
  if (!c.empty() && (static_cast<const T*>(c.data()) == a.data() ||
                     static_cast<const T*>(c.data()) == b.data())) {
    return Status::error(StatusCode::kAliasing,
                         "C aliases an input operand");
  }
  return Status{};
}

// Normalizes the dense-default row strides in place, then validates.
template <typename T>
Status validate_strided(StridedBatchT<T>& sb) {
  if (sb.m < 0 || sb.n < 0 || sb.k < 0) {
    return Status::error(StatusCode::kInvalidShape,
                         "negative batch dimension: " +
                             shape_str(sb.m, sb.n, sb.k));
  }
  if (sb.ldc == 0) sb.ldc = sb.n;
  if (sb.lda == 0) sb.lda = sb.k;
  if (sb.ldb == 0) sb.ldb = sb.n;
  if (sb.ldc < sb.n || sb.lda < sb.k || sb.ldb < sb.n) {
    return Status::error(StatusCode::kInvalidStride,
                         "row stride smaller than the row length");
  }
  if (sb.stride_c < 0 || sb.stride_a < 0 || sb.stride_b < 0) {
    return Status::error(StatusCode::kInvalidStride,
                         "negative batch stride");
  }
  if (sb.count > static_cast<std::size_t>(kIndexMax)) {
    return Status::error(StatusCode::kInvalidShape,
                         "batch count overflows the index type");
  }
  // Every offset the executor forms, item * stride + row * ld + col, must
  // be addressable: per operand, one item's span, then `count` of them
  // `stride` apart (|| checks each item span before span() forms it).
  const index_t count = static_cast<index_t>(sb.count);
  if (span_overflows(sb.m, sb.ldc, sb.n) ||
      span_overflows(sb.m, sb.lda, sb.k) ||
      span_overflows(sb.k, sb.ldb, sb.n) ||
      span_overflows(count, sb.stride_c, span(sb.m, sb.ldc, sb.n)) ||
      span_overflows(count, sb.stride_a, span(sb.m, sb.lda, sb.k)) ||
      span_overflows(count, sb.stride_b, span(sb.k, sb.ldb, sb.n))) {
    return Status::error(StatusCode::kInvalidShape,
                         "batch extent overflows the index type");
  }
  if (count == 0) return Status{};
  const bool c_nonempty = sb.m > 0 && sb.n > 0;
  if (c_nonempty && sb.c == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null C base pointer");
  }
  if (sb.m > 0 && sb.k > 0 && sb.a == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null A base pointer");
  }
  if (sb.k > 0 && sb.n > 0 && sb.b == nullptr) {
    return Status::error(StatusCode::kInvalidArgument, "null B base pointer");
  }
  if (c_nonempty && count > 1) {
    if (sb.stride_c == 0) {
      return Status::error(StatusCode::kAliasing,
                           "stride_c == 0: every item writes the same C");
    }
    // The C items must be provably disjoint.  Two layouts are: stacked
    // (each item's whole m-row footprint precedes the next base) and
    // interleaved (items side by side within one row span — consecutive
    // row segments disjoint, and all of them inside the parent row, so
    // row r of every item lives in row r of the parent).  Anything in
    // between — e.g. stride_c == n with a dense ldc and m > 1, where item
    // 1 starts inside item 0's second row — overlaps and would race.
    // Both sides are bounded by the spans checked above.
    const bool stacked = sb.stride_c >= span(sb.m, sb.ldc, sb.n);
    const bool interleaved =
        sb.stride_c >= sb.n && (count - 1) * sb.stride_c + sb.n <= sb.ldc;
    if (!stacked && !interleaved) {
      return Status::error(
          StatusCode::kInvalidStride,
          "stride_c describes overlapping C items (want stacked: stride_c >= "
          "(m-1)*ldc + n, or interleaved: (count-1)*stride_c + n <= ldc)");
    }
  }
  if (c_nonempty && (static_cast<const T*>(sb.c) == sb.a ||
                     static_cast<const T*>(sb.c) == sb.b)) {
    return Status::error(StatusCode::kAliasing,
                         "C base aliases an input base");
  }
  return Status{};
}

// Duplicate-C detection across a per-item batch (exact base pointers).
template <typename T>
Status check_distinct_outputs(const BatchItemT<T>* items, std::size_t count) {
  if (count < 2) return Status{};
  std::vector<const T*> ptrs;
  ptrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!items[i].c.empty()) ptrs.push_back(items[i].c.data());
  }
  std::sort(ptrs.begin(), ptrs.end());
  if (std::adjacent_find(ptrs.begin(), ptrs.end()) != ptrs.end()) {
    return Status::error(StatusCode::kAliasing,
                         "two batch items write the same C");
  }
  return Status{};
}

// The auto path's GEMM fallback workspace: grow-only packing buffers,
// reusable across engines but never across concurrent callers — exactly
// what thread_local provides.  One workspace per element type per thread.
template <typename T>
GemmWorkspaceT<T>& gemm_workspace() {
  static thread_local GemmWorkspaceT<T> ws;
  return ws;
}

// Evicts the least-recently-used entry (smallest tick) by copying the back
// entry over it.  Shared by the executor and choice caches; entry types
// need a `tick` member.  Callers hold the cache's mutex and bump their own
// eviction counter.
template <typename Entry>
void evict_lru(std::vector<Entry>& entries) {
  auto lru = std::min_element(
      entries.begin(), entries.end(),
      [](const Entry& x, const Entry& y) { return x.tick < y.tick; });
  *lru = entries.back();
  entries.pop_back();
}

std::size_t env_cache_capacity() {
  const std::optional<long> v = parse_env_long(
      "FMM_ENGINE_CACHE", 1, std::numeric_limits<long>::max());
  return v.has_value() ? static_cast<std::size_t>(*v)
                       : Engine::kDefaultCacheCapacity;
}

std::size_t env_choice_capacity(std::size_t fallback) {
  const std::optional<long> v = parse_env_long(
      "FMM_CHOICE_CACHE", 1, std::numeric_limits<long>::max());
  return v.has_value() ? static_cast<std::size_t>(*v) : fallback;
}

std::uint64_t env_history_min() {
  constexpr std::uint64_t kDefault = PerfHistory::Tuning{}.min_observations;
  const std::optional<long> v = parse_env_long("FMM_HISTORY_MIN", 1, 1L << 30);
  return v.has_value() ? static_cast<std::uint64_t>(*v) : kDefault;
}

std::string env_history_path() {
  const char* path = std::getenv("FMM_HISTORY_CACHE");
  return path != nullptr ? std::string(path) : std::string();
}

std::string env_trace_path() {
  const char* path = std::getenv("FMM_TRACE");
  return path != nullptr ? std::string(path) : std::string();
}

index_t env_recurse_cutoff() {
  // Explicit 0 disables descent; unset falls back to the analytic default
  // for the detected cache topology.
  const std::optional<long> v =
      parse_env_long("FMM_RECURSE_CUTOFF", 0, 1L << 30);
  if (v.has_value()) return static_cast<index_t>(*v);
  return recommended_recurse_cutoff(arch::cache_topology());
}

}  // namespace

// ---------------------------------------------------------------------------
// Cache structures.
// ---------------------------------------------------------------------------

// One cached compiled executor.  `plan` and `cfg` are the *requested* key
// values (the executor itself records the resolved kernel/blocking).  The
// executor is stored type-erased (FmmExecutorT<double> or <float>); the
// plan's dtype — compared by same_execution, part of the key — says which,
// so a hit always casts back to the type it was compiled as.
struct Engine::Entry {
  std::size_t hash = 0;
  Plan plan;
  index_t m = 0, n = 0, k = 0;
  GemmConfig cfg;
  std::shared_ptr<void> exec;
  std::uint64_t tick = 0;
};

struct Engine::Shard {
  std::mutex mu;
  std::vector<Entry> entries;
};

struct Engine::ChoiceEntry {
  // (m, n, k, dtype): the auto decision is per element type, so f32 and
  // f64 requests for one shape can never share (or evict into) each
  // other's cached choice.
  std::array<index_t, 4> key{};
  std::shared_ptr<const AutoChoice> choice;
  std::uint64_t tick = 0;
  // History revision the decision was computed under; a hit with a stale
  // revision re-ranks (lazy invalidation when an override could flip).
  std::uint64_t hrev = 0;
};

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(const Options& opts)
    : cfg_(opts.config), slots_(opts.slots), workers_(opts.workers) {
  // Instruments resolve first: everything below may bump a counter.  The
  // names are stable API — tools parse metrics_report_json().
  hits_ = &metrics_.counter("engine.cache.hits");
  misses_ = &metrics_.counter("engine.cache.misses");
  evictions_ = &metrics_.counter("engine.cache.evictions");
  choice_hits_ = &metrics_.counter("engine.choice.hits");
  choice_misses_ = &metrics_.counter("engine.choice.misses");
  choice_evictions_ = &metrics_.counter("engine.choice.evictions");
  history_hits_ = &metrics_.counter("engine.history.hits");
  history_overrides_ = &metrics_.counter("engine.history.overrides");
  recursive_runs_ = &metrics_.counter("engine.recursive.runs");
  lat_explicit_ = &metrics_.histogram("engine.request.explicit", "us");
  lat_auto_ = &metrics_.histogram("engine.request.auto", "us");
  lat_batch_ = &metrics_.histogram("engine.request.batch", "us");
  exec_gflops_ = &metrics_.histogram("engine.exec.gflops", "GFLOP/s");
  batch_items_ = &metrics_.histogram("engine.exec.batch_items", "items");
  metrics_.set_enabled(opts.metrics.has_value()
                           ? *opts.metrics
                           : parse_env_flag("FMM_METRICS", true));

  // Tracing: join the refcounted process-wide session; the file is written
  // when the last participant is destroyed (first participant's path wins).
  const std::string trace_path =
      !opts.trace_path.empty() ? opts.trace_path : env_trace_path();
  if (!trace_path.empty()) {
    obs::trace_begin(trace_path);
    owns_trace_ = true;
  }

  // Every knob: explicit Options > environment > default.
  workers_ = TaskPool::resolve_workers(workers_);
  cap_total_ =
      opts.cache_capacity > 0 ? opts.cache_capacity : env_cache_capacity();
  int shards = opts.shards > 0 ? opts.shards : kDefaultShards;
  shards = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(shards), cap_total_));
  shards = std::max(shards, 1);
  cap_per_shard_ = (cap_total_ + static_cast<std::size_t>(shards) - 1) /
                   static_cast<std::size_t>(shards);
  cap_total_ = cap_per_shard_ * static_cast<std::size_t>(shards);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  choice_cap_ = opts.choice_capacity > 0
                    ? opts.choice_capacity
                    : env_choice_capacity(8 * cap_total_);

  // The calibration rate cache is process-wide; a per-engine path override
  // therefore applies process-wide too (documented in Options).
  if (!opts.calib_cache_path.empty()) {
    arch::set_calibration_cache_path(opts.calib_cache_path);
  }

  history_enabled_ = opts.history.has_value()
                         ? *opts.history
                         : parse_env_flag("FMM_HISTORY", true);
  PerfHistory::Tuning tuning;
  tuning.min_observations = opts.history_min_observations > 0
                                ? opts.history_min_observations
                                : env_history_min();
  history_.set_tuning(tuning);
  history_path_ =
      !opts.history_path.empty() ? opts.history_path : env_history_path();
  if (history_enabled_ && !history_path_.empty()) {
    history_load_status_ = history_.load(history_path_);
  }

  if (opts.recurse_cutoff > 0) {
    recurse_cutoff_ = static_cast<index_t>(opts.recurse_cutoff);
  } else if (opts.recurse_cutoff == 0) {
    recurse_cutoff_ = env_recurse_cutoff();
  }  // negative: descent disabled, recurse_cutoff_ stays 0
}

Engine::~Engine() {
  // Drain in-flight submits before any member is torn down; the pool's own
  // destructor then joins the (now idle) workers.
  if (pool_) pool_->wait_all();
  if (history_enabled_ && !history_path_.empty()) {
    const Status st = history_.save(history_path_);
    if (!st.ok()) {
      std::fprintf(stderr, "fmm: history save failed: %s\n",
                   st.to_string().c_str());
    }
  }
  // Last participant out writes the trace file (workers are idle by now,
  // so their final spans are already recorded).
  if (owns_trace_) obs::trace_end();
}

TaskPool& Engine::pool() {
  if (TaskPool* p = pool_ptr_.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (!pool_) {
    pool_ = std::make_unique<TaskPool>(workers_);
    // Attach the queue-wait instruments before the pool is published: no
    // task can observe a half-wired pool.
    pool_->set_metrics(&metrics_);
    pool_ptr_.store(pool_.get(), std::memory_order_release);
  }
  return *pool_;
}

void Engine::wait_all() {
  if (TaskPool* p = pool_ptr_.load(std::memory_order_acquire)) p->wait_all();
}

Engine& default_engine() {
  static Engine* engine = new Engine();  // never destroyed: executors may
  return *engine;                        // be running at static teardown
}

// ---------------------------------------------------------------------------
// Executor cache.
// ---------------------------------------------------------------------------

template <typename T>
std::shared_ptr<FmmExecutorT<T>> Engine::executor_for(const Plan& plan,
                                                      index_t m, index_t n,
                                                      index_t k,
                                                      const GemmConfig& cfg) {
  assert(plan.dtype == DTypeOf<T>::value);
  const std::size_t hash = key_hash(plan, m, n, k, cfg);
  Shard& shard = *shards_[hash % shards_.size()];
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    for (Entry& e : shard.entries) {
      if (e.hash == hash && e.m == m && e.n == n && e.k == k &&
          e.cfg == cfg && same_execution(e.plan, plan)) {
        e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
        hits_->add();
        if (obs::trace_enabled()) {
          obs::trace_instant("engine.cache.hit", "engine");
        }
        // shared_ptr copy: no allocation.  The dtype key match guarantees
        // the erased pointer is an FmmExecutorT<T>.
        return std::static_pointer_cast<FmmExecutorT<T>>(e.exec);
      }
    }
  }

  // Miss: compile outside the shard lock (compilation allocates and can
  // take a while; concurrent misses on other keys must not serialize).
  misses_->add();
  if (obs::trace_enabled()) {
    obs::trace_instant("engine.cache.miss", "engine");
  }
  GemmConfig ecfg = cfg;  // threads resolved against this engine's pool
  ecfg.num_threads = threads_for(cfg);
  auto exec = std::make_shared<FmmExecutorT<T>>(plan, m, n, k, ecfg, slots_);

  // Observation hook, installed before the executor is published to the
  // cache (set_timing_hook is not synchronized against in-flight runs).
  // The one hook feeds history, metrics, and tracing (observe_execution);
  // the history key is fixed at compile time: footprint of the plan
  // (dtype-salted), buckets of the compiled shape, and the *resolved*
  // kernel/threads the executor froze (the kernel's cache key, so
  // same-named f32/f64 kernels stay distinct).  One hook invocation = one
  // observation (a batch counts its items), so effective GFLOP/s is
  // items * flops / seconds.
  const double item_flops =
      2.0 * static_cast<double>(m) * static_cast<double>(n) *
      static_cast<double>(k);
  std::optional<HistoryKey> hkey;
  if (history_enabled_ && item_flops > 0.0) {
    HistoryKey hk;
    hk.footprint = plan_footprint(plan) ^ dtype_history_salt(plan.dtype);
    hk.mb = shape_bucket(m);
    hk.nb = shape_bucket(n);
    hk.kb = shape_bucket(k);
    hk.kernel = kernel_cache_key(*exec->config().kernel);
    hk.threads = exec->threads();
    hkey = hk;
  }
  exec->set_timing_hook([this, hkey](const ExecObservation& o) {
    observe_execution(o, hkey.has_value() ? &*hkey : nullptr);
  });

  std::lock_guard<std::mutex> lk(shard.mu);
  // A racing thread may have compiled the same key; keep the incumbent so
  // every caller shares one executor (ours is dropped).
  for (Entry& e : shard.entries) {
    if (e.hash == hash && e.m == m && e.n == n && e.k == k && e.cfg == cfg &&
        same_execution(e.plan, plan)) {
      e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
      return std::static_pointer_cast<FmmExecutorT<T>>(e.exec);
    }
  }
  if (shard.entries.size() >= cap_per_shard_) {
    evict_lru(shard.entries);
    evictions_->add();
  }
  Entry e;
  e.hash = hash;
  e.plan = plan;
  e.m = m;
  e.n = n;
  e.k = k;
  e.cfg = cfg;
  e.exec = exec;
  e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
  shard.entries.push_back(std::move(e));
  return exec;
}

// ---------------------------------------------------------------------------
// Auto path: plan space, choice cache, calibration.
// ---------------------------------------------------------------------------

void Engine::ensure_plan_space_locked() {
  if (space_built_) return;
  space_ = default_plan_space({Variant::kABC, Variant::kAB, Variant::kNaive},
                              /*max_levels=*/2);
  space_built_ = true;
}

std::shared_ptr<const AutoChoice> Engine::choice_handle(index_t m, index_t n,
                                                        index_t k,
                                                        DType dtype) {
  const std::array<index_t, 4> key{m, n, k, static_cast<index_t>(dtype)};
  // The history revision this decision is computed under, captured before
  // the cache scan: observations recorded during ranking bump it, which
  // marks our own insert stale — correct, the data changed under us.
  const std::uint64_t hrev = history_enabled_ ? history_.revision() : 0;
  ModelParams params;
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    for (ChoiceEntry& e : choices_) {
      if (e.key == key && e.hrev == hrev) {
        e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
        choice_hits_->add();
        return e.choice;
      }
    }
    ensure_plan_space_locked();
    params = dtype == DType::kF32 ? params_f32_ : params_;
    gen = params_gen_;
  }

  // Rank outside the lock: the model evaluation over the whole space is
  // the expensive part, and space_ is immutable once built.
  choice_misses_->add();
  auto choice = std::make_shared<AutoChoice>();
  const double gemm_analytic = predict_gemm_time(m, n, k, cfg_, params, dtype);
  auto ranked = rank_by_model(m, n, k, space_, params, cfg_, dtype);

  // Analytic winner (the model's own pick): -1 = gemm, else ranked index.
  const int analytic_winner =
      (!ranked.empty() && ranked.front().predicted_seconds < gemm_analytic)
          ? 0
          : -1;

  // History overlay: each candidate's decision time is the measured rate
  // once its key is confident, the analytic prediction otherwise.  The
  // scan keeps the analytic order as tie-breaker (strict <, candidates
  // visited in ranked order), so with no confident data this reproduces
  // the analytic winner exactly.
  int winner = -1;
  double best_time = gemm_analytic;
  bool best_measured = false;
  double best_gflops = 0.0;
  bool consulted = false;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  if (history_enabled_ && flops > 0.0) {
    if (auto g = history_.confident_gflops(gemm_key_for(m, n, k, cfg_, dtype))) {
      best_time = flops / (*g * 1e9);
      best_measured = true;
      best_gflops = *g;
      consulted = true;
    }
  }
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    double t = ranked[i].predicted_seconds;
    bool measured = false;
    double gf = 0.0;
    if (history_enabled_ && flops > 0.0) {
      if (auto g =
              history_.confident_gflops(history_key(ranked[i].plan, m, n, k))) {
        t = flops / (*g * 1e9);
        measured = true;
        gf = *g;
        consulted = true;
      }
    }
    if (t < best_time) {
      best_time = t;
      winner = static_cast<int>(i);
      best_measured = measured;
      best_gflops = gf;
    }
  }
  if (consulted) {
    history_hits_->add();
    if (winner != analytic_winner) {
      history_overrides_->add();
    }
  }

  choice->predicted_seconds = best_time;
  choice->measured = best_measured;
  choice->measured_gflops = best_gflops;
  if (winner < 0) {
    choice->use_gemm = true;
    choice->description = "gemm";
  } else {
    choice->use_gemm = false;
    choice->plan = ranked[static_cast<std::size_t>(winner)].plan;
    choice->description = choice->plan->name();
  }

  std::lock_guard<std::mutex> lk(choice_mu_);
  for (ChoiceEntry& e : choices_) {
    if (e.key == key) {
      e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
      // Racing insert at the same or a newer revision: keep the incumbent
      // so every caller shares one snapshot.  Ours refreshes a stale one.
      if (e.hrev >= hrev) return e.choice;
      e.choice = choice;
      e.hrev = hrev;
      return choice;
    }
  }
  // A calibrate() ran while this thread was ranking: the decision was made
  // under stale parameters.  Serve it (it is a valid algorithm, just
  // possibly suboptimal) but do not cache it past the clear.
  if (gen != params_gen_) return choice;
  if (choices_.size() >= choice_cap_) {
    evict_lru(choices_);
    choice_evictions_->add();
  }
  ChoiceEntry e;
  e.key = key;
  e.choice = choice;
  e.tick = tick_.fetch_add(1, std::memory_order_relaxed);
  e.hrev = hrev;
  choices_.push_back(std::move(e));
  return choice;
}

AutoChoice Engine::choice_for(index_t m, index_t n, index_t k, DType dtype) {
  return *choice_handle(m, n, k, dtype);
}

Status Engine::calibrate() {
  ModelParams measured = fmm::calibrate(cfg_);
  ModelParams measured_f32 = fmm::calibrate(cfg_, DType::kF32);
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    params_ = measured;
    params_f32_ = measured_f32;
    // Decisions made under the old parameters are stale; the generation
    // bump also stops in-flight rankings from re-inserting one.
    ++params_gen_;
    choices_.clear();
  }
  // The parameters above are already installed regardless: a broken rate
  // cache only costs persistence, not correctness.
  return arch::calibration_file_status();
}

ModelParams Engine::params(DType dtype) const {
  std::lock_guard<std::mutex> lk(choice_mu_);
  return dtype == DType::kF32 ? params_f32_ : params_;
}

// ---------------------------------------------------------------------------
// Execution bodies.  Operands are pre-validated by the submit_* layer; these
// run either on a pool worker (async) or inline (nested calls from tasks).
// ---------------------------------------------------------------------------

template <typename T>
Status Engine::exec_single(const Plan* plan, MatViewT<T> c, ConstMatViewT<T> a,
                           ConstMatViewT<T> b, const GemmConfig& cfg,
                           std::shared_ptr<const AutoChoice>* executed) {
  constexpr DType kDt = DTypeOf<T>::value;
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  std::shared_ptr<const AutoChoice> choice;  // owns *plan on the auto path
  if (plan == nullptr) {
    choice = choice_handle(m, n, k, kDt);
    if (executed != nullptr) *executed = choice;
    if (choice->use_gemm) {
      // The gemm fallback bypasses FmmExecutor and its timing hook, so the
      // auto path observes it here (explicit-plan calls have no gemm arm).
      Timer t;
      gemm(c, a, b, gemm_workspace<T>(), cfg);
      record_gemm(m, n, k, cfg, kDt, t.seconds(), 1);
      return Status{};
    }
    plan = &*choice->plan;
  }
  if (should_recurse(*plan, m, n, k, recurse_cutoff_)) {
    recursive_runs_->add();
    run_recursive<T>(recursive_ctx<T>(cfg), *plan, c, a, b);
    return Status{};
  }
  executor_for<T>(*plan, m, n, k, cfg)->run(c, a, b);
  return Status{};
}

template <typename T>
Status Engine::exec_group(const Plan* plan, index_t m, index_t n, index_t k,
                          const BatchItemT<T>* items, std::size_t count,
                          const GemmConfig& cfg) {
  constexpr DType kDt = DTypeOf<T>::value;
  const Plan* group_plan = plan;
  std::shared_ptr<const AutoChoice> choice;
  if (group_plan == nullptr) {
    choice = choice_handle(m, n, k, kDt);
    if (choice->use_gemm) {
      Timer t;
      for (std::size_t i = 0; i < count; ++i) {
        gemm(items[i].c, items[i].a, items[i].b, gemm_workspace<T>(), cfg);
      }
      record_gemm(m, n, k, cfg, kDt, t.seconds(), count);
      return Status{};
    }
    group_plan = &*choice->plan;
  }
  executor_for<T>(*group_plan, m, n, k, cfg)->run_batch(items, count);
  return Status{};
}

template <typename T>
Status Engine::exec_strided(const Plan* plan, const StridedBatchT<T>& sb,
                            const GemmConfig& cfg) {
  constexpr DType kDt = DTypeOf<T>::value;
  const Plan* batch_plan = plan;
  std::shared_ptr<const AutoChoice> choice;
  if (batch_plan == nullptr) {
    choice = choice_handle(sb.m, sb.n, sb.k, kDt);
    if (choice->use_gemm) {
      Timer t;
      for (std::size_t i = 0; i < sb.count; ++i) {
        const index_t off = static_cast<index_t>(i);
        gemm(MatViewT<T>(sb.c + off * sb.stride_c, sb.m, sb.n, sb.ldc),
             ConstMatViewT<T>(sb.a + off * sb.stride_a, sb.m, sb.k, sb.lda),
             ConstMatViewT<T>(sb.b + off * sb.stride_b, sb.k, sb.n, sb.ldb),
             gemm_workspace<T>(), cfg);
      }
      record_gemm(sb.m, sb.n, sb.k, cfg, kDt, t.seconds(), sb.count);
      return Status{};
    }
    batch_plan = &*choice->plan;
  }
  executor_for<T>(*batch_plan, sb.m, sb.n, sb.k, cfg)->run_batch_strided(sb);
  return Status{};
}

// ---------------------------------------------------------------------------
// Submit layer: synchronous validation, then queue (or inline on a pool
// worker — a task blocking on another task's future could deadlock a fully
// busy pool, so nested calls never wait on the queue).
// ---------------------------------------------------------------------------

template <typename T>
RecursiveExecT<T> Engine::recursive_ctx(const GemmConfig& cfg) {
  RecursiveExecT<T> ctx;
  ctx.buffers = &recurse_buffers_;
  ctx.cutoff = recurse_cutoff_;
  ctx.participants = threads_for(cfg);
  // Leaves share the executor cache with every other path.  A serial leaf
  // (a product of a full window, a fringe) grows its cached executor's
  // slot pool to the worker count once, so concurrent leaves never
  // serialize on workspace leases (nor stall behind a parent call that
  // holds a slot of the same executor).  A pool-wide leaf (a leftover
  // product) runs the executor compiled at the request's resolved thread
  // count; leftover products run one at a time, so it touches one slot.
  const int slot_target = TaskPool::current().workers();
  ctx.leaf = [this, cfg, slot_target](const Plan* plan, int threads,
                                      MatViewT<T> c, ConstMatViewT<T> a,
                                      ConstMatViewT<T> b) {
    GemmConfig leaf_cfg = cfg;
    leaf_cfg.num_threads = threads;
    if (plan == nullptr) {
      gemm(c, a, b, gemm_workspace<T>(), leaf_cfg);
      return;
    }
    auto exec = executor_for<T>(*plan, c.rows(), c.cols(), a.cols(), leaf_cfg);
    if (threads == 1) exec->ensure_slots(slot_target);
    exec->run(c, a, b);
  };
  return ctx;
}

template <typename T>
TaskFuture Engine::submit_single(const Plan* plan, MatViewT<T> c,
                                 ConstMatViewT<T> a, ConstMatViewT<T> b,
                                 const GemmConfig& cfg,
                                 std::shared_ptr<const AutoChoice>* executed) {
  constexpr DType kDt = DTypeOf<T>::value;
  Status st = validate_triple(c, a, b);
  if (!st.ok()) return TaskFuture::ready(std::move(st));
  // Request observation starts after validation (a rejected request is not
  // traffic) and follows the work wherever it runs: the span / latency
  // sample is recorded where the execution finishes, covering queue wait.
  const std::uint64_t req_t0 = request_start();
  const RequestPath req_path =
      plan != nullptr ? RequestPath::kExplicit : RequestPath::kAuto;
  // Element type is a plan property: stamp the request's dtype (and drop a
  // wrong-dtype pinned kernel) on a local copy before any cache keying, so
  // one Plan value serves both precisions without cross-dtype hits.
  Plan stamped;
  if (plan != nullptr && plan->dtype != kDt) {
    stamped = *plan;
    stamped.dtype = kDt;
    if (stamped.kernel != nullptr && stamped.kernel->dtype != kDt) {
      stamped.kernel = nullptr;
    }
    plan = &stamped;
  }
  if (TaskPool::on_worker_thread()) {
    Status inline_st = exec_single<T>(plan, c, a, b, cfg, executed);
    observe_request(req_path, c.rows(), c.cols(), a.cols(), 1, req_t0);
    return TaskFuture::ready(std::move(inline_st));
  }
  if (plan == nullptr) {
    return pool().submit([this, c, a, b, cfg, executed, req_t0, req_path] {
      Status es = exec_single<T>(nullptr, c, a, b, cfg, executed);
      observe_request(req_path, c.rows(), c.cols(), a.cols(), 1, req_t0);
      return es;
    });
  }
  // The plan is copied: the caller's need not outlive an async submit.
  return pool().submit([this, p = *plan, c, a, b, cfg, executed, req_t0,
                        req_path] {
    Status es = exec_single<T>(&p, c, a, b, cfg, executed);
    observe_request(req_path, c.rows(), c.cols(), a.cols(), 1, req_t0);
    return es;
  });
}

template <typename T>
TaskFuture Engine::submit_batch(const Plan* plan, const BatchSpec& batch,
                                const GemmConfig& cfg) {
  constexpr DType kDt = DTypeOf<T>::value;
  if (batch.dtype() != kDt) {
    return TaskFuture::ready(Status::error(
        StatusCode::kInvalidArgument,
        std::string("batch element type is ") + dtype_name(batch.dtype()) +
            ", expected " + dtype_name(kDt)));
  }
  std::shared_ptr<const Plan> plan_copy;
  if (plan != nullptr) {
    Plan p = *plan;
    if (p.dtype != kDt) {
      p.dtype = kDt;
      if (p.kernel != nullptr && p.kernel->dtype != kDt) p.kernel = nullptr;
    }
    plan_copy = std::make_shared<const Plan>(std::move(p));
  }
  const Plan* plan_ptr = plan_copy.get();
  const std::uint64_t req_t0 = request_start();

  if (batch.is_strided()) {
    StridedBatchT<T> sb = batch.strided_as<T>();
    Status st = validate_strided(sb);  // normalizes the dense defaults
    if (!st.ok()) return TaskFuture::ready(std::move(st));
    if (sb.count == 0 || sb.m == 0 || sb.n == 0) {
      return TaskFuture::ready(Status{});
    }
    if (TaskPool::on_worker_thread()) {
      Status es = exec_strided<T>(plan_ptr, sb, cfg);
      observe_request(RequestPath::kBatch, sb.m, sb.n, sb.k, sb.count, req_t0);
      return TaskFuture::ready(std::move(es));
    }
    return pool().submit([this, plan_copy, sb, cfg, req_t0] {
      Status es = exec_strided<T>(plan_copy.get(), sb, cfg);
      observe_request(RequestPath::kBatch, sb.m, sb.n, sb.k, sb.count, req_t0);
      return es;
    });
  }

  const BatchItemT<T>* items = batch.items_as<T>();
  const std::size_t count = batch.size();
  if (count == 0) return TaskFuture::ready(Status{});
  if (items == nullptr) {
    return TaskFuture::ready(Status::error(StatusCode::kInvalidArgument,
                                           "null item array with count > 0"));
  }
  // Validate the whole batch before any arithmetic: one malformed item
  // rejects the request with nothing queued and nothing partially written.
  for (std::size_t i = 0; i < count; ++i) {
    Status st = validate_triple(items[i].c, items[i].a, items[i].b);
    if (!st.ok()) {
      return TaskFuture::ready(Status::error(
          st.code(), "item " + std::to_string(i) + ": " + st.message()));
    }
  }
  Status st = check_distinct_outputs(items, count);
  if (!st.ok()) return TaskFuture::ready(std::move(st));

  // Group by (m, n, k), preserving arrival order per group.  The items are
  // copied: the caller's array need not outlive an async submit.
  struct Group {
    index_t m, n, k;
    std::vector<BatchItemT<T>> items;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < count; ++i) {
    const index_t m = items[i].c.rows(), n = items[i].c.cols(),
                  k = items[i].a.cols();
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.m == m && cand.n == n && cand.k == k) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back({m, n, k, {}});
      g = &groups.back();
    }
    g->items.push_back(items[i]);
  }

  if (TaskPool::on_worker_thread()) {
    for (const Group& g : groups) {
      Status gs = exec_group<T>(plan_ptr, g.m, g.n, g.k, g.items.data(),
                                g.items.size(), cfg);
      if (!gs.ok()) return TaskFuture::ready(std::move(gs));
    }
    observe_request(RequestPath::kBatch, 0, 0, 0, count, req_t0);
    return TaskFuture::ready(Status{});
  }

  // One task per batch.  Several shape groups share it as a fork-join
  // region, one group per chunk (each hits its own cached executor), so
  // the groups overlap even when each multiply runs serially.  The request
  // span closes here, covering every group (shape 0x0x0 marks a
  // cross-shape batch).
  return pool().submit([this, plan_copy, groups = std::move(groups), cfg,
                        count, req_t0] {
    std::vector<Status> st(groups.size());
    TaskPool::current().parallel_for(
        0, static_cast<std::int64_t>(groups.size()), 1,
        [&](std::int64_t i, int) {
          const Group& g = groups[static_cast<std::size_t>(i)];
          st[static_cast<std::size_t>(i)] = exec_group<T>(
              plan_copy.get(), g.m, g.n, g.k, g.items.data(), g.items.size(),
              cfg);
        });
    const bool one = groups.size() == 1;
    observe_request(RequestPath::kBatch, one ? groups[0].m : 0,
                    one ? groups[0].n : 0, one ? groups[0].k : 0, count,
                    req_t0);
    for (Status& s : st) {
      if (!s.ok()) return s;
    }
    return Status{};
  });
}

// ---------------------------------------------------------------------------
// Public entry points: multiply is submit + wait (one execution path).  The
// single-request forms are inline templates in engine.h over these two
// instantiations.
// ---------------------------------------------------------------------------

template TaskFuture Engine::submit_single<double>(
    const Plan*, MatView, ConstMatView, ConstMatView, const GemmConfig&,
    std::shared_ptr<const AutoChoice>*);
template TaskFuture Engine::submit_single<float>(
    const Plan*, MatViewT<float>, ConstMatViewT<float>, ConstMatViewT<float>,
    const GemmConfig&, std::shared_ptr<const AutoChoice>*);

Status Engine::multiply(const Plan& plan, const BatchSpec& batch) {
  return submit(plan, batch).status();
}

Status Engine::multiply(const Plan& plan, const BatchSpec& batch,
                        const GemmConfig& cfg) {
  return submit(plan, batch, cfg).status();
}

Status Engine::multiply(const BatchSpec& batch) {
  return submit(batch).status();
}

TaskFuture Engine::submit(const Plan& plan, const BatchSpec& batch) {
  return batch.dtype() == DType::kF32
             ? submit_batch<float>(&plan, batch, cfg_)
             : submit_batch<double>(&plan, batch, cfg_);
}

TaskFuture Engine::submit(const Plan& plan, const BatchSpec& batch,
                          const GemmConfig& cfg) {
  return batch.dtype() == DType::kF32 ? submit_batch<float>(&plan, batch, cfg)
                                      : submit_batch<double>(&plan, batch, cfg);
}

TaskFuture Engine::submit(const BatchSpec& batch) {
  return batch.dtype() == DType::kF32
             ? submit_batch<float>(nullptr, batch, cfg_)
             : submit_batch<double>(nullptr, batch, cfg_);
}

// ---------------------------------------------------------------------------
// Online performance model plumbing.
// ---------------------------------------------------------------------------

HistoryKey Engine::history_key(const Plan& plan, index_t m, index_t n,
                               index_t k) const {
  // Mirrors what executor_for's hook freezes: the executor resolves the
  // blocking with the plan's pinned kernel (if any) overriding the config,
  // and the thread count from the config alone.
  HistoryKey key;
  key.footprint = plan_footprint(plan) ^ dtype_history_salt(plan.dtype);
  key.mb = shape_bucket(m);
  key.nb = shape_bucket(n);
  key.kb = shape_bucket(k);
  GemmConfig kcfg = cfg_;
  if (plan.kernel != nullptr) kcfg.kernel = plan.kernel;
  key.kernel = kernel_cache_key(*resolve_blocking(kcfg, plan.dtype).kernel);
  key.threads = threads_for(cfg_);
  return key;
}

HistoryKey Engine::gemm_history_key(index_t m, index_t n, index_t k) const {
  return gemm_key_for(m, n, k, cfg_, DType::kF64);
}

HistoryKey Engine::gemm_key_for(index_t m, index_t n, index_t k,
                                const GemmConfig& cfg, DType dtype) const {
  HistoryKey key;
  key.footprint = kGemmFootprint ^ dtype_history_salt(dtype);
  key.mb = shape_bucket(m);
  key.nb = shape_bucket(n);
  key.kb = shape_bucket(k);
  key.kernel = kernel_cache_key(*resolve_blocking(cfg, dtype).kernel);
  key.threads = threads_for(cfg);
  return key;
}

void Engine::record_gemm(index_t m, index_t n, index_t k,
                         const GemmConfig& cfg, DType dtype, double seconds,
                         std::size_t items) {
  // The gemm arm bypasses FmmExecutor, so it synthesizes the observation
  // the executor hook would have delivered and funnels into the same sink.
  ExecObservation o;
  o.seconds = seconds;
  o.items = items;
  o.kernel = "gemm";
  o.dtype = dtype;
  o.m = m;
  o.n = n;
  o.k = k;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  if (history_enabled_ && seconds > 0.0 && flops > 0.0) {
    // gemm_key_for resolves the blocking; build it only when a history
    // record will actually happen.
    const HistoryKey key = gemm_key_for(m, n, k, cfg, dtype);
    observe_execution(o, &key);
  } else {
    observe_execution(o, nullptr);
  }
}

void Engine::observe_execution(const ExecObservation& o,
                               const HistoryKey* hkey) {
  const double item_flops = 2.0 * static_cast<double>(o.m) *
                            static_cast<double>(o.n) *
                            static_cast<double>(o.k);
  double gflops = 0.0;
  if (o.seconds > 0.0 && item_flops > 0.0) {
    gflops =
        static_cast<double>(o.items) * item_flops / o.seconds * 1e-9;
    if (hkey != nullptr) history_.record(*hkey, gflops);
  }
  if (metrics_.enabled()) {
    if (gflops > 0.0) exec_gflops_->record(gflops);
    if (o.items > 1) batch_items_->record(static_cast<double>(o.items));
  }
  if (obs::trace_enabled()) {
    // The hook fires right after the timed window closes, so "now" is the
    // span's end to timer precision.
    const std::uint64_t end = obs::now_ns();
    const std::uint64_t dur =
        o.seconds > 0.0 ? static_cast<std::uint64_t>(o.seconds * 1e9) : 0;
    char arg[47];
    std::snprintf(arg, sizeof(arg), "%s %s %lldx%lldx%lld i=%zu", o.kernel,
                  dtype_name(o.dtype), static_cast<long long>(o.m),
                  static_cast<long long>(o.n), static_cast<long long>(o.k),
                  o.items);
    obs::trace_complete("executor.run", "executor", end > dur ? end - dur : 0,
                        end, arg);
  }
}

std::uint64_t Engine::request_start() const {
  return (obs::trace_enabled() || metrics_.enabled()) ? obs::now_ns() : 0;
}

void Engine::observe_request(RequestPath path, index_t m, index_t n,
                             index_t k, std::size_t items,
                             std::uint64_t t0) {
  if (t0 == 0) return;  // neither tracing nor metrics capture was on
  const std::uint64_t end = obs::now_ns();
  if (metrics_.enabled()) {
    obs::Histogram* h = path == RequestPath::kExplicit ? lat_explicit_
                        : path == RequestPath::kAuto   ? lat_auto_
                                                       : lat_batch_;
    h->record(static_cast<double>(end - t0) * 1e-3);  // ns -> us
  }
  if (obs::trace_enabled()) {
    const char* name = path == RequestPath::kExplicit
                           ? "engine.request.explicit"
                       : path == RequestPath::kAuto ? "engine.request.auto"
                                                    : "engine.request.batch";
    char arg[47];
    std::snprintf(arg, sizeof(arg), "%lldx%lldx%lld items=%zu",
                  static_cast<long long>(m), static_cast<long long>(n),
                  static_cast<long long>(k), items);
    obs::trace_complete(name, "engine", t0, end, arg);
  }
}

Status Engine::save_history() {
  if (history_path_.empty()) {
    return Status::error(StatusCode::kInvalidArgument,
                         "no history path configured (Options::history_path "
                         "or FMM_HISTORY_CACHE)");
  }
  return history_.save(history_path_);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

Engine::CacheStats Engine::stats() const {
  // Compatibility view over the metrics registry: the counters moved
  // there, the shape of this struct did not.
  CacheStats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.evictions = evictions_->value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    s.entries += shard->entries.size();
  }
  s.choice_hits = choice_hits_->value();
  s.choice_misses = choice_misses_->value();
  s.choice_evictions = choice_evictions_->value();
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    s.choice_entries = choices_.size();
  }
  s.history_observations = history_.observations();
  s.history_keys = history_.size();
  s.history_hits = history_hits_->value();
  s.history_overrides = history_overrides_->value();
  s.recursive_runs = recursive_runs_->value();
  return s;
}

void Engine::refresh_gauges() {
  std::size_t entries = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    entries += shard->entries.size();
  }
  metrics_.gauge("engine.cache.entries")
      .set(static_cast<std::int64_t>(entries));
  {
    std::lock_guard<std::mutex> lk(choice_mu_);
    metrics_.gauge("engine.choice.entries")
        .set(static_cast<std::int64_t>(choices_.size()));
  }
  metrics_.gauge("engine.history.keys")
      .set(static_cast<std::int64_t>(history_.size()));
  metrics_.gauge("engine.history.observations")
      .set(static_cast<std::int64_t>(history_.observations()));
  metrics_.gauge("engine.recurse.free_buffers")
      .set(static_cast<std::int64_t>(recurse_buffers_.free_buffers()));
  metrics_.gauge("engine.recurse.outstanding")
      .set(static_cast<std::int64_t>(recurse_buffers_.outstanding()));
  metrics_.gauge("engine.recurse.peak_bytes")
      .set(static_cast<std::int64_t>(recurse_buffers_.peak_bytes()));
}

std::string Engine::metrics_report() {
  refresh_gauges();
  return metrics_.report_text();
}

std::string Engine::metrics_report_json() {
  refresh_gauges();
  return metrics_.report_json();
}

}  // namespace fmm
