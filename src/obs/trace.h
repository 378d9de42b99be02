#pragma once

// Low-overhead span tracing — the runtime's flight recorder.
//
// The Engine runs requests through a task pool, two LRU caches, compiled
// executors, and a recursive fork-join driver; until this layer the only
// window into any of it was the aggregate CacheStats counters.  This
// module records *events*: named, categorized spans with start/end
// nanosecond timestamps and an optional small annotation, written into
// per-thread ring buffers and exported as Chrome trace-event JSON that
// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Design constraints, in priority order:
//
//   * **Disabled cost is one relaxed atomic load per site.**  Every
//     recording primitive (and TraceScope's constructor) first checks
//     trace_enabled(); when tracing is off nothing else runs — no clock
//     read, no TLS lookup, no branch-heavy setup.  Serving traffic with
//     tracing off must be indistinguishable from a build without it.
//   * **No allocation on the hot path.**  Events are fixed-size PODs in a
//     preallocated per-thread ring; `name` and `cat` must be pointers to
//     statically allocated strings (literals or registry entries), and the
//     free-form annotation is a bounded char array filled by snprintf.
//   * **Drop-oldest overflow.**  A full ring overwrites its oldest event
//     and counts the drop (trace_dropped()); tracing never blocks and
//     never grows memory under a burst.  Ring capacity comes from
//     trace_begin's argument or the FMM_TRACE_BUF env (events per thread).
//
// Control flow: trace_begin(path) turns recording on process-wide and
// remembers the first caller's output path; it refcounts, so every Engine
// whose Options::trace_path / FMM_TRACE resolves non-empty calls it, and
// the matching trace_end() of the *last* engine writes the JSON file and
// resets.  An atexit hook flushes a still-enabled trace (the process-
// default engine is never destroyed).  trace_write() snapshots without
// disabling, for tests and tools.
//
// Threading: recording takes only the calling thread's own buffer mutex
// (uncontended except against a concurrent snapshot); begin/end/write
// serialize on a registry mutex.  All functions are thread-safe.

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <string>

#include "src/util/status.h"

namespace fmm {
namespace obs {

namespace detail {
extern std::atomic<bool> g_trace_on;
}  // namespace detail

// The one-relaxed-load gate every site checks first.
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

// One recorded event.  Fixed-size POD: rings are arrays of these.
struct TraceEvent {
  const char* name = nullptr;  // static string (event name)
  const char* cat = nullptr;   // static string (category / phase group)
  std::uint64_t start_ns = 0;  // since the tracer epoch
  std::uint64_t dur_ns = 0;    // complete events; 0 otherwise
  std::uint64_t value = 0;     // counter value
  std::int32_t worker = -1;    // TaskPool worker index, -1 off-pool
  char phase = 'X';            // 'X' span, 'i' instant, 'C' counter
  char arg[47] = {0};          // free-form annotation ("" = none)
};

// Nanoseconds since the tracer epoch (process start of the steady clock).
// Always available; callers typically gate on trace_enabled() first.
std::uint64_t now_ns();

// --- Recording primitives (no-ops while tracing is off) --------------------
// `name`/`cat` must point to statically allocated strings.

// A complete span [start_ns, end_ns] on the calling thread's track.
void trace_complete(const char* name, const char* cat, std::uint64_t start_ns,
                    std::uint64_t end_ns, const char* arg = "",
                    std::int32_t worker = -1);
// A zero-duration marker.
void trace_instant(const char* name, const char* cat, const char* arg = "",
                   std::int32_t worker = -1);
// A sampled counter track (e.g. buffer-pool bytes over time).
void trace_counter(const char* name, const char* cat, std::int64_t value);
// Names the calling thread's track in the exported trace.
void trace_thread_name(const char* name);

// RAII span: captures the start time at construction (when tracing is on)
// and records a complete event at destruction.  set_argf fills the bounded
// annotation, printf-style; call it only when active() (it is a no-op
// otherwise, but the argument evaluation is not free).
class TraceScope {
 public:
  TraceScope(const char* name, const char* cat, std::int32_t worker = -1)
      : name_(name), cat_(cat), worker_(worker) {
    if (trace_enabled()) {
      start_ = now_ns();
      active_ = true;
    }
  }
  ~TraceScope() {
    if (active_) trace_complete(name_, cat_, start_, now_ns(), arg_, worker_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const { return active_; }
  std::uint64_t start_ns() const { return start_; }
  void set_argf(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;

 private:
  const char* name_;
  const char* cat_;
  std::int32_t worker_;
  std::uint64_t start_ = 0;
  bool active_ = false;
  char arg_[47] = {0};
};

// --- Session control -------------------------------------------------------

// Turns recording on.  The first caller's `path` becomes the output file
// ("" records without a file — trace_end then discards; tests and the
// overhead bench use this) and its `ring_capacity` (events per thread; 0 =
// FMM_TRACE_BUF env, else a built-in default) sizes rings created after.
// Refcounted: returns the new depth (1 = tracing just turned on).
int trace_begin(const std::string& path, std::size_t ring_capacity = 0);
// Decrements the refcount; at zero writes the JSON to the begin path (best
// effort, stderr warning on failure), disables recording, and resets the
// buffers.  Extra calls with no matching begin are no-ops.
void trace_end();

// Writes everything currently buffered as Chrome trace-event JSON, without
// changing the enabled state.  kIOError on write failure.
Status trace_write(const std::string& path);

// Discards all buffered events and zeroes the drop counters.  Recording
// state is unchanged.
void trace_reset();

// Introspection (tests): buffered event count, total drop-oldest drops,
// and the session's resolved output path.
std::size_t trace_event_count();
std::uint64_t trace_dropped();
std::string trace_path();

}  // namespace obs
}  // namespace fmm
