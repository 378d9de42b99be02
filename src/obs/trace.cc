#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/env.h"

namespace fmm {
namespace obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

namespace {

constexpr std::size_t kDefaultRingCapacity = 32768;  // events per thread

// One thread's ring.  `ring` grows to `capacity` then wraps; `head` is the
// oldest slot once wrapped.  The mutex is effectively uncontended: only
// the owning thread records, only snapshots read.
struct ThreadBuf {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t capacity = kDefaultRingCapacity;
  std::size_t head = 0;
  std::uint64_t dropped = 0;
  int tid = 0;
  char name[32] = {0};
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::string path;
  std::size_t capacity = kDefaultRingCapacity;
  int refcount = 0;
  int next_tid = 1;
  // Bumped when the buffer set is discarded; threads re-register lazily.
  std::atomic<std::uint64_t> gen{1};
  std::once_flag atexit_once;
};

Registry& reg() {
  // Leaked: recording sites may run during static destruction (the
  // process-default engine's pool is never torn down).
  static Registry* r = new Registry();
  return *r;
}

struct TlsRef {
  std::shared_ptr<ThreadBuf> buf;
  std::uint64_t gen = 0;
};

ThreadBuf* local_buf() {
  thread_local TlsRef tls;
  Registry& r = reg();
  const std::uint64_t gen = r.gen.load(std::memory_order_acquire);
  if (tls.buf == nullptr || tls.gen != gen) {
    std::lock_guard<std::mutex> lk(r.mu);
    if (!detail::g_trace_on.load(std::memory_order_relaxed)) return nullptr;
    auto b = std::make_shared<ThreadBuf>();
    b->capacity = std::max<std::size_t>(r.capacity, 1);
    b->ring.reserve(b->capacity);
    b->tid = r.next_tid++;
    r.bufs.push_back(b);
    tls.buf = std::move(b);
    tls.gen = r.gen.load(std::memory_order_relaxed);
  }
  return tls.buf.get();
}

void record_event(const TraceEvent& ev) {
  ThreadBuf* b = local_buf();
  if (b == nullptr) return;
  std::lock_guard<std::mutex> lk(b->mu);
  if (b->ring.size() < b->capacity) {
    b->ring.push_back(ev);
  } else {
    // Drop-oldest: overwrite the slot `head` points at and advance it.
    b->ring[b->head] = ev;
    b->head = (b->head + 1) % b->capacity;
    ++b->dropped;
  }
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

// Writes one event as a Chrome trace-event object (ts/dur in microseconds).
void append_event_json(std::string& out, const TraceEvent& ev, int tid) {
  char buf[160];
  out += "{\"name\":\"";
  json_escape_into(out, ev.name != nullptr ? ev.name : "?");
  out += "\",\"cat\":\"";
  json_escape_into(out, ev.cat != nullptr ? ev.cat : "fmm");
  out += "\",\"ph\":\"";
  out += ev.phase;
  out += '"';
  std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"pid\":1,\"tid\":%d",
                static_cast<double>(ev.start_ns) / 1000.0, tid);
  out += buf;
  switch (ev.phase) {
    case 'X':
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(ev.dur_ns) / 1000.0);
      out += buf;
      break;
    case 'i':
      out += ",\"s\":\"t\"";  // instant scoped to its thread
      break;
    default:
      break;
  }
  if (ev.phase == 'C') {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%lld}",
                  static_cast<long long>(ev.value));
    out += buf;
  } else if (ev.arg[0] != '\0' || ev.worker >= 0) {
    out += ",\"args\":{";
    bool first = true;
    if (ev.arg[0] != '\0') {
      out += "\"arg\":\"";
      json_escape_into(out, ev.arg);
      out += '"';
      first = false;
    }
    if (ev.worker >= 0) {
      std::snprintf(buf, sizeof(buf), "%s\"worker\":%d", first ? "" : ",",
                    ev.worker);
      out += buf;
    }
    out += '}';
  }
  out += '}';
}

// Snapshot of every buffer, oldest-first per ring, then globally by start
// time; `names` collects (tid, thread name or "") pairs.
struct Snapshot {
  std::vector<std::pair<int, TraceEvent>> events;  // (tid, event)
  std::vector<std::pair<int, std::string>> names;
  std::uint64_t dropped = 0;
};

Snapshot snapshot_all() {
  Snapshot snap;
  Registry& r = reg();
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    bufs = r.bufs;
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    const std::size_t n = b->ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      // head is the oldest slot once the ring has wrapped.
      snap.events.emplace_back(b->tid, b->ring[(b->head + i) % n]);
    }
    snap.names.emplace_back(b->tid, b->name);
    snap.dropped += b->dropped;
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const auto& x, const auto& y) {
                     return x.second.start_ns < y.second.start_ns;
                   });
  return snap;
}

Status write_snapshot(const Snapshot& snap, const std::string& path) {
  std::string out;
  out.reserve(snap.events.size() * 96 + 4096);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  // Thread-name metadata first: an explicit name wins; otherwise derive
  // "worker N" from the track's events (pool workers stamp their index).
  for (const auto& [tid, name] : snap.names) {
    std::string label = name;
    if (label.empty()) {
      for (const auto& [etid, ev] : snap.events) {
        if (etid == tid && ev.worker >= 0) {
          label = "worker " + std::to_string(ev.worker);
          break;
        }
      }
    }
    if (label.empty()) label = "thread " + std::to_string(tid);
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"";
    json_escape_into(out, label.c_str());
    out += "\"}}";
  }
  for (const auto& [tid, ev] : snap.events) {
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, ev, tid);
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\"" +
         std::to_string(snap.dropped) + "\"}}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::error(StatusCode::kIOError,
                         "cannot open trace file: " + path);
  }
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = written == out.size() && std::fclose(f) == 0;
  if (!ok) {
    return Status::error(StatusCode::kIOError,
                         "short write to trace file: " + path);
  }
  return Status{};
}

void reset_locked(Registry& r) {
  r.bufs.clear();
  r.next_tid = 1;
  // Stale thread-local buffer handles re-register on their next record.
  r.gen.fetch_add(1, std::memory_order_release);
}

// Flushes a trace the process exits with (the process-default engine is
// never destroyed, so its trace_end never runs).
void flush_at_exit() {
  Registry& r = reg();
  std::string path;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.refcount <= 0) return;
    r.refcount = 0;
    path = r.path;
  }
  detail::g_trace_on.store(false, std::memory_order_relaxed);
  if (path.empty()) return;
  const Status st = write_snapshot(snapshot_all(), path);
  if (!st.ok()) {
    std::fprintf(stderr, "fmm: trace write failed: %s\n",
                 st.to_string().c_str());
  }
}

}  // namespace

std::uint64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

void trace_complete(const char* name, const char* cat, std::uint64_t start_ns,
                    std::uint64_t end_ns, const char* arg,
                    std::int32_t worker) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  ev.worker = worker;
  ev.phase = 'X';
  if (arg != nullptr && arg[0] != '\0') {
    std::strncpy(ev.arg, arg, sizeof(ev.arg) - 1);
  }
  record_event(ev);
}

void trace_instant(const char* name, const char* cat, const char* arg,
                   std::int32_t worker) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.start_ns = now_ns();
  ev.worker = worker;
  ev.phase = 'i';
  if (arg != nullptr && arg[0] != '\0') {
    std::strncpy(ev.arg, arg, sizeof(ev.arg) - 1);
  }
  record_event(ev);
}

void trace_counter(const char* name, const char* cat, std::int64_t value) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.start_ns = now_ns();
  ev.value = static_cast<std::uint64_t>(value);
  ev.phase = 'C';
  record_event(ev);
}

void trace_thread_name(const char* name) {
  if (!trace_enabled()) return;
  ThreadBuf* b = local_buf();
  if (b == nullptr) return;
  std::lock_guard<std::mutex> lk(b->mu);
  std::strncpy(b->name, name, sizeof(b->name) - 1);
}

void TraceScope::set_argf(const char* fmt, ...) {
  if (!active_) return;
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(arg_, sizeof(arg_), fmt, ap);
  va_end(ap);
}

int trace_begin(const std::string& path, std::size_t ring_capacity) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  ++r.refcount;
  if (r.refcount == 1) {
    r.path = path;
    if (ring_capacity == 0) {
      const std::optional<long> v =
          parse_env_long("FMM_TRACE_BUF", 16, 1L << 24);
      ring_capacity = v.has_value() ? static_cast<std::size_t>(*v)
                                    : kDefaultRingCapacity;
    }
    r.capacity = ring_capacity;
    std::call_once(r.atexit_once, [] { std::atexit(flush_at_exit); });
    detail::g_trace_on.store(true, std::memory_order_relaxed);
  }
  return r.refcount;
}

void trace_end() {
  Registry& r = reg();
  std::string path;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.refcount <= 0) return;
    if (--r.refcount > 0) return;
    path = r.path;
    detail::g_trace_on.store(false, std::memory_order_relaxed);
  }
  if (!path.empty()) {
    const Status st = write_snapshot(snapshot_all(), path);
    if (!st.ok()) {
      std::fprintf(stderr, "fmm: trace write failed: %s\n",
                   st.to_string().c_str());
    }
  }
  std::lock_guard<std::mutex> lk(r.mu);
  reset_locked(r);
}

Status trace_write(const std::string& path) {
  return write_snapshot(snapshot_all(), path);
}

void trace_reset() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  reset_locked(r);
}

std::size_t trace_event_count() {
  std::size_t n = 0;
  Registry& r = reg();
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    bufs = r.bufs;
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    n += b->ring.size();
  }
  return n;
}

std::uint64_t trace_dropped() {
  std::uint64_t n = 0;
  Registry& r = reg();
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    bufs = r.bufs;
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    n += b->dropped;
  }
  return n;
}

std::string trace_path() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.path;
}

}  // namespace obs
}  // namespace fmm
