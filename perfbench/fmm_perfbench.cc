// fmm_perfbench — the measuring half of the repository benchmark.
//
// perfbench/run.py builds this binary, clears the environment, spawns it,
// and turns what it prints into the benchmark's metrics.  Every mode prints
// one JSON object on stdout:
//
//   run      --workload W --seed N --seconds S --dir D
//            fresh-process set-up (Engine construction until one request of
//            every distinct (shape, dtype, path) has completed), then a
//            closed-loop timed phase; per-request records, probe tally,
//            Engine::stats() deltas, peak RSS and the resolved config.
//   setup    --workload W --seed N --dir D
//            the set-up part of `run` only (run.py repeats it in fresh
//            processes and reports the median).
//   ledger   --workload W --seed N --seconds S --dir D --trace-out F
//            the traced run: set-up, an untraced phase, a traced phase,
//            then the per-layer ledger, each layer call wrapped in an
//            obs::TraceScope; the flight recorder is written to F.
//   selftest --dir D
//            shows that the correctness accounting counts a perturbed C
//            and a non-OK Status as failed.
//
// Operands come from --seed.  D is a fresh per-process directory: the
// calibration cache and the history store live there, so no process
// inherits another's persisted rates.
//
// Correctness: every request is checked with a Freivalds probe — C·x
// against A·(B·x) for a seeded x — outside the request's latency window.
// The allowance is probe_tolerance(): a function of the element type, the
// plan depth and the problem size only, fixed before any measurement.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/arch/calibrate.h"
#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/core/executor.h"
#include "src/core/task_pool.h"
#include "src/gemm/blocking.h"
#include "src/gemm/fused.h"
#include "src/gemm/gemm.h"
#include "src/gemm/kernel.h"
#include "src/gemm/pack.h"
#include "src/obs/trace.h"
#include "src/util/aligned_buffer.h"
#include "src/util/prng.h"

namespace {

using namespace fmm;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Median wall time of `reps` calls of f.
template <typename F>
double median_seconds(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

// ---------------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------------

template <typename T>
struct Mat {
  index_t rows = 0, cols = 0;
  AlignedBuffer<T> buf;
  Mat(index_t r, index_t c)
      : rows(r), cols(c), buf(static_cast<std::size_t>(r * c)) {}
  MatViewT<T> view() { return {buf.data(), rows, cols, cols}; }
  ConstMatViewT<T> cview() const { return {buf.data(), rows, cols, cols}; }
  void fill_random(Xoshiro256& rng) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(rows * cols); ++i)
      buf.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  void zero() {
    std::memset(buf.data(), 0,
                static_cast<std::size_t>(rows * cols) * sizeof(T));
  }
};

// C (m x n) += A (m x k) * B (k x n); C starts at zero for every request.
template <typename T>
struct Problem {
  Mat<T> a, b, c;
  Problem(index_t m, index_t n, index_t k, std::uint64_t seed)
      : a(m, k), b(k, n), c(m, n) {
    Xoshiro256 rng(seed);
    a.fill_random(rng);
    b.fill_random(rng);
    c.zero();
  }
  index_t m() const { return c.rows; }
  index_t n() const { return c.cols; }
  index_t k() const { return a.cols; }
  double flops() const { return 2.0 * m() * n() * k(); }
};

// A strided batch sharing one B (batch stride 0 on B): item i is
// C_i = rows [i*m, i*m+m) of c, A_i the same rows of a.
template <typename T>
struct SharedBBatch {
  index_t m, n, k;
  std::size_t count;
  Mat<T> a, b, c;
  SharedBBatch(index_t m_, index_t n_, index_t k_, std::size_t count_,
               std::uint64_t seed)
      : m(m_), n(n_), k(k_), count(count_),
        a(m_ * static_cast<index_t>(count_), k_), b(k_, n_),
        c(m_ * static_cast<index_t>(count_), n_) {
    Xoshiro256 rng(seed);
    a.fill_random(rng);
    b.fill_random(rng);
    c.zero();
  }
  StridedBatchT<T> spec() {
    StridedBatchT<T> sb;
    sb.m = m;
    sb.n = n;
    sb.k = k;
    sb.count = count;
    sb.c = c.buf.data();
    sb.a = a.buf.data();
    sb.b = b.buf.data();
    sb.stride_c = m * n;
    sb.stride_a = m * k;
    sb.stride_b = 0;
    return sb;
  }
  ConstMatViewT<T> c_item(std::size_t i) const {
    return c.cview().block(static_cast<index_t>(i) * m, 0, m, n);
  }
  ConstMatViewT<T> a_item(std::size_t i) const {
    return a.cview().block(static_cast<index_t>(i) * m, 0, m, k);
  }
  double flops() const { return 2.0 * m * n * k * static_cast<double>(count); }
};

// ---------------------------------------------------------------------------
// Correctness probe and accounting
// ---------------------------------------------------------------------------

// Freivalds probe: max_i |(C x)_i - (A (B x))_i| / max_i (|A| (|B| |x|))_i
// for x uniform in [-1, 1) drawn from `seed`, accumulated in double.
// Non-finite entries anywhere in C make the residual infinite.
template <typename T>
double probe_residual(ConstMatViewT<T> c, ConstMatViewT<T> a,
                      ConstMatViewT<T> b, std::uint64_t seed) {
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  Xoshiro256 rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> bx(static_cast<std::size_t>(k)), bax(bx.size());
  for (index_t p = 0; p < k; ++p) {
    const T* row = b.row(p);
    double s = 0.0, sa = 0.0;
    for (index_t j = 0; j < n; ++j) {
      s += static_cast<double>(row[j]) * x[j];
      sa += std::fabs(static_cast<double>(row[j]) * x[j]);
    }
    bx[p] = s;
    bax[p] = sa;
  }
  double num = 0.0, den = 0.0;
  bool finite = true;
  for (index_t i = 0; i < m; ++i) {
    const T* crow = c.row(i);
    const T* arow = a.row(i);
    double cx = 0.0, abx = 0.0, scale = 0.0;
    for (index_t j = 0; j < n; ++j) cx += static_cast<double>(crow[j]) * x[j];
    for (index_t p = 0; p < k; ++p) {
      abx += static_cast<double>(arow[p]) * bx[p];
      scale += std::fabs(static_cast<double>(arow[p])) * bax[p];
    }
    finite = finite && std::isfinite(cx);
    num = std::max(num, std::fabs(cx - abx));
    den = std::max(den, scale);
  }
  if (!finite) return INFINITY;
  return den > 0.0 ? num / den : num;
}

// The probe's allowance, relative to the same scale as probe_residual.  A
// classical product carries at most k·u·(|A||B|) per entry (Higham's
// gamma_k, u the unit roundoff of the element type); the probe's own double
// dot products add at most (n + k)·u64 on the same scale.  Each
// fast-algorithm level is allowed a further factor of kLevelGrowth (the
// sums of S_r/T_r and the C_p updates each add a few roundings per level).
// Fixed here, never derived from observed residuals.
constexpr double kLevelGrowth = 16.0;
double probe_tolerance(DType dtype, int depth, index_t n, index_t k) {
  const double u64 = 0x1p-53;
  const double u = dtype == DType::kF32 ? 0x1p-24 : u64;
  return 2.0 * (static_cast<double>(k) * u + static_cast<double>(n + k) * u64) *
         std::pow(kLevelGrowth, depth);
}

// Requests attempted and failed (non-OK Status, or a probe residual above
// the allowance), with the largest residual seen per element type.
struct Tally {
  long attempted = 0;
  long failed = 0;
  double max_residual[2] = {0.0, 0.0};  // [f64, f32]
  double max_tol_share = 0.0;           // largest residual / allowance
  std::string first_failure;

  void record(const Status& st, double residual, double tol, DType dtype) {
    ++attempted;
    if (!st.ok()) {
      fail(st.to_string());
      return;
    }
    double& mx = max_residual[dtype == DType::kF32 ? 1 : 0];
    mx = std::max(mx, residual);
    max_tol_share = std::max(max_tol_share, residual / tol);
    if (!(residual <= tol)) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "probe residual %.3e above %.3e",
                    residual, tol);
      fail(buf);
    }
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (int i = 0; i < 2; ++i)
      max_residual[i] = std::max(max_residual[i], o.max_residual[i]);
    max_tol_share = std::max(max_tol_share, o.max_tol_share);
    if (first_failure.empty()) first_failure = o.first_failure;
  }

 private:
  void fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

// Depth of the plan an auto-path call executed (0 = conventional GEMM).
int executed_depth(const std::shared_ptr<const AutoChoice>& ch) {
  return ch != nullptr && !ch->use_gemm && ch->plan ? ch->plan->num_levels()
                                                    : 0;
}

// One request: start time (us since the phase epoch), latency (us), flops,
// and the measurement window it belongs to.  Throughput is taken per window
// and reported as the median over windows; a window is one complete round
// of the workload's request mix (single caller) or one second of the phase
// (concurrent clients).
struct Req {
  double t0_us;
  double lat_us;
  double flops;
  int window = 0;
};

// Runs one request against p: C is zeroed before and probed after, both
// outside the latency window, which covers only the Engine call.  `call`
// returns the Status and reports the executed plan depth.
template <typename T, typename Call>
Req timed_request(Problem<T>& p, Call&& call, Tally& tally,
                  Clock::time_point epoch, std::uint64_t probe_seed) {
  p.c.zero();
  int depth = 0;
  const auto t0 = Clock::now();
  const Status st = call(p, depth);
  const auto t1 = Clock::now();
  const double res =
      st.ok() ? probe_residual<T>(p.c.cview(), p.a.cview(), p.b.cview(),
                                  probe_seed)
              : 0.0;
  tally.record(st, res, probe_tolerance(DTypeOf<T>::value, depth, p.n(), p.k()),
               DTypeOf<T>::value);
  return {seconds_between(epoch, t0) * 1e6, seconds_between(t0, t1) * 1e6,
          p.flops()};
}

template <typename T>
Status auto_call(Engine& eng, Problem<T>& p, int& depth) {
  std::shared_ptr<const AutoChoice> executed;
  const Status st = eng.multiply(p.c.view(), p.a.cview(), p.b.cview(), &executed);
  depth = executed_depth(executed);
  return st;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Engine::Options base_options(const std::string& dir) {
  Engine::Options o;
  o.calib_cache_path = dir + "/calib.txt";
  o.history_path = dir + "/history.txt";
  return o;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Engine::Options options(const std::string& dir) const = 0;
  // One request per distinct (shape, dtype, path).
  virtual void warmup(Engine& eng, Tally& tally) = 0;
  // The closed-loop timed phase: runs until `seconds` have passed (checked
  // between requests) and appends one Req per completed request.
  virtual void phase(Engine& eng, double seconds, Tally& tally,
                     std::vector<Req>& out) = 0;
};

// paper_1core: the paper's Figure-2 shapes on one core, auto path plus
// explicit one-level ABC <2,2,2>, <2,3,2>, <3,2,3>.
class PaperOneCore : public Workload {
 public:
  explicit PaperOneCore(std::uint64_t seed) : seed_(seed) {
    problems_.emplace_back(2880, 2880, 480, seed * 8 + 1);    // rank-k
    problems_.emplace_back(1440, 1440, 1200, seed * 8 + 2);   // square-ish
    for (const char* name : {"<2,2,2>", "<2,3,2>", "<3,2,3>"})
      plans_.push_back(make_plan({catalog::get(name)}, Variant::kABC));
  }
  Engine::Options options(const std::string& dir) const override {
    Engine::Options o = base_options(dir);
    o.config.num_threads = 1;
    o.workers = 1;
    return o;
  }
  void warmup(Engine& eng, Tally& tally) override {
    const auto epoch = Clock::now();
    for (std::size_t s = 0; s < problems_.size(); ++s)
      for (std::size_t path = 0; path <= plans_.size(); ++path)
        request(eng, s, path, tally, epoch);
  }
  void phase(Engine& eng, double seconds, Tally& tally,
             std::vector<Req>& out) override {
    // Rounds of every (shape, path) pair in a seeded order.
    Xoshiro256 rng(seed_ * 31 + 7);
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t s = 0; s < problems_.size(); ++s)
      for (std::size_t path = 0; path <= plans_.size(); ++path)
        pairs.emplace_back(s, path);
    const auto epoch = Clock::now();
    for (int round = 0; seconds_since(epoch) < seconds; ++round) {
      for (std::size_t i = pairs.size(); i > 1; --i)
        std::swap(pairs[i - 1], pairs[rng.next_below(i)]);
      for (const auto& [s, path] : pairs) {
        out.push_back(request(eng, s, path, tally, epoch));
        out.back().window = round;
      }
    }
  }

 private:
  // path 0 = auto, path i = plans_[i - 1].
  Req request(Engine& eng, std::size_t s, std::size_t path, Tally& tally,
              Clock::time_point epoch) {
    return timed_request(
        problems_[s],
        [&](Problem<double>& p, int& depth) {
          if (path == 0) return auto_call(eng, p, depth);
          const Plan& plan = plans_[path - 1];
          depth = plan.num_levels();
          return eng.multiply(plan, p.c.view(), p.a.cview(), p.b.cview());
        },
        tally, epoch, ++probe_seq_ + seed_);
  }

  std::uint64_t seed_;
  std::uint64_t probe_seq_ = 0;
  std::vector<Problem<double>> problems_;
  std::vector<Plan> plans_;
};

// serve_mixed: 4 closed-loop clients on a default Engine; auto path on
// small shapes, ~1/4 f32, 1 in 8 a strided shared-B batch of 16 items.
class ServeMixed : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr std::size_t kBatchItems = 16;
  struct Shape {
    index_t m, n, k;
  };
  // Single requests: square, non-square and tile-ragged shapes in [48, 320].
  static constexpr Shape kSingles[] = {{48, 48, 48},    {100, 100, 100},
                                       {96, 256, 64},   {192, 192, 192},
                                       {250, 130, 310}, {320, 320, 320}};
  // Batches draw from the three smallest single shapes.
  static constexpr std::size_t kBatchShapes = 3;

  explicit ServeMixed(std::uint64_t seed) : seed_(seed) {
    for (int c = 0; c < kClients; ++c) clients_.emplace_back(seed, c);
  }
  Engine::Options options(const std::string& dir) const override {
    return base_options(dir);
  }
  void warmup(Engine& eng, Tally& tally) override {
    Client& cl = clients_[0];
    const auto epoch = Clock::now();
    for (std::size_t s = 0; s < std::size(kSingles); ++s) {
      cl.single(eng, s, false, tally, epoch);
      cl.single(eng, s, true, tally, epoch);
    }
    for (std::size_t s = 0; s < kBatchShapes; ++s) {
      cl.batch(eng, s, false, tally, epoch);
      cl.batch(eng, s, true, tally, epoch);
    }
  }
  void phase(Engine& eng, double seconds, Tally& tally,
             std::vector<Req>& out) override {
    std::vector<Tally> tallies(kClients);
    std::vector<std::vector<Req>> recs(kClients);
    const auto epoch = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client& cl = clients_[c];
        while (seconds_since(epoch) < seconds) {
          const bool is_batch = cl.rng.next_below(8) == 0;
          const bool f32 = cl.rng.next_below(4) == 0;
          const std::size_t s = cl.rng.next_below(
              is_batch ? kBatchShapes : std::size(kSingles));
          recs[c].push_back(is_batch ? cl.batch(eng, s, f32, tallies[c], epoch)
                                     : cl.single(eng, s, f32, tallies[c], epoch));
          recs[c].back().window = static_cast<int>(recs[c].back().t0_us / 1e6);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) {
      tally.merge(tallies[c]);
      out.insert(out.end(), recs[c].begin(), recs[c].end());
    }
  }

 private:
  // One client's operands (one set per shape and dtype) and request stream.
  struct Client {
    Xoshiro256 rng;
    std::uint64_t probe_seq;
    std::vector<Problem<double>> f64;
    std::vector<Problem<float>> f32;
    std::vector<SharedBBatch<double>> b64;
    std::vector<SharedBBatch<float>> b32;

    Client(std::uint64_t seed, int id)
        : rng(seed * 1000003 + static_cast<std::uint64_t>(id)),
          probe_seq((seed << 20) + (static_cast<std::uint64_t>(id) << 40)) {
      std::uint64_t s = seed * 977 + static_cast<std::uint64_t>(id) * 131;
      for (const Shape& sh : kSingles) {
        f64.emplace_back(sh.m, sh.n, sh.k, ++s);
        f32.emplace_back(sh.m, sh.n, sh.k, ++s);
      }
      for (std::size_t i = 0; i < kBatchShapes; ++i) {
        const Shape& sh = kSingles[i];
        b64.emplace_back(sh.m, sh.n, sh.k, kBatchItems, ++s);
        b32.emplace_back(sh.m, sh.n, sh.k, kBatchItems, ++s);
      }
    }
    Req single(Engine& eng, std::size_t s, bool use_f32, Tally& tally,
               Clock::time_point epoch) {
      auto call = [&](auto& p, int& depth) { return auto_call(eng, p, depth); };
      return use_f32 ? timed_request(f32[s], call, tally, epoch, ++probe_seq)
                     : timed_request(f64[s], call, tally, epoch, ++probe_seq);
    }
    Req batch(Engine& eng, std::size_t s, bool use_f32, Tally& tally,
              Clock::time_point epoch) {
      return use_f32 ? run_batch(eng, b32[s], tally, epoch)
                     : run_batch(eng, b64[s], tally, epoch);
    }
    // A batch is one request; it fails if any item's probe fails.  The
    // auto path may pick any plan of the default space (at most two
    // levels), so items are held to the two-level allowance.
    template <typename T>
    Req run_batch(Engine& eng, SharedBBatch<T>& bt, Tally& tally,
                  Clock::time_point epoch) {
      bt.c.zero();
      const auto t0 = Clock::now();
      const Status st = eng.multiply(BatchSpec::strided(bt.spec()));
      const auto t1 = Clock::now();
      double res = 0.0;
      if (st.ok()) {
        for (std::size_t i = 0; i < bt.count; ++i)
          res = std::max(res, probe_residual<T>(bt.c_item(i), bt.a_item(i),
                                                bt.b.cview(), ++probe_seq));
      }
      tally.record(st, res, probe_tolerance(DTypeOf<T>::value, 2, bt.n, bt.k),
                   DTypeOf<T>::value);
      return {seconds_between(epoch, t0) * 1e6, seconds_between(t0, t1) * 1e6,
              bt.flops()};
    }
  };

  std::uint64_t seed_;
  std::vector<Client> clients_;
};

// large_parallel: 4096^3 f64 on a default Engine, one caller alternating
// the auto path and an explicit two-level <2,2,2> ABC plan; every dimension
// exceeds the recursive-descent cutoff.
class LargeParallel : public Workload {
 public:
  static constexpr index_t kN = 4096;
  explicit LargeParallel(std::uint64_t seed)
      : seed_(seed),
        problem_(kN, kN, kN, seed * 8 + 3),
        plan_(make_uniform_plan(catalog::best(2, 2, 2), 2, Variant::kABC)) {}
  Engine::Options options(const std::string& dir) const override {
    return base_options(dir);
  }
  void warmup(Engine& eng, Tally& tally) override {
    const auto epoch = Clock::now();
    request(eng, 0, tally, epoch);
    request(eng, 1, tally, epoch);
  }
  void phase(Engine& eng, double seconds, Tally& tally,
             std::vector<Req>& out) override {
    const auto epoch = Clock::now();
    for (int round = 0; seconds_since(epoch) < seconds; ++round) {
      for (std::size_t path = 0; path < 2; ++path) {
        out.push_back(request(eng, path, tally, epoch));
        out.back().window = round;
      }
    }
  }

 private:
  Req request(Engine& eng, std::size_t path, Tally& tally,
              Clock::time_point epoch) {
    return timed_request(
        problem_,
        [&](Problem<double>& p, int& depth) {
          if (path == 0) return auto_call(eng, p, depth);
          depth = plan_.num_levels();
          return eng.multiply(plan_, p.c.view(), p.a.cview(), p.b.cview());
        },
        tally, epoch, ++probe_seq_ + seed_);
  }

  std::uint64_t seed_;
  std::uint64_t probe_seq_ = 0;
  Problem<double> problem_;
  Plan plan_;
};

bool known_workload(const std::string& name) {
  return name == "paper_1core" || name == "serve_mixed" ||
         name == "large_parallel";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_1core") return std::make_unique<PaperOneCore>(seed);
  if (name == "serve_mixed") return std::make_unique<ServeMixed>(seed);
  if (name == "large_parallel") return std::make_unique<LargeParallel>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& open(const char* key = nullptr) { return sep(key).raw("{", true); }
  Json& close() {
    s_ += '}';
    first_ = false;
    return *this;
  }
  Json& num(const char* key, double v) {
    char buf[40];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return sep(key).raw(buf, false);
  }
  Json& str(const char* key, const std::string& v) {
    sep(key);
    s_ += '"';
    for (char ch : v) {
      if (ch == '"' || ch == '\\') s_ += '\\';
      s_ += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    s_ += '"';
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    return sep(key).raw(v ? "true" : "false", false);
  }
  // An already-serialized JSON value.
  Json& value(const char* key, const std::string& json) {
    return sep(key).raw(json.c_str(), false);
  }
  Json& reqs(const char* key, const std::vector<Req>& rs) {
    sep(key);
    s_ += '[';
    char buf[96];
    for (std::size_t i = 0; i < rs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s[%.3f,%.3f,%.17g,%d]", i ? "," : "",
                    rs[i].t0_us, rs[i].lat_us, rs[i].flops, rs[i].window);
      s_ += buf;
    }
    s_ += ']';
    return *this;
  }
  const std::string& text() const { return s_; }

 private:
  Json& sep(const char* key) {
    if (!first_) s_ += ',';
    first_ = false;
    if (key != nullptr) {
      s_ += '"';
      s_ += key;
      s_ += "\":";
    }
    return *this;
  }
  Json& raw(const char* v, bool opens) {
    s_ += v;
    if (opens) first_ = true;
    return *this;
  }
  std::string s_;
  bool first_ = true;
};

void tally_json(Json& j, const Tally& t) {
  j.num("attempted", static_cast<double>(t.attempted))
      .num("failed", static_cast<double>(t.failed))
      .num("max_residual_f64", t.max_residual[0])
      .num("max_residual_f32", t.max_residual[1])
      .num("max_tol_share", t.max_tol_share)
      .str("first_failure", t.first_failure);
}

// The resolved configuration a run measured with.
void info_json(Json& j, Engine& eng) {
  const BlockingParams b64 = resolve_blocking(eng.config(), DType::kF64);
  const BlockingParams b32 = resolve_blocking(eng.config(), DType::kF32);
  const int workers = eng.workers() > 0
                          ? eng.workers()
                          : static_cast<int>(std::thread::hardware_concurrency());
  j.open("info")
      .str("cpu_key", arch::calibration_cpu_key())
      .str("kernel_f64", active_kernel(DType::kF64).name)
      .str("kernel_f32", active_kernel(DType::kF32).name)
      .num("mc_f64", static_cast<double>(b64.mc))
      .num("kc_f64", static_cast<double>(b64.kc))
      .num("nc_f64", static_cast<double>(b64.nc))
      .num("mc_f32", static_cast<double>(b32.mc))
      .num("kc_f32", static_cast<double>(b32.kc))
      .num("nc_f32", static_cast<double>(b32.nc))
      .num("threads", resolve_threads(eng.config()))
      .num("workers", workers)
      .num("recurse_cutoff", static_cast<double>(eng.recurse_cutoff()))
      .boolean("history", eng.history_enabled())
      .close();
}

void stats_delta_json(Json& j, const char* key, const Engine::CacheStats& a,
                      const Engine::CacheStats& b) {
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  j.open(key)
      .num("exec_hits", d(a.hits, b.hits))
      .num("exec_misses", d(a.misses, b.misses))
      .num("exec_evictions", d(a.evictions, b.evictions))
      .num("choice_hits", d(a.choice_hits, b.choice_hits))
      .num("choice_misses", d(a.choice_misses, b.choice_misses))
      .num("history_observations",
           d(a.history_observations, b.history_observations))
      .num("history_hits", d(a.history_hits, b.history_hits))
      .num("history_overrides", d(a.history_overrides, b.history_overrides))
      .num("recursive_runs", d(a.recursive_runs, b.recursive_runs))
      .close();
}

double peak_rss_mib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// The per-layer ledger (traced run)
// ---------------------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

double get(const Metrics& m, const std::string& key) {
  for (const auto& [k, v] : m)
    if (k == key) return v;
  return 0.0;
}

// Micro-kernel rate on L1-resident packed panels at the resolved k_C.
template <typename T>
double kernel_l1_gflops() {
  const DType dt = DTypeOf<T>::value;
  const KernelInfo& kern = active_kernel(dt);
  const index_t kc = resolve_blocking(GemmConfig{}, dt).kc;
  AlignedBuffer<T> ap(static_cast<std::size_t>(kern.mr * kc));
  AlignedBuffer<T> bp(static_cast<std::size_t>(kern.nr * kc));
  AlignedBuffer<T> acc(kMaxAccElemsOf<T>);
  Xoshiro256 rng(11);
  for (std::size_t i = 0; i < ap.size(); ++i)
    ap.data()[i] = static_cast<T>(rng.uniform(-1, 1));
  for (std::size_t i = 0; i < bp.size(); ++i)
    bp.data()[i] = static_cast<T>(rng.uniform(-1, 1));
  const auto fn = kernel_fn<T>(kern);
  const int calls = 2000;
  const double t = median_seconds(15, [&] {
    obs::TraceScope span("kernel.l1", "bench");
    for (int i = 0; i < calls; ++i) fn(kc, ap.data(), bp.data(), acc.data());
  });
  return 2.0 * kern.mr * kern.nr * static_cast<double>(kc) * calls / t / 1e9;
}

// Packing bandwidth (computed bytes: every source term read once, the
// packed buffer written once) for `terms` operand blocks.
double pack_gbps(bool a_side, int terms) {
  GemmConfig cfg;
  cfg.num_threads = 1;
  const BlockingParams bp = resolve_blocking(cfg, DType::kF64);
  const index_t rows = a_side ? bp.mc : bp.kc;
  const index_t cols = a_side ? bp.kc : bp.nc;
  Mat<double> src(2 * rows, 2 * cols);
  Xoshiro256 rng(12);
  src.fill_random(rng);
  const index_t ld = 2 * cols;
  const LinTerm list[2] = {{src.buf.data(), 1.0},
                           {src.buf.data() + rows * ld + cols, 1.0}};
  const index_t panels =
      a_side ? ceil_div(rows, bp.mr) : ceil_div(cols, bp.nr);
  AlignedBuffer<double> out(static_cast<std::size_t>(
      (a_side ? panels * bp.mr * cols : panels * bp.nr * rows)));
  const double elems = static_cast<double>(rows * cols);
  const int calls = std::max(1, static_cast<int>(4e6 / elems));
  const double t = median_seconds(9, [&] {
    for (int c = 0; c < calls; ++c) {
      if (a_side) {
        obs::TraceScope span("pack.a", "bench");
        pack_a<double>(list, terms, ld, rows, cols, bp.mr, out.data());
      } else {
        obs::TraceScope span("pack.b", "bench");
        for (index_t q = 0; q < panels; ++q)
          pack_b_panel<double>(list, terms, ld, rows, cols, bp.nr, q,
                               out.data() + q * bp.nr * rows);
      }
    }
  });
  return (terms + 1) * elems * sizeof(double) * calls / t / 1e9;
}

struct LedgerShape {
  const char* name;
  index_t m, n, k;
};

Metrics run_ledger(std::uint64_t seed, const std::string& dir, Tally& tally) {
  Metrics out;
  auto put = [&](const std::string& k, double v) { out.emplace_back(k, v); };

  // arch calibrate and the micro-kernel in L1.
  {
    obs::TraceScope span("arch.kernel_gflops", "bench");
    put("arch.calib_gflops.f64", arch::kernel_gflops(active_kernel(DType::kF64)));
    put("arch.calib_gflops.f32", arch::kernel_gflops(active_kernel(DType::kF32)));
  }
  put("kernel.l1_gflops.f64", kernel_l1_gflops<double>());
  put("kernel.l1_gflops.f32", kernel_l1_gflops<float>());

  // Packing at the resolved blocking, one and two terms.
  put("pack.a.gbps", pack_gbps(true, 1));
  put("pack.b.gbps", pack_gbps(false, 1));
  put("pack.a2.gbps", pack_gbps(true, 2));
  put("pack.b2.gbps", pack_gbps(false, 2));

  // GEMM and one-level executors on one core at the Figure-2 shapes.
  GemmConfig cfg1;
  cfg1.num_threads = 1;
  const LedgerShape shapes[] = {{"rankk", 2880, 2880, 480},
                                {"square", 1440, 1440, 1200}};
  const char* plan_names[] = {"<2,2,2>", "<2,3,2>", "<3,2,3>"};
  const char* plan_keys[] = {"222", "232", "323"};
  std::vector<double> compile_ms;
  std::vector<double> best_measured;
  std::vector<double> gemm_t;
  for (const LedgerShape& sh : shapes) {
    Problem<double> p(sh.m, sh.n, sh.k, seed * 8 + 5);
    GemmWorkspace ws;
    const std::string s = sh.name;
    gemm(p.c.view(), p.a.cview(), p.b.cview(), ws, cfg1);
    const double tg = median_seconds(3, [&] {
      obs::TraceScope span("gemm", "bench");
      gemm(p.c.view(), p.a.cview(), p.b.cview(), ws, cfg1);
    });
    gemm_t.push_back(tg);
    put("gemm.gflops." + s, p.flops() / tg / 1e9);
    double best = tg;
    for (int i = 0; i < 3; ++i) {
      const FmmAlgorithm alg = catalog::get(plan_names[i]);
      const Plan plan = make_plan({alg}, Variant::kABC);
      const auto t0 = Clock::now();
      std::unique_ptr<FmmExecutor> ex;
      {
        obs::TraceScope span("executor.compile", "bench");
        ex = std::make_unique<FmmExecutor>(plan, sh.m, sh.n, sh.k, cfg1, 1);
      }
      compile_ms.push_back(seconds_since(t0) * 1e3);
      ex->run(p.c.view(), p.a.cview(), p.b.cview());
      const double te = median_seconds(2, [&] {
        obs::TraceScope span("executor.run", "bench");
        ex->run(p.c.view(), p.a.cview(), p.b.cview());
      });
      best = std::min(best, te);
      const std::string key = std::string(plan_keys[i]) + "." + s;
      put("executor.gflops." + key, p.flops() / te / 1e9);
      put("executor.speedup." + key, tg / te);
      put("executor.theory_frac." + key,
          (tg / te - 1.0) / alg.theoretical_speedup());
    }
    best_measured.push_back(best);
  }
  for (std::size_t i = 0; i < 2; ++i)
    put(std::string("gemm.eff_vs_kernel.") + shapes[i].name,
        get(out, std::string("gemm.gflops.") + shapes[i].name) /
            get(out, "kernel.l1_gflops.f64"));
  put("executor.compile_ms", median(compile_ms));

  // The auto path on one core at the same shapes: regret against the best
  // measured candidate above, and the model's prediction error.
  {
    Engine::Options o;
    o.calib_cache_path = dir + "/calib.txt";
    o.config.num_threads = 1;
    o.workers = 1;
    Engine eng(o);
    for (std::size_t i = 0; i < 2; ++i) {
      const LedgerShape& sh = shapes[i];
      Problem<double> p(sh.m, sh.n, sh.k, seed * 8 + 5);
      eng.multiply(p.c.view(), p.a.cview(), p.b.cview());
      const double ta = median_seconds(2, [&] {
        obs::TraceScope span("engine.multiply", "bench");
        eng.multiply(p.c.view(), p.a.cview(), p.b.cview());
      });
      const double pred = eng.choice_for(sh.m, sh.n, sh.k).predicted_seconds;
      put(std::string("model.regret.") + sh.name, ta / best_measured[i]);
      put(std::string("model.pred_err.") + sh.name, std::fabs(pred - ta) / ta);
    }
    // One probed f32 request, so every traced run checks an f32 result.
    Problem<float> pf(shapes[1].m, shapes[1].n, shapes[1].k, seed * 8 + 8);
    timed_request(
        pf, [&](Problem<float>& q, int& depth) { return auto_call(eng, q, depth); },
        tally, Clock::now(), seed);
  }

  // Engine front-door overhead: one client's auto-path multiply minus a
  // direct run of what it executed, on the same operands.
  {
    Engine::Options o;
    o.calib_cache_path = dir + "/calib.txt";
    Engine eng(o);
    for (index_t s : {64, 256}) {
      Problem<double> p(s, s, s, seed * 8 + 6);
      const int reps = s == 64 ? 400 : 100;
      std::shared_ptr<const AutoChoice> executed;
      for (int i = 0; i < 20; ++i)
        eng.multiply(p.c.view(), p.a.cview(), p.b.cview(), &executed);
      const double te = median_seconds(reps, [&] {
        obs::TraceScope span("engine.multiply", "bench");
        eng.multiply(p.c.view(), p.a.cview(), p.b.cview(), &executed);
      });
      double td = 0.0;
      if (executed_depth(executed) == 0) {
        GemmWorkspace ws;
        gemm(p.c.view(), p.a.cview(), p.b.cview(), ws, eng.config());
        td = median_seconds(reps, [&] {
          obs::TraceScope span("gemm", "bench");
          gemm(p.c.view(), p.a.cview(), p.b.cview(), ws, eng.config());
        });
      } else {
        FmmExecutor ex(*executed->plan, s, s, s, eng.config());
        ex.run(p.c.view(), p.a.cview(), p.b.cview());
        td = median_seconds(reps, [&] {
          obs::TraceScope span("executor.run", "bench");
          ex.run(p.c.view(), p.a.cview(), p.b.cview());
        });
      }
      put("engine.overhead_us." + std::to_string(s), (te - td) * 1e6);
    }
  }

  // TaskPool handoff: empty task submit -> resolve on an idle pool of the
  // default Engine's worker count.
  {
    TaskPool pool(static_cast<int>(std::thread::hardware_concurrency()));
    for (int i = 0; i < 100; ++i) pool.submit([] {}).wait();
    put("pool.handoff_us", 1e6 * median_seconds(2000, [&] {
                             obs::TraceScope span("pool.handoff", "bench");
                             pool.submit([] {}).wait();
                           }));
  }

  // 4096^3: multi-threaded GEMM, the recursive graph against the same plan
  // with descent disabled, and the auto path's regret at that size.
  {
    const index_t n = LargeParallel::kN;
    Problem<double> p(n, n, n, seed * 8 + 7);
    const Plan plan = make_uniform_plan(catalog::best(2, 2, 2), 2, Variant::kABC);
    auto once = [&](const char* span_name, auto&& f) {
      f();  // warm-up
      return median_seconds(1, [&] {
        obs::TraceScope span(span_name, "bench");
        f();
      });
    };
    GemmConfig cfg4;
    cfg4.num_threads = 4;
    double tg4 = 0.0;
    {
      GemmWorkspace ws;
      tg4 = once("gemm", [&] {
        gemm(p.c.view(), p.a.cview(), p.b.cview(), ws, cfg4);
      });
    }
    put("gemm.gflops.4t", p.flops() / tg4 / 1e9);
    put("gemm.parallel_eff", get(out, "gemm.gflops.4t") /
                                 (4.0 * get(out, "gemm.gflops.square")));

    Engine::Options o;
    o.calib_cache_path = dir + "/calib.txt";
    double trec = 0.0, tauto = 0.0, pred = 0.0, peak = 0.0;
    {
      Engine eng(o);
      trec = once("recursive", [&] {
        eng.multiply(plan, p.c.view(), p.a.cview(), p.b.cview());
      });
      tauto = once("engine.multiply", [&] {
        eng.multiply(p.c.view(), p.a.cview(), p.b.cview());
      });
      pred = eng.choice_for(n, n, n).predicted_seconds;
      eng.metrics_report_json();  // refreshes the buffer-pool gauges
      peak = static_cast<double>(
          eng.metrics().gauge("engine.recurse.peak_bytes").value());
    }
    o.recurse_cutoff = -1;
    double tflat = 0.0;
    {
      Engine eng(o);
      tflat = once("executor.run", [&] {
        eng.multiply(plan, p.c.view(), p.a.cview(), p.b.cview());
      });
    }
    put("recursive.gflops", p.flops() / trec / 1e9);
    put("recursive.flat_gflops", p.flops() / tflat / 1e9);
    put("recursive.speedup_vs_flat", tflat / trec);
    put("recursive.peak_mib", peak / (1024.0 * 1024.0));
    put("model.regret.large", tauto / std::min({tg4, trec, tflat}));
    put("model.pred_err.large", std::fabs(pred - tauto) / tauto);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string mode, workload, dir, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

// Set-up: Engine construction until one request of every distinct
// (shape, dtype, path) has completed.
struct SetUp {
  std::unique_ptr<Workload> wl;
  std::unique_ptr<Engine> eng;
  double setup_s = 0.0;
};
SetUp set_up(const Args& a, Tally& tally) {
  SetUp s;
  s.wl = make_workload(a.workload, a.seed);
  const auto t0 = Clock::now();
  s.eng = std::make_unique<Engine>(s.wl->options(a.dir));
  s.wl->warmup(*s.eng, tally);
  s.setup_s = seconds_since(t0);
  return s;
}

int mode_setup(const Args& a) {
  Tally tally;
  SetUp s = set_up(a, tally);
  Json j;
  j.open().str("mode", "setup").num("setup_s", s.setup_s);
  tally_json(j, tally);
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int mode_run(const Args& a) {
  Tally tally;
  SetUp s = set_up(a, tally);
  std::vector<Req> reqs;
  const Engine::CacheStats before = s.eng->stats();
  s.wl->phase(*s.eng, a.seconds, tally, reqs);
  const Engine::CacheStats after = s.eng->stats();
  Json j;
  j.open().str("mode", "run").num("setup_s", s.setup_s);
  tally_json(j, tally);
  info_json(j, *s.eng);
  stats_delta_json(j, "stats_delta", before, after);
  j.value("metrics_report", s.eng->metrics_report_json());
  j.reqs("requests", reqs);
  s.eng.reset();
  j.num("peak_rss_mib", peak_rss_mib()).close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int mode_ledger(const Args& a) {
  Tally tally;
  Json j;
  j.open().str("mode", "ledger");
  {
    SetUp s = set_up(a, tally);
    std::vector<Req> untraced, traced;
    s.wl->phase(*s.eng, a.seconds, tally, untraced);
    // 16Ki events per thread keep the ledger's spans (recorded last) and
    // bound the trace file; older workload spans drop first.
    obs::trace_begin("", 1 << 14);
    const Engine::CacheStats before = s.eng->stats();
    s.wl->phase(*s.eng, a.seconds, tally, traced);
    const Engine::CacheStats after = s.eng->stats();
    info_json(j, *s.eng);
    stats_delta_json(j, "stats_delta", before, after);
    j.value("metrics_report", s.eng->metrics_report_json());
    j.reqs("untraced", untraced).reqs("traced", traced);
  }
  const Metrics ledger = run_ledger(a.seed, a.dir, tally);
  const Status written = obs::trace_write(a.trace_out);
  obs::trace_end();
  j.boolean("trace_written", written.ok());
  j.open("ledger");
  for (const auto& [k, v] : ledger) j.num(k.c_str(), v);
  j.close();
  tally_json(j, tally);
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// The accounting must count a perturbed C and a non-OK Status as failed,
// and pass an untouched result, in both element types.
template <typename T>
void selftest_dtype(Engine& eng, Json& j, const char* tag) {
  const auto epoch = Clock::now();
  Problem<T> p(96, 80, 112, 42);
  auto call = [&](Problem<T>& q, int& depth) { return auto_call(eng, q, depth); };
  Tally clean;
  timed_request(p, call, clean, epoch, 7);

  // Same request, then one entry of C shifted by the largest |C|.
  Tally perturbed;
  p.c.zero();
  std::shared_ptr<const AutoChoice> executed;
  const Status st = eng.multiply(p.c.view(), p.a.cview(), p.b.cview(), &executed);
  T cmax = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(p.m() * p.n()); ++i)
    cmax = std::max(cmax, std::fabs(p.c.buf.data()[i]));
  p.c.view()(5, 7) += cmax;
  perturbed.record(st, probe_residual<T>(p.c.cview(), p.a.cview(), p.b.cview(), 7),
                   probe_tolerance(DTypeOf<T>::value, executed_depth(executed),
                                   p.n(), p.k()),
                   DTypeOf<T>::value);

  // B with one row too many: the Engine rejects it with a Status.
  Tally rejected;
  Problem<T> bad(96, 80, 112, 43);
  Mat<T> b_wrong(113, 80);
  b_wrong.zero();
  rejected.record(eng.multiply(bad.c.view(), bad.a.cview(), b_wrong.cview()),
                  0.0, 1.0, DTypeOf<T>::value);

  j.open(tag)
      .num("clean_failed", static_cast<double>(clean.failed))
      .num("clean_tol_share", clean.max_tol_share)
      .num("perturbed_failed", static_cast<double>(perturbed.failed))
      .num("rejected_failed", static_cast<double>(rejected.failed))
      .str("rejected_status", rejected.first_failure)
      .close();
}

int mode_selftest(const Args& a) {
  Engine::Options o = base_options(a.dir);
  o.config.num_threads = 1;
  o.workers = 1;
  Engine eng(o);
  Json j;
  j.open().str("mode", "selftest");
  selftest_dtype<double>(eng, j, "f64");
  selftest_dtype<float>(eng, j, "f32");
  j.num("median_odd", median({3.0, 1.0, 2.0}))
      .num("median_even", median({4.0, 1.0, 3.0, 2.0}))
      .close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: fmm_perfbench run|setup|ledger|selftest --workload W "
               "--seed N --seconds S --dir D [--trace-out F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--dir") a.dir = val;
    else if (key == "--trace-out") a.trace_out = val;
    else return usage();
  }
  if (a.dir.empty()) return usage();
  if (a.mode == "selftest") return mode_selftest(a);
  if (!known_workload(a.workload)) return usage();
  if (a.mode == "setup") return mode_setup(a);
  if (a.mode == "run") return mode_run(a);
  if (a.mode == "ledger" && !a.trace_out.empty()) return mode_ledger(a);
  return usage();
}
