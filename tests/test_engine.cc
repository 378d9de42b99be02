// fmm::Engine — the unified serving session API.  Covers the executor
// cache (hit/miss/eviction accounting, LRU policy, the FMM_ENGINE_CACHE
// env knob), explicit-plan and auto paths sharing compiled executors,
// cross-shape and strided batches (bitwise equivalence with per-call
// execution), Status error paths (shape mismatch, bad strides, aliasing),
// and concurrent multi-shape hammering from host threads (the TSan CI leg
// runs the EngineConcurrency suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "src/core/catalog.h"
#include "src/core/engine.h"
#include "src/linalg/ops.h"
#include "tests/test_support.h"

namespace fmm {
namespace {

Plan strassen_plan(Variant v = Variant::kABC) {
  return make_plan({catalog::best(2, 2, 2)}, v);
}

Engine::Options small_cache_options(std::size_t cap, int shards = 1) {
  Engine::Options opts;
  opts.cache_capacity = cap;
  opts.shards = shards;
  return opts;
}

// ---------------------------------------------------------------------------
// Explicit-plan path: correctness and cache accounting.
// ---------------------------------------------------------------------------

TEST(EngineExplicit, MatchesReference) {
  Engine engine;
  const Plan plan = strassen_plan();
  for (index_t s : {48, 64, 101}) {
    test::RandomProblem p = test::random_problem(s, s, s, 7);
    ASSERT_TRUE(engine.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(s))
        << "s=" << s;
  }
}

TEST(EngineExplicit, BitwiseIdenticalToDirectExecutor) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 96;
  test::RandomProblem p = test::random_problem(s, s, s, 11);
  Matrix c_direct = p.c.clone();
  ASSERT_TRUE(engine.multiply(plan, p.c.view(), p.a.view(), p.b.view()).ok());
  FmmExecutor exec(plan, s, s, s, engine.config());
  exec.run(c_direct.view(), p.a.view(), p.b.view());
  EXPECT_EQ(max_abs_diff(p.c.view(), c_direct.view()), 0.0);
}

// ---------------------------------------------------------------------------
// The element-type-templated front door: every single-request form and every
// BatchSpec factory, for both element types and with writable A/B views,
// lands on the same execution as the synchronous multiply(plan, c, a, b).
// Auto forms are held to the synchronous auto multiply (same engine, so the
// same cached choice; history off so no measurement can flip it).
// ---------------------------------------------------------------------------

template <typename T>
class EngineFrontDoor : public ::testing::Test {};
using FrontDoorTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(EngineFrontDoor, FrontDoorTypes);

TYPED_TEST(EngineFrontDoor, EveryFormMatchesSynchronousMultiplyBitwise) {
  using T = TypeParam;
  using Mat = MatrixT<T>;
  Engine::Options opts;
  opts.history = false;
  Engine engine(opts);
  const Plan plan = strassen_plan();
  const GemmConfig cfg = engine.config();  // same key as the default form
  const index_t m = 48, n = 40, k = 56;
  auto p = test::random_problem<T>(m, n, k, 71);
  MatViewT<T> a = p.a.view(), b = p.b.view();  // writable on purpose
  const std::size_t item_bytes = sizeof(T) * static_cast<std::size_t>(m * n);

  Mat want = p.c.clone();
  ASSERT_TRUE(engine.multiply(plan, want.view(), a, b).ok());
  Mat want_auto = p.c.clone();
  ASSERT_TRUE(engine.multiply(want_auto.view(), a, b).ok());

  // One form on a fresh copy of C, compared with `expect` bit for bit.
  auto check = [&](const Mat& expect, const char* form, auto&& call) {
    Mat c = p.c.clone();
    ASSERT_TRUE(call(c.view()).ok()) << form;
    EXPECT_EQ(std::memcmp(c.data(), expect.data(), item_bytes), 0) << form;
  };
  std::shared_ptr<const AutoChoice> executed;
  check(want, "multiply(plan, c, a, b, cfg)",
        [&](MatViewT<T> c) { return engine.multiply(plan, c, a, b, cfg); });
  check(want_auto, "multiply(c, a, b)",
        [&](MatViewT<T> c) { return engine.multiply(c, a, b); });
  check(want_auto, "multiply(c, a, b, &executed)", [&](MatViewT<T> c) {
    return engine.multiply(c, a, b, &executed);
  });
  EXPECT_NE(executed, nullptr);
  check(want, "submit(plan, c, a, b)", [&](MatViewT<T> c) {
    return engine.submit(plan, c, a, b).status();
  });
  check(want, "submit(plan, c, a, b, cfg)", [&](MatViewT<T> c) {
    return engine.submit(plan, c, a, b, cfg).status();
  });
  check(want_auto, "submit(c, a, b)", [&](MatViewT<T> c) {
    return engine.submit(c, a, b).status();
  });

  // The three BatchSpec factories, two writable-A/B items each; the
  // strided batch stacks its C items over one shared A and B.
  Mat c0 = p.c.clone(), c1 = p.c.clone();
  const BatchItemT<T> items[2] = {{c0.view(), a, b}, {c1.view(), a, b}};
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::items(items, 2)).ok());
  Mat c2 = p.c.clone(), c3 = p.c.clone();
  const std::vector<BatchItemT<T>> item_vec = {{c2.view(), a, b},
                                               {c3.view(), a, b}};
  ASSERT_TRUE(
      engine.submit(plan, BatchSpec::items(item_vec), cfg).status().ok());
  Mat cs(2 * m, n);
  std::copy_n(p.c.data(), m * n, cs.data());
  std::copy_n(p.c.data(), m * n, cs.data() + m * n);
  StridedBatchT<T> sb;
  sb.m = m;
  sb.n = n;
  sb.k = k;
  sb.count = 2;
  sb.c = cs.data();
  sb.a = p.a.data();
  sb.b = p.b.data();
  sb.stride_c = m * n;
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());
  const T* outs[] = {c0.data(), c1.data(), c2.data(),
                     c3.data(), cs.data(), cs.data() + m * n};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(std::memcmp(outs[i], want.data(), item_bytes), 0)
        << "batch output " << i << " of items(ptr), items(vector), strided";
  }
}

TEST(EngineCache, HitMissEvictionAccounting) {
  Engine engine(small_cache_options(/*cap=*/2, /*shards=*/1));
  ASSERT_EQ(engine.cache_capacity(), 2u);
  const Plan plan = strassen_plan();
  const index_t shapes[3] = {32, 40, 48};
  Matrix a = Matrix::random(64, 64, 1), b = Matrix::random(64, 64, 2);
  Matrix c = Matrix::zero(64, 64);
  auto run_shape = [&](index_t s) {
    ASSERT_TRUE(engine
                    .multiply(plan, c.view().block(0, 0, s, s),
                              a.view().block(0, 0, s, s),
                              b.view().block(0, 0, s, s))
                    .ok());
  };

  run_shape(shapes[0]);  // miss
  run_shape(shapes[1]);  // miss
  run_shape(shapes[0]);  // hit
  run_shape(shapes[1]);  // hit
  auto s1 = engine.stats();
  EXPECT_EQ(s1.misses, 2u);
  EXPECT_EQ(s1.hits, 2u);
  EXPECT_EQ(s1.evictions, 0u);
  EXPECT_EQ(s1.entries, 2u);

  run_shape(shapes[2]);  // miss + eviction (cap 2)
  auto s2 = engine.stats();
  EXPECT_EQ(s2.misses, 3u);
  EXPECT_EQ(s2.evictions, 1u);
  EXPECT_EQ(s2.entries, 2u);

  // LRU policy: shapes[0] was touched after shapes[1]... both were touched
  // in order 0,1,0,1 — so shapes[0] is the LRU and must have been evicted;
  // shapes[1] must still hit.
  run_shape(shapes[1]);
  auto s3 = engine.stats();
  EXPECT_EQ(s3.hits, s2.hits + 1);
  EXPECT_EQ(s3.misses, s2.misses);
}

TEST(EngineCache, DistinctPlansCoefficientsAndConfigsKeySeparately) {
  Engine engine(small_cache_options(/*cap=*/8));
  const index_t s = 40;
  test::RandomProblem p = test::random_problem(s, s, s, 3, /*zero_c=*/true);

  ASSERT_TRUE(
      engine.multiply(strassen_plan(), p.c.view(), p.a.view(), p.b.view())
          .ok());
  // Same dims, different coefficients (Winograd): distinct entry.
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(make_plan({make_winograd()}, Variant::kABC),
                            p.c.view(), p.a.view(), p.b.view())
                  .ok());
  // Same plan, different variant: distinct entry.
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(strassen_plan(Variant::kAB), p.c.view(),
                            p.a.view(), p.b.view())
                  .ok());
  // Same plan, per-call config override: distinct entry.
  GemmConfig two;
  two.num_threads = 2;
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(strassen_plan(), p.c.view(), p.a.view(),
                            p.b.view(), two)
                  .ok());
  auto st = engine.stats();
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.entries, 4u);

  // Every key re-requested is a hit.
  p.c.set_zero();
  ASSERT_TRUE(
      engine.multiply(strassen_plan(), p.c.view(), p.a.view(), p.b.view())
          .ok());
  p.c.set_zero();
  ASSERT_TRUE(engine
                  .multiply(strassen_plan(), p.c.view(), p.a.view(),
                            p.b.view(), two)
                  .ok());
  auto st2 = engine.stats();
  EXPECT_EQ(st2.misses, 4u);
  EXPECT_GE(st2.hits, 2u);
  ref_gemm(p.want.view(), p.a.view(), p.b.view());
  EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), test::tol_for(s));

  // Alternating two same-dims plans keeps both cached: no recompiles.
  for (int rep = 0; rep < 3; ++rep) {
    p.c.set_zero();
    ASSERT_TRUE(
        engine.multiply(strassen_plan(), p.c.view(), p.a.view(), p.b.view())
            .ok());
    p.c.set_zero();
    ASSERT_TRUE(engine
                    .multiply(make_plan({make_winograd()}, Variant::kABC),
                              p.c.view(), p.a.view(), p.b.view())
                    .ok());
  }
  auto st3 = engine.stats();
  EXPECT_EQ(st3.misses, st2.misses);
  EXPECT_EQ(st3.hits, st2.hits + 6);
}

TEST(EngineCache, EnvKnobSetsDefaultCapacity) {
  ASSERT_EQ(setenv("FMM_ENGINE_CACHE", "3", /*overwrite=*/1), 0);
  {
    Engine engine;
    // Rounded up to a multiple of the shard count (shards clamp to cap).
    EXPECT_GE(engine.cache_capacity(), 3u);
    EXPECT_LE(engine.cache_capacity(), 4u);
  }
  for (const char* junk : {"not-a-number", "junk", "3junk", "-1", "0"}) {
    ASSERT_EQ(setenv("FMM_ENGINE_CACHE", junk, 1), 0);
    Engine engine;  // invalid value: warn and fall back to the default
    EXPECT_EQ(engine.cache_capacity(), Engine::kDefaultCacheCapacity)
        << "FMM_ENGINE_CACHE=" << junk;
  }
  ASSERT_EQ(unsetenv("FMM_ENGINE_CACHE"), 0);
  Engine::Options explicit_cap;
  explicit_cap.cache_capacity = 5;
  explicit_cap.shards = 1;
  Engine engine(explicit_cap);
  EXPECT_EQ(engine.cache_capacity(), 5u);
}

// ---------------------------------------------------------------------------
// Status error paths.
// ---------------------------------------------------------------------------

TEST(EngineStatus, ShapeMismatchIsRecoverable) {
  Engine engine;
  const Plan plan = strassen_plan();
  Matrix a = Matrix::random(32, 48, 1);
  Matrix b = Matrix::random(40, 32, 2);  // k mismatch: A is 32x48, B 40x32
  Matrix c = Matrix::zero(32, 32);
  const Status st = engine.multiply(plan, c.view(), a.view(), b.view());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape);
  EXPECT_NE(st.message().find("conform"), std::string::npos) << st.to_string();
  // Nothing was written.
  EXPECT_EQ(max_abs_diff(c.view(), Matrix::zero(32, 32).view()), 0.0);

  // Conforming views whose row span, (rows - 1) * stride + cols, does not
  // fit index_t: rejected before the span is formed (and before any
  // pointer is dereferenced).
  const index_t huge = std::numeric_limits<index_t>::max() / 2;
  struct Case {
    index_t m, ldc, lda;
  };
  for (const Case& cs : {Case{huge, 32, 48},   // rows * stride
                         Case{32, huge, 48},   // C row stride
                         Case{32, 32, huge},   // A row stride
                         Case{2, std::numeric_limits<index_t>::max(), 48}}) {
    const Status big = engine.multiply(
        plan, MatView(c.data(), cs.m, 32, cs.ldc),
        ConstMatView(a.data(), cs.m, 48, cs.lda),
        ConstMatView(b.data(), 48, 32, 32));
    EXPECT_EQ(big.code(), StatusCode::kInvalidShape)
        << "m=" << cs.m << " ldc=" << cs.ldc << " lda=" << cs.lda << ": "
        << big.to_string();
  }
  EXPECT_EQ(max_abs_diff(c.view(), Matrix::zero(32, 32).view()), 0.0);
}

TEST(EngineStatus, NonConformingBIsRejected) {
  Engine engine;
  const Plan plan = strassen_plan();
  Matrix a = Matrix::random(32, 32, 1), b = Matrix::random(32, 32, 2);
  Matrix c = Matrix::zero(32, 32);
  const Status st = engine.multiply(plan, c.view(), a.view(),
                                    ConstMatView(b.data(), 32, 16, 16));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape);  // 32x16 B cannot conform
}

TEST(EngineStatus, OutputAliasingInputIsRejected) {
  Engine engine;
  const Plan plan = strassen_plan();
  Matrix a = Matrix::random(32, 32, 1), b = Matrix::random(32, 32, 2);
  const Status st =
      engine.multiply(plan, a.view(), a.view(), b.view());  // C is A
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAliasing);
}

TEST(EngineStatus, BatchWithOneBadItemComputesNothing) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 32;
  Matrix a = Matrix::random(s, s, 1), b = Matrix::random(s, s, 2);
  Matrix c0 = Matrix::zero(s, s), c1 = Matrix::zero(s, s);
  Matrix bad_b = Matrix::random(s + 1, s, 3);  // wrong k for item 1
  std::vector<BatchItem> items = {
      {c0.view(), a.view(), b.view()},
      {c1.view(), a.view(), bad_b.view()},
  };
  const Status st = engine.multiply(plan, BatchSpec::items(items));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape);
  EXPECT_NE(st.message().find("item 1"), std::string::npos) << st.to_string();
  // Validation precedes arithmetic: the good item was not executed either.
  EXPECT_EQ(max_abs_diff(c0.view(), Matrix::zero(s, s).view()), 0.0);
}

TEST(EngineStatus, DuplicateBatchOutputIsRejected) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 32;
  Matrix a = Matrix::random(s, s, 1), b = Matrix::random(s, s, 2);
  Matrix c = Matrix::zero(s, s);
  std::vector<BatchItem> items = {
      {c.view(), a.view(), b.view()},
      {c.view(), a.view(), b.view()},  // same C twice: silently racy
  };
  const Status st = engine.multiply(plan, BatchSpec::items(items));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAliasing);
}

TEST(EngineStatus, StridedBatchBadStridesAreRecoverable) {
  Engine engine;
  const Plan plan = strassen_plan();
  const index_t s = 32;
  Matrix a(3 * s, s), b(s, s), c(3 * s, s);
  a.fill_random(1);
  b.fill_random(2);
  c.set_zero();

  StridedBatch sb;
  sb.m = sb.n = sb.k = s;
  sb.count = 3;
  sb.c = c.data();
  sb.a = a.data();
  sb.b = b.data();
  sb.stride_a = s * s;
  sb.stride_b = 0;

  // stride_c == 0 with count > 1: every item would write the same C.
  sb.stride_c = 0;
  Status st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAliasing);

  // 0 < stride_c < n: adjacent C items overlap.
  sb.stride_c = s - 1;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // stride_c == n with a dense ldc and m > 1: item 1 starts inside item
  // 0's second row — neither stacked nor interleaved, must be rejected.
  sb.stride_c = s;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // stride_c < n with a padded ldc: the items fit inside the row span but
  // consecutive row segments overlap — not a valid interleaved layout.
  sb.ldc = 4 * s;
  sb.stride_c = s / 2;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);
  sb.ldc = 0;

  // Row stride smaller than the row length.
  sb.stride_c = s * s;
  sb.ldc = s - 4;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // Negative batch stride.
  sb.ldc = 0;
  sb.stride_a = -1;
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidStride);

  // Extents whose item offsets do not fit index_t: rejected before the
  // overflowing offset is formed.
  sb.stride_a = s * s;
  const index_t huge = std::numeric_limits<index_t>::max() / 2;
  sb.ldc = huge;  // (m - 1) * ldc + n
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape) << st.to_string();
  sb.ldc = 0;
  sb.stride_c = huge;  // (count - 1) * stride_c + item span
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape) << st.to_string();
  sb.stride_c = s * s;
  sb.stride_b = huge;  // the same for B
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape) << st.to_string();
  sb.stride_b = 0;
  sb.count = std::numeric_limits<std::size_t>::max();  // count > index_t
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape) << st.to_string();
  sb.count = static_cast<std::size_t>(std::numeric_limits<index_t>::max() /
                                      (s * s)) +
             2;  // (count - 1) * stride_c alone

  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_EQ(st.code(), StatusCode::kInvalidShape) << st.to_string();
  sb.count = 3;
  EXPECT_EQ(max_abs_diff(c.view(), Matrix::zero(3 * s, s).view()), 0.0);

  // All strides fixed: the same descriptor now runs.
  st = engine.multiply(plan, BatchSpec::strided(sb));
  EXPECT_TRUE(st.ok()) << st.to_string();
}

// ---------------------------------------------------------------------------
// Batches: cross-shape grouping and the strided layout.
// ---------------------------------------------------------------------------

TEST(EngineBatch, CrossShapeBatchMatchesPerCallBitwise) {
  const Plan plan = strassen_plan();
  // Interleaved shapes; each group must land on one cached executor and
  // match per-call execution bitwise.
  const index_t shapes[3] = {40, 64, 96};
  const int per_shape = 3;
  std::vector<Matrix> as, bs, cs, ws;
  std::vector<BatchItem> items;
  for (int i = 0; i < 3 * per_shape; ++i) {
    const index_t s = shapes[i % 3];
    as.push_back(Matrix::random(s, s, 100 + static_cast<std::uint64_t>(i)));
    bs.push_back(Matrix::random(s, s, 200 + static_cast<std::uint64_t>(i)));
    cs.push_back(Matrix::zero(s, s));
    ws.push_back(Matrix::zero(s, s));
  }
  for (int i = 0; i < 3 * per_shape; ++i) {
    items.push_back({cs[static_cast<std::size_t>(i)].view(),
                     as[static_cast<std::size_t>(i)].view(),
                     bs[static_cast<std::size_t>(i)].view()});
  }

  // Reference: per-call through a second engine (run_batch is bitwise
  // identical to run per item; engine single calls use run).
  Engine ref_engine;
  for (int i = 0; i < 3 * per_shape; ++i) {
    ASSERT_TRUE(ref_engine
                    .multiply(plan, ws[static_cast<std::size_t>(i)].view(),
                              as[static_cast<std::size_t>(i)].view(),
                              bs[static_cast<std::size_t>(i)].view())
                    .ok());
  }

  Engine engine;
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::items(items)).ok());
  for (int i = 0; i < 3 * per_shape; ++i) {
    EXPECT_EQ(max_abs_diff(cs[static_cast<std::size_t>(i)].view(),
                           ws[static_cast<std::size_t>(i)].view()),
              0.0)
        << "item " << i;
  }
  // One executor per distinct shape, not per item.
  EXPECT_EQ(engine.stats().entries, 3u);
}

TEST(EngineBatch, StridedRoundTripMatchesPerItemViews) {
  const Plan plan = strassen_plan();
  const index_t s = 64;
  const std::size_t count = 8;
  const index_t item = s * s;
  Matrix a(static_cast<index_t>(count) * s, s);
  Matrix c(static_cast<index_t>(count) * s, s);
  Matrix cw(static_cast<index_t>(count) * s, s);
  Matrix b = Matrix::random(s, s, 5);
  a.fill_random(6);
  c.fill_random(7);
  std::memcpy(cw.data(), c.data(),
              static_cast<std::size_t>(count) *
                  static_cast<std::size_t>(item) * sizeof(double));

  Engine view_engine;
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    const index_t off = static_cast<index_t>(i) * item;
    items.push_back({MatView(cw.data() + off, s, s, s),
                     ConstMatView(a.data() + off, s, s, s), b.view()});
  }
  ASSERT_TRUE(view_engine.multiply(plan, BatchSpec::items(items)).ok());

  Engine engine;
  StridedBatch sb;
  sb.m = sb.n = sb.k = s;
  sb.count = count;
  sb.c = c.data();
  sb.a = a.data();
  sb.b = b.data();
  sb.stride_c = item;
  sb.stride_a = item;
  sb.stride_b = 0;  // shared B — the prepacked fast path
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());

  EXPECT_EQ(max_abs_diff(c.view(), cw.view()), 0.0);
}

TEST(EngineBatch, InterleavedColumnLayout) {
  // Items interleaved inside one row-major buffer: item i occupies columns
  // [i*n, (i+1)*n) of a (m x count*n) matrix — batch stride n, row stride
  // count*n.  The strided expansion must serve this without copies.
  const Plan plan = strassen_plan();
  const index_t s = 48;
  const std::size_t count = 4;
  const index_t ld = static_cast<index_t>(count) * s;
  Matrix a(s, ld), c(s, ld), cw(s, ld);
  Matrix b = Matrix::random(s, s, 9);
  a.fill_random(10);
  c.set_zero();
  cw.set_zero();

  Engine engine;
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < count; ++i) {
    const index_t off = static_cast<index_t>(i) * s;
    items.push_back({MatView(cw.data() + off, s, s, ld),
                     ConstMatView(a.data() + off, s, s, ld), b.view()});
  }
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::items(items)).ok());

  StridedBatch sb;
  sb.m = sb.n = sb.k = s;
  sb.count = count;
  sb.c = c.data();
  sb.a = a.data();
  sb.b = b.data();
  sb.ldc = ld;
  sb.lda = ld;
  sb.stride_c = s;
  sb.stride_a = s;
  sb.stride_b = 0;
  ASSERT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());
  EXPECT_EQ(max_abs_diff(c.view(), cw.view()), 0.0);
}

TEST(EngineBatch, EmptyBatchesAreOk) {
  Engine engine;
  const Plan plan = strassen_plan();
  EXPECT_TRUE(engine.multiply(plan, BatchSpec()).ok());
  EXPECT_TRUE(engine.multiply(plan, BatchSpec::items(static_cast<const BatchItem*>(nullptr), 0)).ok());
  StridedBatch sb;
  sb.m = sb.n = sb.k = 32;
  EXPECT_TRUE(engine.multiply(plan, BatchSpec::strided(sb)).ok());
  EXPECT_EQ(engine.stats().entries, 0u);  // nothing compiled
}

// ---------------------------------------------------------------------------
// Auto path.
// ---------------------------------------------------------------------------

TEST(EngineAuto, MatchesReference) {
  Engine engine;  // literature-default model parameters (no calibration)
  for (index_t s : {64, 200}) {
    test::RandomProblem p = test::random_problem(s, s, s, 21);
    ASSERT_TRUE(engine.multiply(p.c.view(), p.a.view(), p.b.view()).ok());
    ref_gemm(p.want.view(), p.a.view(), p.b.view());
    EXPECT_LE(max_abs_diff(p.c.view(), p.want.view()), 1e-10 * s) << s;
  }
}

TEST(EngineAuto, ChoiceCacheIsBoundedWithLru) {
  Engine::Options opts;
  opts.cache_capacity = 1;  // one shard of one executor: 8 choices
  Engine engine(opts);
  ASSERT_EQ(engine.choice_capacity(), 8u);
  const index_t first = 512;
  for (index_t i = 0; i < 8; ++i) {
    (void)engine.choice_for(first + 64 * i, 512, 512);  // 8 misses
  }
  (void)engine.choice_for(first, 512, 512);  // hit
  auto s1 = engine.stats();
  EXPECT_EQ(s1.choice_misses, 8u);
  EXPECT_EQ(s1.choice_hits, 1u);
  EXPECT_EQ(s1.choice_entries, 8u);

  (void)engine.choice_for(2048, 2048, 256);  // miss + eviction
  auto s2 = engine.stats();
  EXPECT_EQ(s2.choice_misses, 9u);
  EXPECT_EQ(s2.choice_evictions, 1u);
  EXPECT_EQ(s2.choice_entries, 8u);

  // The first shape was more recently used than the second: it must still
  // be cached, and the second was the one evicted.
  (void)engine.choice_for(first, 512, 512);
  auto s3 = engine.stats();
  EXPECT_EQ(s3.choice_hits, s2.choice_hits + 1);
  (void)engine.choice_for(first + 64, 512, 512);
  EXPECT_EQ(engine.stats().choice_misses, s3.choice_misses + 1);
}

TEST(EngineAuto, AutoAndExplicitShareCompiledExecutors) {
  // When the auto path picks an FMM plan for a shape, an explicit call
  // with that same plan must hit the same cache entry — one compile.
  Engine engine;
  const AutoChoice choice = engine.choice_for(704, 704, 704);
  if (choice.use_gemm) GTEST_SKIP() << "model picked gemm at this size";
  test::RandomProblem p = test::random_problem(704, 704, 704, 33);
  ASSERT_TRUE(engine.multiply(p.c.view(), p.a.view(), p.b.view()).ok());
  const auto after_auto = engine.stats();
  ASSERT_TRUE(
      engine.multiply(*choice.plan, p.c.view(), p.a.view(), p.b.view()).ok());
  const auto after_explicit = engine.stats();
  EXPECT_EQ(after_explicit.misses, after_auto.misses);  // no second compile
  EXPECT_GE(after_explicit.hits, after_auto.hits + 1);
}

// ---------------------------------------------------------------------------
// Concurrency: host threads hammering one engine with mixed shapes (the
// TSan CI leg's target).
// ---------------------------------------------------------------------------

TEST(EngineConcurrency, MultiShapeHammeringFromHostThreads) {
  // Small capacity forces eviction churn while other threads still hold
  // shared_ptr references to evicted executors.
  Engine::Options opts;
  opts.config.num_threads = 1;  // host threads are the concurrency under test
  opts.cache_capacity = 3;
  opts.shards = 2;
  Engine engine(opts);
  const Plan plan = strassen_plan();

  const index_t shapes[4] = {40, 48, 56, 64};
  Matrix as[4], bs[4], wants[4];
  for (int i = 0; i < 4; ++i) {
    const index_t s = shapes[i];
    as[i] = Matrix::random(s, s, 300 + static_cast<std::uint64_t>(i));
    bs[i] = Matrix::random(s, s, 400 + static_cast<std::uint64_t>(i));
    wants[i] = Matrix::zero(s, s);
    ref_gemm(wants[i].view(), as[i].view(), bs[i].view());
  }

  const int n_threads = 4, iters = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < iters; ++it) {
        const int i = (t + it) % 4;
        const index_t s = shapes[i];
        Matrix c = Matrix::zero(s, s);
        const Status st =
            engine.multiply(plan, c.view(), as[i].view(), bs[i].view());
        if (!st.ok() ||
            max_abs_diff(c.view(), wants[i].view()) > test::tol_for(s)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto st = engine.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(n_threads * iters));
  EXPECT_LE(st.entries, engine.cache_capacity());
}

TEST(EngineConcurrency, ConcurrentMixedBatchAndSingleCalls) {
  Engine::Options opts;
  opts.config.num_threads = 2;
  Engine engine(opts);
  const Plan plan = strassen_plan();
  const index_t s1 = 48, s2 = 64;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      const index_t s = (t % 2 == 0) ? s1 : s2;
      Matrix a = Matrix::random(s, s, 500 + static_cast<std::uint64_t>(t));
      Matrix b = Matrix::random(s, s, 600 + static_cast<std::uint64_t>(t));
      Matrix want = Matrix::zero(s, s);
      ref_gemm(want.view(), a.view(), b.view());
      for (int it = 0; it < 3; ++it) {
        if (t == 0) {
          // Batch of 4 items sharing B against singles from other threads.
          std::vector<Matrix> cs;
          std::vector<BatchItem> items;
          for (int i = 0; i < 4; ++i) cs.push_back(Matrix::zero(s, s));
          for (int i = 0; i < 4; ++i) {
            items.push_back({cs[static_cast<std::size_t>(i)].view(), a.view(),
                             b.view()});
          }
          if (!engine.multiply(plan, BatchSpec::items(items)).ok()) {
            failures.fetch_add(1);
            continue;
          }
          for (const auto& c : cs) {
            if (max_abs_diff(c.view(), want.view()) > test::tol_for(s)) {
              failures.fetch_add(1);
            }
          }
        } else {
          Matrix c = Matrix::zero(s, s);
          if (!engine.multiply(plan, c.view(), a.view(), b.view()).ok() ||
              max_abs_diff(c.view(), want.view()) > test::tol_for(s)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace fmm
