// Unit tests for the packing routines, including the fused linear
// combinations that implement "Pack X + Y -> A~" of paper Fig. 1 (right).
// Layouts are parameterized on the register tile (mr rows / nr cols per
// panel); the 8x6 and 4x12 tiles are exercised by hand, and the PackTile
// suite repeats the round trips for every registered kernel's tile.

#include <gtest/gtest.h>

#include <vector>

#include "src/gemm/kernel.h"
#include "src/gemm/pack.h"
#include "src/linalg/matrix.h"
#include "src/util/prng.h"

namespace fmm {
namespace {

// The default register tile most tests pack for.
constexpr int MR = 8;
constexpr int NR = 6;

// Reference unpack: element (r, kk) of logical row r from the packed-A
// layout with mr-row panels.
double packed_a_at(const std::vector<double>& buf, index_t k, int mr,
                   index_t r, index_t kk) {
  const index_t panel = r / mr;
  return buf[panel * mr * k + kk * mr + (r % mr)];
}

double packed_b_at(const std::vector<double>& buf, index_t k, int nr,
                   index_t kk, index_t c) {
  const index_t panel = c / nr;
  return buf[panel * nr * k + kk * nr + (c % nr)];
}

TEST(PackA, SingleTermRoundTrips) {
  const index_t m = 13, k = 9;  // not multiples of MR on purpose
  Matrix a = Matrix::random(m, k, 3);
  std::vector<double> buf(static_cast<std::size_t>(ceil_div(m, MR)) * MR * k,
                          -1.0);
  LinTerm t{a.data(), 1.0};
  pack_a(&t, 1, a.stride(), m, k, MR, buf.data());
  for (index_t r = 0; r < m; ++r)
    for (index_t kk = 0; kk < k; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(buf, k, MR, r, kk), a(r, kk));
}

TEST(PackA, SingleTermRoundTripsNarrowTile) {
  // The 4-row tile takes the templated fast path with a different panel
  // height; 13 rows = 3 full panels + 1 remainder row.
  const int mr = 4;
  const index_t m = 13, k = 9;
  Matrix a = Matrix::random(m, k, 31);
  std::vector<double> buf(static_cast<std::size_t>(ceil_div(m, mr)) * mr * k,
                          -1.0);
  LinTerm t{a.data(), 1.0};
  pack_a(&t, 1, a.stride(), m, k, mr, buf.data());
  for (index_t r = 0; r < m; ++r)
    for (index_t kk = 0; kk < k; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(buf, k, mr, r, kk), a(r, kk));
  // Padding rows of the last panel are zero.
  for (index_t r = m; r < ceil_div(m, mr) * mr; ++r)
    for (index_t kk = 0; kk < k; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(buf, k, mr, r, kk), 0.0);
}

TEST(PackA, GenericTileFallbackRoundTrips) {
  // A tile height with no templated specialization (mr = 5) exercises the
  // runtime-generic path.
  const int mr = 5;
  const index_t m = 12, k = 6;
  Matrix a = Matrix::random(m, k, 37);
  std::vector<double> buf(static_cast<std::size_t>(ceil_div(m, mr)) * mr * k,
                          -1.0);
  LinTerm t{a.data(), 1.0};
  pack_a(&t, 1, a.stride(), m, k, mr, buf.data());
  for (index_t r = 0; r < m; ++r)
    for (index_t kk = 0; kk < k; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(buf, k, mr, r, kk), a(r, kk));
}

TEST(PackA, EdgePanelIsZeroPadded) {
  const index_t m = 10, k = 4;  // 2 rows past the first panel
  Matrix a = Matrix::random(m, k, 4);
  std::vector<double> buf(static_cast<std::size_t>(2) * MR * k, -7.0);
  LinTerm t{a.data(), 1.0};
  pack_a(&t, 1, a.stride(), m, k, MR, buf.data());
  for (index_t r = m; r < 2 * MR; ++r)
    for (index_t kk = 0; kk < k; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(buf, k, MR, r, kk), 0.0);
}

TEST(PackA, CoefficientScales) {
  const index_t m = 8, k = 5;
  Matrix a = Matrix::random(m, k, 5);
  std::vector<double> buf(static_cast<std::size_t>(MR) * k);
  LinTerm t{a.data(), -2.5};
  pack_a(&t, 1, a.stride(), m, k, MR, buf.data());
  EXPECT_DOUBLE_EQ(packed_a_at(buf, k, MR, 3, 2), -2.5 * a(3, 2));
}

TEST(PackA, LinearCombinationOfThreeTerms) {
  const index_t m = 11, k = 7;
  Matrix big = Matrix::random(3 * m, k, 6);
  LinTerm terms[3] = {{big.data(), 1.0},
                      {big.data() + m * big.stride(), -1.0},
                      {big.data() + 2 * m * big.stride(), 0.5}};
  std::vector<double> buf(static_cast<std::size_t>(ceil_div(m, MR)) * MR * k);
  pack_a(terms, 3, big.stride(), m, k, MR, buf.data());
  for (index_t r = 0; r < m; ++r) {
    for (index_t kk = 0; kk < k; ++kk) {
      const double want =
          big(r, kk) - big(m + r, kk) + 0.5 * big(2 * m + r, kk);
      EXPECT_NEAR(packed_a_at(buf, k, MR, r, kk), want, 1e-14);
    }
  }
}

TEST(PackA, MultiTermEdgePanelZeroPadded) {
  const index_t m = 9, k = 3;
  Matrix big = Matrix::random(2 * m, k, 61);
  LinTerm terms[2] = {{big.data(), 2.0}, {big.data() + m * big.stride(), 1.0}};
  std::vector<double> buf(static_cast<std::size_t>(2) * MR * k, -3.0);
  pack_a(terms, 2, big.stride(), m, k, MR, buf.data());
  for (index_t r = m; r < 2 * MR; ++r)
    for (index_t kk = 0; kk < k; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(buf, k, MR, r, kk), 0.0);
}

TEST(PackA, PanelApiMatchesFullPack) {
  const index_t m = 21, k = 5;
  Matrix a = Matrix::random(m, k, 17);
  LinTerm t{a.data(), 1.0};
  const index_t panels = ceil_div(m, MR);
  std::vector<double> full(static_cast<std::size_t>(panels) * MR * k);
  std::vector<double> by_panel(full.size());
  pack_a(&t, 1, a.stride(), m, k, MR, full.data());
  for (index_t p = 0; p < panels; ++p) {
    pack_a_panel(&t, 1, a.stride(), m, k, MR, p, by_panel.data() + p * MR * k);
  }
  EXPECT_EQ(full, by_panel);
}

TEST(PackB, SingleTermRoundTrips) {
  const index_t k = 9, n = 14;  // n not a multiple of NR
  Matrix b = Matrix::random(k, n, 7);
  std::vector<double> buf(static_cast<std::size_t>(ceil_div(n, NR)) * NR * k,
                          -1.0);
  LinTerm t{b.data(), 1.0};
  pack_b(&t, 1, b.stride(), k, n, NR, buf.data());
  for (index_t kk = 0; kk < k; ++kk)
    for (index_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(packed_b_at(buf, k, NR, kk, c), b(kk, c));
}

TEST(PackB, SingleTermRoundTripsWideTile) {
  // The 12-wide panel of the 4x12 tile, with a ragged edge (n = 17).
  const int nr = 12;
  const index_t k = 5, n = 17;
  Matrix b = Matrix::random(k, n, 47);
  std::vector<double> buf(static_cast<std::size_t>(ceil_div(n, nr)) * nr * k,
                          -1.0);
  LinTerm t{b.data(), 1.0};
  pack_b(&t, 1, b.stride(), k, n, nr, buf.data());
  for (index_t kk = 0; kk < k; ++kk)
    for (index_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(packed_b_at(buf, k, nr, kk, c), b(kk, c));
  for (index_t kk = 0; kk < k; ++kk)
    for (index_t c = n; c < ceil_div(n, nr) * nr; ++c)
      EXPECT_DOUBLE_EQ(packed_b_at(buf, k, nr, kk, c), 0.0);
}

TEST(PackB, EdgePanelIsZeroPadded) {
  const index_t k = 4, n = 8;  // 2 cols past the first panel
  Matrix b = Matrix::random(k, n, 8);
  std::vector<double> buf(static_cast<std::size_t>(2) * NR * k, -7.0);
  LinTerm t{b.data(), 1.0};
  pack_b(&t, 1, b.stride(), k, n, NR, buf.data());
  for (index_t kk = 0; kk < k; ++kk)
    for (index_t c = n; c < 2 * NR; ++c)
      EXPECT_DOUBLE_EQ(packed_b_at(buf, k, NR, kk, c), 0.0);
}

TEST(PackB, LinearCombination) {
  const index_t k = 6, n = 13;
  Matrix big = Matrix::random(2 * k, n, 9);
  LinTerm terms[2] = {{big.data(), 1.0}, {big.data() + k * big.stride(), -1.0}};
  std::vector<double> buf(static_cast<std::size_t>(ceil_div(n, NR)) * NR * k);
  pack_b(terms, 2, big.stride(), k, n, NR, buf.data());
  for (index_t kk = 0; kk < k; ++kk)
    for (index_t c = 0; c < n; ++c)
      EXPECT_NEAR(packed_b_at(buf, k, NR, kk, c), big(kk, c) - big(k + kk, c),
                  1e-14);
}

TEST(PackB, PanelApiMatchesFullPack) {
  const index_t k = 5, n = 17;
  Matrix b = Matrix::random(k, n, 10);
  LinTerm t{b.data(), 1.0};
  const index_t panels = ceil_div(n, NR);
  std::vector<double> full(static_cast<std::size_t>(panels) * NR * k);
  std::vector<double> by_panel(full.size());
  pack_b(&t, 1, b.stride(), k, n, NR, full.data());
  for (index_t q = 0; q < panels; ++q) {
    pack_b_panel(&t, 1, b.stride(), k, n, NR, q, by_panel.data() + q * NR * k);
  }
  EXPECT_EQ(full, by_panel);
}

// --------------------------------------------------------------------------
// Every registered kernel's tile, in the kernel's own element type: single-
// and multi-term A and B packs against a direct unpack, and the per-panel
// entry points against the whole-buffer ones.
// --------------------------------------------------------------------------

template <typename T>
void check_tile_round_trips(int mr, int nr, std::uint64_t seed) {
  // Two full panels plus a ragged one in each direction.
  const index_t m = 2 * mr + mr / 2 + 1, n = 2 * nr + nr / 2 + 1, k = 19;
  const index_t ld = std::max(m, n) + 3;
  Xoshiro256 rng(seed);
  std::vector<T> src(static_cast<std::size_t>(2 * ld * ld));
  for (auto& v : src) v = static_cast<T>(rng.uniform(-1, 1));
  const T* x = src.data();
  const T* y = src.data() + ld * ld;
  const double tol = sizeof(T) == 4 ? 1e-6 : 1e-15;
  for (int terms = 1; terms <= 2; ++terms) {
    const LinTermT<T> list[2] = {{x, 1.5}, {y, -0.5}};
    auto want = [&](index_t i, index_t j) {
      double v = 1.5 * x[i * ld + j];
      if (terms == 2) v += -0.5 * y[i * ld + j];
      return v;
    };

    const index_t a_panels = ceil_div(m, mr);
    std::vector<T> a(static_cast<std::size_t>(a_panels * mr * k), T(-9));
    std::vector<T> a_by_panel(a.size(), T(-9));
    pack_a<T>(list, terms, ld, m, k, mr, a.data());
    for (index_t p = 0; p < a_panels; ++p)
      pack_a_panel<T>(list, terms, ld, m, k, mr, p,
                      a_by_panel.data() + p * mr * k);
    EXPECT_EQ(a, a_by_panel) << "mr=" << mr << " terms=" << terms;
    for (index_t r = 0; r < a_panels * mr; ++r) {
      for (index_t kk = 0; kk < k; ++kk) {
        const double got = a[(r / mr) * mr * k + kk * mr + r % mr];
        ASSERT_NEAR(got, r < m ? want(r, kk) : 0.0, tol)
            << "A mr=" << mr << " terms=" << terms << " (" << r << "," << kk
            << ")";
      }
    }

    const index_t b_panels = ceil_div(n, nr);
    std::vector<T> b(static_cast<std::size_t>(b_panels * nr * k), T(-9));
    pack_b<T>(list, terms, ld, k, n, nr, b.data());
    for (index_t kk = 0; kk < k; ++kk) {
      for (index_t c = 0; c < b_panels * nr; ++c) {
        const double got = b[(c / nr) * nr * k + kk * nr + c % nr];
        ASSERT_NEAR(got, c < n ? want(kk, c) : 0.0, tol)
            << "B nr=" << nr << " terms=" << terms << " (" << kk << "," << c
            << ")";
      }
    }
  }
}

class PackTile : public ::testing::TestWithParam<int> {};

TEST_P(PackTile, RoundTripsAtTheKernelTile) {
  const KernelInfo& kern =
      kernel_registry()[static_cast<std::size_t>(GetParam())];
  if (kern.dtype == DType::kF32) {
    check_tile_round_trips<float>(kern.mr, kern.nr, 70 + GetParam());
  } else {
    check_tile_round_trips<double>(kern.mr, kern.nr, 70 + GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, PackTile,
    ::testing::Range(0, static_cast<int>(kernel_registry().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      const KernelInfo& k =
          kernel_registry()[static_cast<std::size_t>(info.param)];
      return std::string(k.name) + "_" + dtype_name(k.dtype);
    });

}  // namespace
}  // namespace fmm
