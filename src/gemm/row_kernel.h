#pragma once

// Row-preferential micro-kernel and full-tile C update, written once over
// a vector-traits type V and instantiated by each ISA translation unit
// (microkernel_avx2.cc, microkernel_avx512.cc) with traits defined in an
// unnamed namespace there.  Those traits give every instantiation internal
// linkage, so an AVX-512 body can never be merged with an AVX2 one at link
// time.  Include this header only from an ISA translation unit.
//
// V provides:
//   using T;  using R;  static constexpr int kLanes;
//   static R zero();  static R load(const T*);  static R bcast(T);
//   static R fma(R a, R b, R c);  // a * b + c
//   static R mul(R a, R b);  static void store(T*, R);
//
// Tile layout (kernel.h): row r of the MR x NR tile occupies NR / kLanes
// registers; each k step loads one row of the B micro-panel as vectors and
// broadcasts the MR values of the A micro-panel column, giving
// MR * NR / kLanes independent FMA chains.

#include "src/gemm/term.h"
#include "src/linalg/mat_view.h"

namespace fmm {
namespace detail {

template <class V, int MR, int NR>
void row_microkernel(index_t k, const typename V::T* a_panel,
                     const typename V::T* b_panel, typename V::T* acc) {
  static_assert(NR % V::kLanes == 0, "tile width must be whole vectors");
  constexpr int NV = NR / V::kLanes;
  typename V::R c[MR][NV];
#pragma GCC unroll 32
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) c[r][v] = V::zero();
  }
  const typename V::T* a = a_panel;
  const typename V::T* b = b_panel;
  for (index_t kk = 0; kk < k; ++kk) {
    typename V::R bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) bv[v] = V::load(b + v * V::kLanes);
#pragma GCC unroll 32
    for (int r = 0; r < MR; ++r) {
      const typename V::R ar = V::bcast(a[r]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) c[r][v] = V::fma(ar, bv[v], c[r][v]);
    }
    a += MR;
    b += NR;
  }
#pragma GCC unroll 32
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) V::store(acc + r * NR + v * V::kLanes, c[r][v]);
  }
}

// C_t[0:MR, 0:NR] (+)= w_t * acc for every target, one vector at a time.
template <class V, int MR, int NR>
void row_tile_update(const OutTermT<typename V::T>* targets, int num_targets,
                     index_t ldc, const typename V::T* acc, bool accumulate) {
  using T = typename V::T;
  constexpr int NV = NR / V::kLanes;
  for (int t = 0; t < num_targets; ++t) {
    T* c = targets[t].ptr;
    const typename V::R w = V::bcast(static_cast<T>(targets[t].coeff));
    if (accumulate) {
#pragma GCC unroll 32
      for (int r = 0; r < MR; ++r) {
        T* crow = c + r * ldc;
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          T* cv = crow + v * V::kLanes;
          V::store(cv, V::fma(w, V::load(acc + r * NR + v * V::kLanes),
                              V::load(cv)));
        }
      }
    } else {
#pragma GCC unroll 32
      for (int r = 0; r < MR; ++r) {
        T* crow = c + r * ldc;
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          V::store(crow + v * V::kLanes,
                   V::mul(w, V::load(acc + r * NR + v * V::kLanes)));
        }
      }
    }
  }
}

}  // namespace detail
}  // namespace fmm
