#include "src/gemm/gemm.h"

#include <cassert>

#include "src/core/task_pool.h"

namespace fmm {

template <typename T>
void gemm(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
          ConstMatViewT<NoDeduce<T>> b, GemmWorkspaceT<T>& ws,
          const GemmConfig& cfg) {
  assert(a.rows() == c.rows() && b.cols() == c.cols() && a.cols() == b.rows());
  LinTermT<T> at{a.data(), 1.0};
  LinTermT<T> bt{b.data(), 1.0};
  OutTermT<T> ct{c.data(), 1.0};
  fused_multiply<T>(c.rows(), c.cols(), a.cols(), &at, 1, a.stride(), &bt, 1,
                    b.stride(), &ct, 1, c.stride(), ws, cfg);
}

template <typename T>
void gemm(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
          ConstMatViewT<NoDeduce<T>> b, const GemmConfig& cfg) {
  GemmWorkspaceT<T> ws;
  gemm<T>(c, a, b, ws, cfg);
}

template <typename T>
void ref_gemm(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
              ConstMatViewT<NoDeduce<T>> b) {
  assert(a.rows() == c.rows() && b.cols() == c.cols() && a.cols() == b.rows());
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  TaskPool::current().parallel_for(0, m, 8, [&](index_t i, int) {
    T* crow = c.row(i);
    for (index_t p = 0; p < k; ++p) {
      const T aip = a(i, p);
      if (aip == T(0)) continue;
      const T* brow = b.row(p);
      for (index_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  });
}

template void gemm<double>(MatView, ConstMatView, ConstMatView, GemmWorkspace&,
                           const GemmConfig&);
template void gemm<float>(MatViewF32, ConstMatViewF32, ConstMatViewF32,
                          GemmWorkspaceF32&, const GemmConfig&);
template void gemm<double>(MatView, ConstMatView, ConstMatView,
                           const GemmConfig&);
template void gemm<float>(MatViewF32, ConstMatViewF32, ConstMatViewF32,
                          const GemmConfig&);
template void ref_gemm<double>(MatView, ConstMatView, ConstMatView);
template void ref_gemm<float>(MatViewF32, ConstMatViewF32, ConstMatViewF32);

}  // namespace fmm
