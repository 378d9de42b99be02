#pragma once

// Public GEMM entry points built on the fused driver.
//
//   gemm(C, A, B, ...)    : C += A * B   (the "BLIS" baseline of the paper)
//   ref_gemm(C, A, B)     : slow, obviously-correct reference for tests
//
// The element type T (double or float) is deduced from C and selects that
// dtype's kernel family; explicit instantiations live in gemm.cc.

#include "src/gemm/fused.h"
#include "src/linalg/mat_view.h"

namespace fmm {

// C += A * B through the high-performance fused driver.
template <typename T>
void gemm(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
          ConstMatViewT<NoDeduce<T>> b, GemmWorkspaceT<T>& ws,
          const GemmConfig& cfg = GemmConfig{});

// Convenience overload with its own workspace (tests, one-off calls).
template <typename T>
void gemm(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
          ConstMatViewT<NoDeduce<T>> b, const GemmConfig& cfg = GemmConfig{});

// Naive triple-loop C += A * B (rows split over TaskPool::current()).  The
// ground truth used by the test suite; no packing, no blocking, no
// surprises.
template <typename T>
void ref_gemm(MatViewT<T> c, ConstMatViewT<NoDeduce<T>> a,
              ConstMatViewT<NoDeduce<T>> b);

}  // namespace fmm
