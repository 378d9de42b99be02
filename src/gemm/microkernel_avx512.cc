// AVX-512 micro-kernels.  Compiled with -mavx512f regardless of the global
// target (see CMakeLists); only reachable through the registry when cpuid
// reports AVX-512F.

#include "src/gemm/kernels_arch.h"

#if defined(FMM_HAVE_AVX512_TU)

#include <immintrin.h>

#include "src/gemm/row_kernel.h"

namespace fmm {
namespace detail {
namespace {

struct ZmmF64 {
  using T = double;
  using R = __m512d;
  static constexpr int kLanes = 8;
  static R zero() { return _mm512_setzero_pd(); }
  static R load(const T* p) { return _mm512_loadu_pd(p); }
  static R bcast(T x) { return _mm512_set1_pd(x); }
  static R fma(R a, R b, R c) { return _mm512_fmadd_pd(a, b, c); }
  static R mul(R a, R b) { return _mm512_mul_pd(a, b); }
  static void store(T* p, R v) { _mm512_storeu_pd(p, v); }
};

struct ZmmF32 {
  using T = float;
  using R = __m512;
  static constexpr int kLanes = 16;
  static R zero() { return _mm512_setzero_ps(); }
  static R load(const T* p) { return _mm512_loadu_ps(p); }
  static R bcast(T x) { return _mm512_set1_ps(x); }
  static R fma(R a, R b, R c) { return _mm512_fmadd_ps(a, b, c); }
  static R mul(R a, R b) { return _mm512_mul_ps(a, b); }
  static void store(T* p, R v) { _mm512_storeu_ps(p, v); }
};

}  // namespace

// 12x16: each tile row is two zmm, so 24 of the 32 registers accumulate;
// per k, 2 vector loads of B and 12 broadcasts of A (folded into the FMAs
// as embedded broadcasts) feed 24 independent FMAs — enough chains to
// cover FMA latency times both FMA ports.
void microkernel_avx512_12x16(index_t k, const double* a_panel,
                              const double* b_panel, double* acc) {
  row_microkernel<ZmmF64, 12, 16>(k, a_panel, b_panel, acc);
}

void tile_update_avx512_12x16(const OutTerm* targets, int num_targets,
                              index_t ldc, const double* acc,
                              bool accumulate) {
  row_tile_update<ZmmF64, 12, 16>(targets, num_targets, ldc, acc, accumulate);
}

// f32 12x32: the same 24-accumulator layout with 16 lanes per register.
void microkernel_avx512_12x32_f32(index_t k, const float* a_panel,
                                  const float* b_panel, float* acc) {
  row_microkernel<ZmmF32, 12, 32>(k, a_panel, b_panel, acc);
}

void tile_update_avx512_12x32_f32(const OutTermF32* targets, int num_targets,
                                  index_t ldc, const float* acc,
                                  bool accumulate) {
  row_tile_update<ZmmF32, 12, 32>(targets, num_targets, ldc, acc, accumulate);
}

}  // namespace detail
}  // namespace fmm

#endif  // FMM_HAVE_AVX512_TU
