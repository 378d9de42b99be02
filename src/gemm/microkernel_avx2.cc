// AVX2/FMA micro-kernels.  This translation unit is compiled with
// -mavx2 -mfma regardless of the global target (see CMakeLists); nothing
// here may be called unless cpuid reports AVX2+FMA — the registry entries
// guard with cpu_has_avx2_fma().

#include "src/gemm/kernels_arch.h"

#if defined(FMM_HAVE_AVX2_TU)

#include <immintrin.h>

#include "src/gemm/row_kernel.h"

namespace fmm {
namespace detail {
namespace {

struct YmmF64 {
  using T = double;
  using R = __m256d;
  static constexpr int kLanes = 4;
  static R zero() { return _mm256_setzero_pd(); }
  static R load(const T* p) { return _mm256_loadu_pd(p); }
  static R bcast(T x) { return _mm256_set1_pd(x); }
  static R fma(R a, R b, R c) { return _mm256_fmadd_pd(a, b, c); }
  static R mul(R a, R b) { return _mm256_mul_pd(a, b); }
  static void store(T* p, R v) { _mm256_storeu_pd(p, v); }
};

struct YmmF32 {
  using T = float;
  using R = __m256;
  static constexpr int kLanes = 8;
  static R zero() { return _mm256_setzero_ps(); }
  static R load(const T* p) { return _mm256_loadu_ps(p); }
  static R bcast(T x) { return _mm256_set1_ps(x); }
  static R fma(R a, R b, R c) { return _mm256_fmadd_ps(a, b, c); }
  static R mul(R a, R b) { return _mm256_mul_ps(a, b); }
  static void store(T* p, R v) { _mm256_storeu_ps(p, v); }
};

}  // namespace

// 6x8: two ymm per tile row, 12 accumulators + 2 B vectors + 1 broadcast
// of the 16-register AVX2 file; 6 broadcasts feed 12 FMAs per k.
void microkernel_avx2_6x8(index_t k, const double* a_panel,
                          const double* b_panel, double* acc) {
  row_microkernel<YmmF64, 6, 8>(k, a_panel, b_panel, acc);
}

void tile_update_avx2_6x8(const OutTerm* targets, int num_targets,
                          index_t ldc, const double* acc, bool accumulate) {
  row_tile_update<YmmF64, 6, 8>(targets, num_targets, ldc, acc, accumulate);
}

// 4x12: three ymm per row, 12 accumulators + 3 B vectors + 1 broadcast.
// Thinner tile: less row padding when the FMM submatrix height is far
// from a multiple of 6, at the cost of fewer FMAs per broadcast.
void microkernel_avx2_4x12(index_t k, const double* a_panel,
                           const double* b_panel, double* acc) {
  row_microkernel<YmmF64, 4, 12>(k, a_panel, b_panel, acc);
}

void tile_update_avx2_4x12(const OutTerm* targets, int num_targets,
                           index_t ldc, const double* acc, bool accumulate) {
  row_tile_update<YmmF64, 4, 12>(targets, num_targets, ldc, acc, accumulate);
}

// f32 6x16: the single-precision twin of 6x8 — the same 12 accumulators,
// each __m256 holding 8 floats.
void microkernel_avx2_6x16_f32(index_t k, const float* a_panel,
                               const float* b_panel, float* acc) {
  row_microkernel<YmmF32, 6, 16>(k, a_panel, b_panel, acc);
}

void tile_update_avx2_6x16_f32(const OutTermF32* targets, int num_targets,
                               index_t ldc, const float* acc,
                               bool accumulate) {
  row_tile_update<YmmF32, 6, 16>(targets, num_targets, ldc, acc, accumulate);
}

}  // namespace detail
}  // namespace fmm

#endif  // FMM_HAVE_AVX2_TU
