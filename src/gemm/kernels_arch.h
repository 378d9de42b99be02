#pragma once

// Internal declarations of the ISA-specific micro-kernels and their
// full-tile C updates.  Each family lives in its own translation unit
// compiled with the matching target flags (see CMakeLists:
// microkernel_avx2.cc gets -mavx2 -mfma, etc.), so a baseline x86-64
// build still ships the vector kernels and picks them at runtime via
// cpuid.  The FMM_HAVE_*_TU macros are defined for the whole fmm target
// when the compiler supports the flags.

#include "src/gemm/term.h"
#include "src/linalg/mat_view.h"

namespace fmm {
namespace detail {

#if defined(FMM_HAVE_AVX2_TU)
void microkernel_avx2_6x8(index_t k, const double* a_panel,
                          const double* b_panel, double* acc);
void tile_update_avx2_6x8(const OutTerm* targets, int num_targets,
                          index_t ldc, const double* acc, bool accumulate);
void microkernel_avx2_4x12(index_t k, const double* a_panel,
                           const double* b_panel, double* acc);
void tile_update_avx2_4x12(const OutTerm* targets, int num_targets,
                           index_t ldc, const double* acc, bool accumulate);
void microkernel_avx2_6x16_f32(index_t k, const float* a_panel,
                               const float* b_panel, float* acc);
void tile_update_avx2_6x16_f32(const OutTermF32* targets, int num_targets,
                               index_t ldc, const float* acc,
                               bool accumulate);
#endif

#if defined(FMM_HAVE_AVX512_TU)
void microkernel_avx512_12x16(index_t k, const double* a_panel,
                              const double* b_panel, double* acc);
void tile_update_avx512_12x16(const OutTerm* targets, int num_targets,
                              index_t ldc, const double* acc,
                              bool accumulate);
void microkernel_avx512_12x32_f32(index_t k, const float* a_panel,
                                  const float* b_panel, float* acc);
void tile_update_avx512_12x32_f32(const OutTermF32* targets, int num_targets,
                                  index_t ldc, const float* acc,
                                  bool accumulate);
#endif

}  // namespace detail
}  // namespace fmm
