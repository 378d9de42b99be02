#include "src/gemm/pack.h"

#include <cstring>

namespace fmm {
namespace {

// One mr-row A panel: rows [row0, row0 + rows) of the weighted sum, packed
// column-major (dst[kk * mr + r]) and zero-padded to mr rows.  The first
// term writes and the rest add, one pass per term over a panel that stays
// in L1.  MR > 0 fixes the panel height at compile time so the row loop
// unrolls; MR == 0 is the runtime-height fallback.
template <typename T, int MR>
void pack_a_one_panel(const LinTermT<T>* terms, int num_terms, index_t lda,
                      index_t row0, index_t rows, index_t k, int mr_rt,
                      T* dst) {
  const int mr = MR > 0 ? MR : mr_rt;
  for (int t = 0; t < num_terms; ++t) {
    const T* src = terms[t].ptr + row0 * lda;
    const T c = static_cast<T>(terms[t].coeff);
    if (t > 0) {
      for (index_t kk = 0; kk < k; ++kk) {
        for (index_t r = 0; r < rows; ++r)
          dst[kk * mr + r] += c * src[r * lda + kk];
      }
    } else if (rows == mr) {
      for (index_t kk = 0; kk < k; ++kk) {
        for (int r = 0; r < mr; ++r) dst[kk * mr + r] = c * src[r * lda + kk];
      }
    } else {
      for (index_t kk = 0; kk < k; ++kk) {
        for (index_t r = 0; r < rows; ++r)
          dst[kk * mr + r] = c * src[r * lda + kk];
        for (index_t r = rows; r < mr; ++r) dst[kk * mr + r] = T(0);
      }
    }
  }
}

// Panels [p0, p1) of the packed A-tile into out (which holds panel p0).
template <typename T, int MR>
void pack_a_panels(const LinTermT<T>* terms, int num_terms, index_t lda,
                   index_t m, index_t k, int mr, index_t p0, index_t p1,
                   T* out) {
  for (index_t p = p0; p < p1; ++p) {
    const index_t row0 = p * mr;
    pack_a_one_panel<T, MR>(terms, num_terms, lda, row0,
                            std::min<index_t>(mr, m - row0), k, mr,
                            out + (p - p0) * mr * k);
  }
}

// Every registered kernel's tile height (kernel.cc) has an unrolled case.
template <typename T>
void pack_a_dispatch(const LinTermT<T>* terms, int num_terms, index_t lda,
                     index_t m, index_t k, int mr, index_t p0, index_t p1,
                     T* out) {
  switch (mr) {
    case 4:
      return pack_a_panels<T, 4>(terms, num_terms, lda, m, k, mr, p0, p1, out);
    case 6:
      return pack_a_panels<T, 6>(terms, num_terms, lda, m, k, mr, p0, p1, out);
    case 8:
      return pack_a_panels<T, 8>(terms, num_terms, lda, m, k, mr, p0, p1, out);
    case 12:
      return pack_a_panels<T, 12>(terms, num_terms, lda, m, k, mr, p0, p1,
                                  out);
    default:
      return pack_a_panels<T, 0>(terms, num_terms, lda, m, k, mr, p0, p1, out);
  }
}

// One nr-wide B panel (row-major within the panel, zero-padded to nr
// columns); NR as for pack_a_one_panel.
template <typename T, int NR>
void pack_b_one_panel(const LinTermT<T>* terms, int num_terms, index_t ldb,
                      index_t col0, index_t cols, index_t k, int nr_rt,
                      T* out_panel) {
  const int nr = NR > 0 ? NR : nr_rt;
  for (int t = 0; t < num_terms; ++t) {
    const T* b = terms[t].ptr + col0;
    const T c = static_cast<T>(terms[t].coeff);
    for (index_t kk = 0; kk < k; ++kk) {
      const T* src = b + kk * ldb;
      T* dst = out_panel + kk * nr;
      if (t > 0) {
        for (index_t j = 0; j < cols; ++j) dst[j] += c * src[j];
      } else if (cols == nr) {
        for (int j = 0; j < nr; ++j) dst[j] = c * src[j];
      } else {
        for (index_t j = 0; j < cols; ++j) dst[j] = c * src[j];
        for (index_t j = cols; j < nr; ++j) dst[j] = T(0);
      }
    }
  }
}

}  // namespace

template <typename T>
void pack_a(const LinTermT<T>* terms, int num_terms, index_t lda, index_t m,
            index_t k, int mr, T* out) {
  pack_a_dispatch<T>(terms, num_terms, lda, m, k, mr, 0, ceil_div(m, mr), out);
}

template <typename T>
void pack_a_panel(const LinTermT<T>* terms, int num_terms, index_t lda,
                  index_t m, index_t k, int mr, index_t p, T* out_panel) {
  pack_a_dispatch<T>(terms, num_terms, lda, m, k, mr, p, p + 1, out_panel);
}

template <typename T>
void pack_b_panel(const LinTermT<T>* terms, int num_terms, index_t ldb,
                  index_t k, index_t n, int nr, index_t q, T* out_panel) {
  const index_t col0 = q * nr;
  const index_t cols = std::min<index_t>(nr, n - col0);
  switch (nr) {
    case 6:
      return pack_b_one_panel<T, 6>(terms, num_terms, ldb, col0, cols, k, nr,
                                    out_panel);
    case 8:
      return pack_b_one_panel<T, 8>(terms, num_terms, ldb, col0, cols, k, nr,
                                    out_panel);
    case 12:
      return pack_b_one_panel<T, 12>(terms, num_terms, ldb, col0, cols, k, nr,
                                     out_panel);
    case 16:
      return pack_b_one_panel<T, 16>(terms, num_terms, ldb, col0, cols, k, nr,
                                     out_panel);
    case 32:
      return pack_b_one_panel<T, 32>(terms, num_terms, ldb, col0, cols, k, nr,
                                     out_panel);
    default:
      return pack_b_one_panel<T, 0>(terms, num_terms, ldb, col0, cols, k, nr,
                                    out_panel);
  }
}

template <typename T>
void pack_b(const LinTermT<T>* terms, int num_terms, index_t ldb, index_t k,
            index_t n, int nr, T* out) {
  const index_t panels = ceil_div(n, nr);
  for (index_t q = 0; q < panels; ++q) {
    pack_b_panel<T>(terms, num_terms, ldb, k, n, nr, q, out + q * nr * k);
  }
}

template void pack_a<double>(const LinTerm*, int, index_t, index_t, index_t,
                             int, double*);
template void pack_a<float>(const LinTermF32*, int, index_t, index_t, index_t,
                            int, float*);
template void pack_a_panel<double>(const LinTerm*, int, index_t, index_t,
                                   index_t, int, index_t, double*);
template void pack_a_panel<float>(const LinTermF32*, int, index_t, index_t,
                                  index_t, int, index_t, float*);
template void pack_b_panel<double>(const LinTerm*, int, index_t, index_t,
                                   index_t, int, index_t, double*);
template void pack_b_panel<float>(const LinTermF32*, int, index_t, index_t,
                                  index_t, int, index_t, float*);
template void pack_b<double>(const LinTerm*, int, index_t, index_t, index_t,
                             int, double*);
template void pack_b<float>(const LinTermF32*, int, index_t, index_t, index_t,
                            int, float*);

}  // namespace fmm
