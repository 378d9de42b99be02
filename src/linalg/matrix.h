#pragma once

// Owning row-major matrix with cache-line-aligned storage, templated on the
// element type (double or float); `Matrix` is the double spelling.

#include <algorithm>

#include "src/linalg/mat_view.h"
#include "src/util/aligned_buffer.h"
#include "src/util/prng.h"

namespace fmm {

template <typename T>
class MatrixT {
 public:
  MatrixT() = default;

  // Allocates rows x cols; `stride` defaults to cols (dense).  A larger
  // stride can be requested to test strided-view code paths.
  MatrixT(index_t rows, index_t cols, index_t stride = 0)
      : rows_(rows), cols_(cols), stride_(stride == 0 ? cols : stride) {
    buf_.resize(static_cast<std::size_t>(rows_ * stride_));
  }

  MatrixT(MatrixT&&) = default;
  MatrixT& operator=(MatrixT&&) = default;

  // Deep copy is explicit to keep accidental copies of multi-GB operands
  // out of the benchmark harness.
  MatrixT clone() const {
    MatrixT out(rows_, cols_, stride_);
    // copy_n, not memcpy: an empty matrix has a null buffer.
    std::copy_n(data(), rows_ * stride_, out.data());
    return out;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t stride() const { return stride_; }

  T* data() { return buf_.data(); }
  const T* data() const { return buf_.data(); }

  T& operator()(index_t i, index_t j) { return buf_[i * stride_ + j]; }
  T operator()(index_t i, index_t j) const { return buf_[i * stride_ + j]; }

  MatViewT<T> view() { return MatViewT<T>(data(), rows_, cols_, stride_); }
  ConstMatViewT<T> view() const {
    return ConstMatViewT<T>(data(), rows_, cols_, stride_);
  }
  ConstMatViewT<T> cview() const { return view(); }

  void set_zero() { std::fill_n(data(), rows_ * stride_, T(0)); }

  void fill(T v) {
    for (index_t i = 0; i < rows_; ++i)
      for (index_t j = 0; j < cols_; ++j) (*this)(i, j) = v;
  }

  // Uniform entries in [-1, 1), drawn in double and rounded to T: the
  // standard dense-kernel test/benchmark fill.
  void fill_random(std::uint64_t seed) {
    Xoshiro256 rng(seed);
    for (index_t i = 0; i < rows_; ++i)
      for (index_t j = 0; j < cols_; ++j)
        (*this)(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
  }

  static MatrixT random(index_t rows, index_t cols, std::uint64_t seed) {
    MatrixT m(rows, cols);
    m.fill_random(seed);
    return m;
  }

  static MatrixT zero(index_t rows, index_t cols) {
    MatrixT m(rows, cols);
    m.set_zero();
    return m;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t stride_ = 0;
  AlignedBuffer<T> buf_;
};

using Matrix = MatrixT<double>;

}  // namespace fmm
