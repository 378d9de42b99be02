#pragma once

// Non-owning strided views over row-major matrices.
//
// The entire FMM machinery operates on views: partitioning a matrix into the
// <m~, k~, n~> grid of an FMM algorithm produces views into the original
// storage, and the packing routines absorb the linear combinations of those
// views.  No submatrix is ever copied outside of packing.
//
// The element type is a template parameter (double or float; see
// src/gemm/dtype.h).  `MatView`/`ConstMatView` are the double spellings.
//
// Public entry points that take C, A and B are templated on the element type
// and deduce it from C alone: A and B are `ConstMatViewT<NoDeduce<T>>`, so a
// writable `a.view()` still converts implicitly to the const view.

#include <cassert>
#include <cstdint>

namespace fmm {

using index_t = std::int64_t;

// C++17 stand-in for std::type_identity_t: puts T in a non-deduced context.
template <typename T>
struct TypeIdentity {
  using type = T;
};
template <typename T>
using NoDeduce = typename TypeIdentity<T>::type;

// Read-only view: `rows x cols` elements, row i starting at data + i*stride.
template <typename T>
class ConstMatViewT {
 public:
  ConstMatViewT() = default;
  ConstMatViewT(const T* data, index_t rows, index_t cols, index_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    assert(stride >= cols);
  }

  const T* data() const { return data_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  T operator()(index_t i, index_t j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i * stride_ + j];
  }

  const T* row(index_t i) const { return data_ + i * stride_; }

  // Sub-view of `r x c` elements starting at (i0, j0).
  ConstMatViewT block(index_t i0, index_t j0, index_t r, index_t c) const {
    assert(i0 >= 0 && j0 >= 0 && i0 + r <= rows_ && j0 + c <= cols_);
    return ConstMatViewT(data_ + i0 * stride_ + j0, r, c, stride_);
  }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t stride_ = 0;
};

// Mutable view with the same shape contract.
template <typename T>
class MatViewT {
 public:
  MatViewT() = default;
  MatViewT(T* data, index_t rows, index_t cols, index_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    assert(stride >= cols);
  }

  T* data() const { return data_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  T& operator()(index_t i, index_t j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i * stride_ + j];
  }

  T* row(index_t i) const { return data_ + i * stride_; }

  MatViewT block(index_t i0, index_t j0, index_t r, index_t c) const {
    assert(i0 >= 0 && j0 >= 0 && i0 + r <= rows_ && j0 + c <= cols_);
    return MatViewT(data_ + i0 * stride_ + j0, r, c, stride_);
  }

  operator ConstMatViewT<T>() const {  // NOLINT: implicit by design
    return ConstMatViewT<T>(data_, rows_, cols_, stride_);
  }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t stride_ = 0;
};

using ConstMatView = ConstMatViewT<double>;
using MatView = MatViewT<double>;
using ConstMatViewF32 = ConstMatViewT<float>;
using MatViewF32 = MatViewT<float>;

}  // namespace fmm
