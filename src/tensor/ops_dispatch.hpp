#pragma once

/// \file ops_dispatch.hpp
/// Internal contract between ops.cpp (argument validation, scratch
/// buffers, dispatch) and the per-ISA builds of the dense kernels. The
/// loop bodies live once, in ops_kernels.inl; ops.cpp compiles them for
/// the baseline target and ops_avx2.cpp with -mavx2 (see
/// CMakeLists.txt). Every entry takes raw row-major pointers the public
/// wrappers have already validated.
///
/// Bit-identity contract: every build computes each output element with
/// the float operations of a plain scalar loop over its terms, in that
/// loop's order — a sum started at 0.0f (or at the existing value, for
/// the accumulating entries), one multiply then one add per term, terms
/// in ascending reduction index, and for the gradient entries no term at
/// all where the dy factor is zero. Vector lanes only ever hold independent
/// outputs, never partial sums of one output, and the TUs are compiled
/// with -ffp-contract=off so no multiply-add fuses into an FMA. See
/// DESIGN.md "Dense kernels".

#include <cstddef>

namespace dlcomp::dense::detail {

struct DenseOps {
  /// y (batch x out) = x (batch x in) * w^T, w (out x in). `wt` is
  /// scratch for in * out floats.
  void (*matmul_nt)(const float* x, const float* w, std::size_t batch,
                    std::size_t in, std::size_t out, float* wt, float* y);
  /// dx (batch x in) = dy (batch x out) * w (out x in).
  void (*matmul_nn)(const float* dy, const float* w, std::size_t batch,
                    std::size_t out, std::size_t in, float* dx);
  /// dw (out x in) += dy^T * x, x (batch x in).
  void (*matmul_tn_accum)(const float* dy, const float* x, std::size_t batch,
                          std::size_t out, std::size_t in, float* dw);
  /// For each batch row b, the dots <inputs[i][b], inputs[j][b]> for
  /// 0 <= i < j < n (each input batch x dim), written in (i, j) row-major
  /// order to out + b * out_stride. `t` is scratch for dim * padded_n
  /// floats and `gram` for n * padded_n, padded_n = n rounded up to a
  /// multiple of 16 (see gram_width in ops_kernels.inl).
  void (*pairwise_dots)(const float* const* inputs, std::size_t n,
                        std::size_t batch, std::size_t dim, float* t,
                        float* gram, float* out, std::size_t out_stride);
  /// Gradient of pairwise_dots: grads[r] row b += sum over partners
  /// p != r, ascending, of the pair's dout entry times inputs[p] row b,
  /// skipping zero entries. `dout` points at the first pair column;
  /// `coef` is scratch for n * n floats.
  void (*pairwise_dots_backward)(const float* const* inputs, std::size_t n,
                                 std::size_t batch, std::size_t dim,
                                 const float* dout, std::size_t dout_stride,
                                 float* coef, float* const* grads);
};

/// The AVX2 table; nullptr when it was not compiled in. The baseline
/// table is ops.cpp's own instantiation and always present.
[[nodiscard]] const DenseOps* avx2_ops() noexcept;

}  // namespace dlcomp::dense::detail
