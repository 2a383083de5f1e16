#pragma once

/// \file ops.hpp
/// Dense kernels used by the DLRM MLPs and interaction layer. Weight
/// matrices are stored (out_features x in_features), so the forward pass
/// is Y = X * W^T + b. The three GEMM orientations below cover forward,
/// input-gradient and weight-gradient passes; pairwise_dots and its
/// backward are the dot interaction's inner-product block.
///
/// The GEMMs and the pairwise-dot kernels vectorize across independent
/// outputs and dispatch at run time to a baseline or AVX2 build, picked
/// by the same simd::requested() / DLCOMP_SIMD rule as the codec kernels
/// (an AVX-512 request runs the AVX2 build). Every build is
/// bit-identical to a plain scalar loop: each output is a sum started at
/// 0.0f (accumulating kernels: at its current value), one separately
/// rounded multiply and add per term, terms in ascending reduction
/// index, and no term where the gradient factor is zero (matmul_nn,
/// matmul_tn_accum, pairwise_dots_backward). Outputs must not alias
/// inputs. See DESIGN.md "Dense kernels".

#include <cstddef>
#include <span>

#include "compress/simd.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

/// Y = X (B x in) * W^T (in x out); Y must be (B x out).
void matmul_nt(const Matrix& x, const Matrix& w, Matrix& y);

/// dX = dY (B x out) * W (out x in); dX must be (B x in).
void matmul_nn(const Matrix& dy, const Matrix& w, Matrix& dx);

/// dW += dY^T (out x B) * X (B x in); dW must be (out x in).
/// Accumulates so gradients from multiple microbatches can be summed.
void matmul_tn_accum(const Matrix& dy, const Matrix& x, Matrix& dw);

/// For every batch row b and every pair i < j of the n inputs (each
/// batch x dim), out[b][col + k] = <inputs[i][b], inputs[j][b]>, with k
/// enumerating the pairs in (i, j) row-major order.
void pairwise_dots(std::span<const Matrix* const> inputs, Matrix& out,
                   std::size_t col);

/// Gradient of pairwise_dots, accumulated: for every batch row b and
/// input r, grads[r][b] += dout[b][col + k] * inputs[p][b] over r's
/// partners p in ascending order (k the pair's column), skipping terms
/// whose dout entry is zero.
void pairwise_dots_backward(std::span<const Matrix* const> inputs,
                            const Matrix& dout, std::size_t col,
                            std::span<Matrix* const> grads);

/// Adds bias (length = y.cols()) to every row of y.
void add_bias(Matrix& y, std::span<const float> bias);

/// Accumulates column sums of dy into db (length = dy.cols()).
void bias_grad_accum(const Matrix& dy, std::span<float> db);

/// In-place ReLU; writes activation mask consumers can reuse via relu_bwd.
void relu_inplace(Matrix& x) noexcept;

/// dX = dY where the forward activation was positive, 0 elsewhere.
/// `activated` is the post-ReLU forward output.
void relu_bwd(const Matrix& activated, Matrix& dy) noexcept;

/// y += alpha * x (flat).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// Mean squared difference between two equal-length spans.
double mean_squared_error(std::span<const float> a, std::span<const float> b);

/// Maximum absolute difference between two equal-length spans.
double max_abs_error(std::span<const float> a, std::span<const float> b);

namespace dense {

/// Test hook: switches the dense kernels, for the whole process, to the
/// widest build at or below `isa` clamped to simd::cpu_best() — the rule
/// the first kernel call applies to simd::requested() — and returns the
/// tier selected. Not thread-safe against in-flight kernel calls;
/// differential tests only.
simd::Isa force_isa_for_testing(simd::Isa isa) noexcept;

}  // namespace dense

}  // namespace dlcomp
