#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/ops_dispatch.hpp"
#include "tensor/ops_kernels.inl"  // the baseline build of the dense kernels

namespace dlcomp {

namespace {

using dense::detail::DenseOps;

// There is deliberately no AVX-512 build: see DESIGN.md "Dense kernels".
const DenseOps* ops_for(simd::Isa isa) noexcept {
  switch (isa) {
    case simd::Isa::kAvx512:
      return nullptr;
    case simd::Isa::kAvx2:
      return dense::detail::avx2_ops();
    case simd::Isa::kScalar:
      break;
  }
  return &dense::detail::kOps;
}

constinit simd::Dispatch<DenseOps> g_dispatch{&ops_for};

const DenseOps& active_ops() noexcept { return g_dispatch.active(); }

// Per-thread scratch (ranks run as threads): grows to the largest shape
// seen, then every call reuses it.
thread_local std::vector<float> t_transpose;
thread_local std::vector<float> t_gram;

float* scratch(std::vector<float>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Data pointers of equally shaped pairwise-dot inputs (checked).
const std::vector<const float*>& input_rows(
    std::span<const Matrix* const> inputs) {
  DLCOMP_CHECK(!inputs.empty());
  thread_local std::vector<const float*> rows;
  rows.clear();
  for (const Matrix* m : inputs) {
    DLCOMP_CHECK(m->rows() == inputs[0]->rows() &&
                 m->cols() == inputs[0]->cols());
    rows.push_back(m->data());
  }
  return rows;
}

}  // namespace

void matmul_nt(const Matrix& x, const Matrix& w, Matrix& y) {
  DLCOMP_CHECK(x.cols() == w.cols());
  DLCOMP_CHECK(y.rows() == x.rows() && y.cols() == w.rows());
  float* wt = scratch(t_transpose, w.size());
  active_ops().matmul_nt(x.data(), w.data(), x.rows(), x.cols(), w.rows(), wt,
                         y.data());
}

void matmul_nn(const Matrix& dy, const Matrix& w, Matrix& dx) {
  DLCOMP_CHECK(dy.cols() == w.rows());
  DLCOMP_CHECK(dx.rows() == dy.rows() && dx.cols() == w.cols());
  active_ops().matmul_nn(dy.data(), w.data(), dy.rows(), dy.cols(), w.cols(),
                         dx.data());
}

void matmul_tn_accum(const Matrix& dy, const Matrix& x, Matrix& dw) {
  DLCOMP_CHECK(dy.rows() == x.rows());
  DLCOMP_CHECK(dw.rows() == dy.cols() && dw.cols() == x.cols());
  active_ops().matmul_tn_accum(dy.data(), x.data(), dy.rows(), dy.cols(),
                               x.cols(), dw.data());
}

void pairwise_dots(std::span<const Matrix* const> inputs, Matrix& out,
                   std::size_t col) {
  const std::vector<const float*>& rows = input_rows(inputs);
  const std::size_t n = inputs.size();
  const std::size_t batch = inputs[0]->rows();
  const std::size_t dim = inputs[0]->cols();
  DLCOMP_CHECK(out.rows() == batch && col + n * (n - 1) / 2 <= out.cols());
  const std::size_t width = dense::detail::gram_width(n);
  float* t = scratch(t_transpose, dim * width);
  float* gram = scratch(t_gram, n * width);
  active_ops().pairwise_dots(rows.data(), n, batch, dim, t, gram,
                             out.data() + col, out.cols());
}

void pairwise_dots_backward(std::span<const Matrix* const> inputs,
                            const Matrix& dout, std::size_t col,
                            std::span<Matrix* const> grads) {
  const std::vector<const float*>& rows = input_rows(inputs);
  const std::size_t n = inputs.size();
  const std::size_t batch = inputs[0]->rows();
  const std::size_t dim = inputs[0]->cols();
  DLCOMP_CHECK(dout.rows() == batch &&
               col + n * (n - 1) / 2 <= dout.cols());
  DLCOMP_CHECK(grads.size() == n);
  thread_local std::vector<float*> grad_rows;
  grad_rows.clear();
  for (Matrix* g : grads) {
    DLCOMP_CHECK(g->rows() == batch && g->cols() == dim);
    grad_rows.push_back(g->data());
  }
  float* coef = scratch(t_gram, n * n);
  active_ops().pairwise_dots_backward(rows.data(), n, batch, dim,
                                      dout.data() + col, dout.cols(), coef,
                                      grad_rows.data());
}

namespace dense {

simd::Isa force_isa_for_testing(simd::Isa isa) noexcept {
  return g_dispatch.select(std::min(isa, simd::cpu_best()));
}

}  // namespace dense

void add_bias(Matrix& y, std::span<const float> bias) {
  DLCOMP_CHECK(bias.size() == y.cols());
  for (std::size_t b = 0; b < y.rows(); ++b) {
    float* yr = y.data() + b * y.cols();
    for (std::size_t o = 0; o < y.cols(); ++o) yr[o] += bias[o];
  }
}

void bias_grad_accum(const Matrix& dy, std::span<float> db) {
  DLCOMP_CHECK(db.size() == dy.cols());
  for (std::size_t b = 0; b < dy.rows(); ++b) {
    const float* dyr = dy.data() + b * dy.cols();
    for (std::size_t o = 0; o < dy.cols(); ++o) db[o] += dyr[o];
  }
}

void relu_inplace(Matrix& x) noexcept {
  for (auto& v : x.flat()) {
    if (v < 0.0f) v = 0.0f;
  }
}

void relu_bwd(const Matrix& activated, Matrix& dy) noexcept {
  const auto act = activated.flat();
  auto grad = dy.flat();
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (act[i] <= 0.0f) grad[i] = 0.0f;
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  DLCOMP_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double mean_squared_error(std::span<const float> a, std::span<const float> b) {
  DLCOMP_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

double max_abs_error(std::span<const float> a, std::span<const float> b) {
  DLCOMP_CHECK(a.size() == b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (d > worst) worst = d;
  }
  return worst;
}

}  // namespace dlcomp
