#include "dlrm/interaction.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace dlcomp {

namespace {

/// The F+1 interaction inputs, z0 first, as pairwise_dots sees them.
std::vector<const Matrix*> dot_inputs(const Matrix& z0,
                                      std::span<const Matrix> emb) {
  std::vector<const Matrix*> inputs;
  inputs.reserve(emb.size() + 1);
  inputs.push_back(&z0);
  for (const auto& e : emb) inputs.push_back(&e);
  return inputs;
}

}  // namespace

void DotInteraction::forward(const Matrix& z0, std::span<const Matrix> emb,
                             Matrix& out) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  for (const auto& e : emb) {
    DLCOMP_CHECK(e.rows() == batch && e.cols() == dim);
  }
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(out.rows() == batch && out.cols() == width);

  // Dense passthrough, then the upper-triangle pairwise dots.
  for (std::size_t b = 0; b < batch; ++b) {
    const float* z = z0.data() + b * dim;
    float* dst = out.data() + b * width;
    for (std::size_t i = 0; i < dim; ++i) dst[i] = z[i];
  }
  pairwise_dots(dot_inputs(z0, emb), out, dim);
}

void DotInteraction::backward(const Matrix& z0, std::span<const Matrix> emb,
                              const Matrix& dout, Matrix& dz0,
                              std::span<Matrix> demb) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(dout.rows() == batch && dout.cols() == width);
  DLCOMP_CHECK(dz0.rows() == batch && dz0.cols() == dim);
  DLCOMP_CHECK(demb.size() == emb.size());
  for (auto& d : demb) {
    DLCOMP_CHECK(d.rows() == batch && d.cols() == dim);
    d.zero();
  }
  dz0.zero();

  // Dense passthrough gradient, then d<v_i, v_j>/dv_i = v_j and vice
  // versa, accumulated over each input's partners in ascending order.
  for (std::size_t b = 0; b < batch; ++b) {
    const float* g = dout.data() + b * width;
    float* gz = dz0.data() + b * dim;
    for (std::size_t i = 0; i < dim; ++i) gz[i] += g[i];
  }
  std::vector<Matrix*> grads;
  grads.reserve(demb.size() + 1);
  grads.push_back(&dz0);
  for (auto& d : demb) grads.push_back(&d);
  pairwise_dots_backward(dot_inputs(z0, emb), dout, dim, grads);
}

void ConcatInteraction::forward(const Matrix& z0, std::span<const Matrix> emb,
                                Matrix& out) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  for (const auto& e : emb) {
    DLCOMP_CHECK(e.rows() == batch && e.cols() == dim);
  }
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(out.rows() == batch && out.cols() == width);

  for (std::size_t b = 0; b < batch; ++b) {
    float* dst = out.data() + b * width;
    const float* z = z0.data() + b * dim;
    for (std::size_t i = 0; i < dim; ++i) dst[i] = z[i];
    std::size_t k = dim;
    for (const auto& e : emb) {
      const float* v = e.data() + b * dim;
      for (std::size_t i = 0; i < dim; ++i) dst[k++] = v[i];
    }
  }
}

void ConcatInteraction::backward(const Matrix& z0, std::span<const Matrix> emb,
                                 const Matrix& dout, Matrix& dz0,
                                 std::span<Matrix> demb) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(dout.rows() == batch && dout.cols() == width);
  DLCOMP_CHECK(dz0.rows() == batch && dz0.cols() == dim);
  DLCOMP_CHECK(demb.size() == emb.size());

  // Concat backward is pure slicing: each input's gradient is its column
  // range of dOut.
  for (std::size_t b = 0; b < batch; ++b) {
    const float* g = dout.data() + b * width;
    float* gz = dz0.data() + b * dim;
    for (std::size_t i = 0; i < dim; ++i) gz[i] = g[i];
    std::size_t k = dim;
    for (auto& d : demb) {
      DLCOMP_CHECK(d.rows() == batch && d.cols() == dim);
      float* gv = d.data() + b * dim;
      for (std::size_t i = 0; i < dim; ++i) gv[i] = g[k++];
    }
  }
}

void NcfInteraction::forward(const Matrix& z0, std::span<const Matrix> emb,
                             Matrix& out) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  DLCOMP_CHECK_MSG(emb.size() >= 2,
                   "NCF interaction needs >= 2 embedding tables, got "
                       << emb.size());
  for (const auto& e : emb) {
    DLCOMP_CHECK(e.rows() == batch && e.cols() == dim);
  }
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(out.rows() == batch && out.cols() == width);
  const std::size_t split = field_split(emb.size());

  std::vector<float> u(dim);
  std::vector<float> v(dim);
  for (std::size_t b = 0; b < batch; ++b) {
    std::fill(u.begin(), u.end(), 0.0f);
    std::fill(v.begin(), v.end(), 0.0f);
    for (std::size_t t = 0; t < emb.size(); ++t) {
      const float* row = emb[t].data() + b * dim;
      float* field = t < split ? u.data() : v.data();
      for (std::size_t i = 0; i < dim; ++i) field[i] += row[i];
    }
    float* dst = out.data() + b * width;
    const float* z = z0.data() + b * dim;
    for (std::size_t i = 0; i < dim; ++i) dst[i] = z[i];
    for (std::size_t i = 0; i < dim; ++i) dst[dim + i] = u[i] * v[i];
  }
}

void NcfInteraction::backward(const Matrix& z0, std::span<const Matrix> emb,
                              const Matrix& dout, Matrix& dz0,
                              std::span<Matrix> demb) {
  const std::size_t batch = z0.rows();
  const std::size_t dim = z0.cols();
  const std::size_t width = output_dim(emb.size(), dim);
  DLCOMP_CHECK(dout.rows() == batch && dout.cols() == width);
  DLCOMP_CHECK(dz0.rows() == batch && dz0.cols() == dim);
  DLCOMP_CHECK(demb.size() == emb.size());
  const std::size_t split = field_split(emb.size());

  // d(u ⊙ v)/du = v (and vice versa); the sum pooling broadcasts each
  // field gradient to every table in the field.
  std::vector<float> u(dim);
  std::vector<float> v(dim);
  for (std::size_t b = 0; b < batch; ++b) {
    std::fill(u.begin(), u.end(), 0.0f);
    std::fill(v.begin(), v.end(), 0.0f);
    for (std::size_t t = 0; t < emb.size(); ++t) {
      const float* row = emb[t].data() + b * dim;
      float* field = t < split ? u.data() : v.data();
      for (std::size_t i = 0; i < dim; ++i) field[i] += row[i];
    }
    const float* g = dout.data() + b * width;
    float* gz = dz0.data() + b * dim;
    for (std::size_t i = 0; i < dim; ++i) gz[i] = g[i];
    for (std::size_t t = 0; t < emb.size(); ++t) {
      DLCOMP_CHECK(demb[t].rows() == batch && demb[t].cols() == dim);
      float* gv = demb[t].data() + b * dim;
      const float* other = t < split ? v.data() : u.data();
      for (std::size_t i = 0; i < dim; ++i) gv[i] = g[dim + i] * other[i];
    }
  }
}

}  // namespace dlcomp
