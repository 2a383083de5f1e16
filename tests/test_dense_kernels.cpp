// Differential tests for the vectorized dense kernels: every compiled-in
// SIMD tier of matmul_nt / matmul_nn / matmul_tn_accum and the dot
// interaction's forward must be byte-identical (memcmp) to the plain
// scalar loops they replaced, preserved below as test-only copies. The
// inputs cover tail shapes around every vector width, zero and
// signed-zero gradients (the skipped terms), and NaN/Inf operands.
//
// One documented exception: where two different NaNs meet in one add,
// x86 returns the payload of the instruction's first operand, and the
// compiler may order a vector add's operands differently from the
// scalar one. So with NaN inputs the check is bit-exact on every
// non-NaN output and NaN-for-NaN elsewhere; finite inputs get memcmp.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "dlrm/interaction.hpp"
#include "tensor/ops.hpp"

namespace dlcomp {
namespace {

// ------------------------------------------------- reference (old loops)

void ref_matmul_nt(const Matrix& x, const Matrix& w, Matrix& y) {
  const std::size_t batch = x.rows();
  const std::size_t in = x.cols();
  const std::size_t out = w.rows();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xr = x.data() + b * in;
    float* yr = y.data() + b * out;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wr = w.data() + o * in;
      float acc = 0.0f;
      for (std::size_t i = 0; i < in; ++i) acc += xr[i] * wr[i];
      yr[o] = acc;
    }
  }
}

void ref_matmul_nn(const Matrix& dy, const Matrix& w, Matrix& dx) {
  const std::size_t batch = dy.rows();
  const std::size_t out = dy.cols();
  const std::size_t in = w.cols();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dyr = dy.data() + b * out;
    float* dxr = dx.data() + b * in;
    for (std::size_t i = 0; i < in; ++i) dxr[i] = 0.0f;
    for (std::size_t o = 0; o < out; ++o) {
      const float g = dyr[o];
      if (g == 0.0f) continue;
      const float* wr = w.data() + o * in;
      for (std::size_t i = 0; i < in; ++i) dxr[i] += g * wr[i];
    }
  }
}

void ref_matmul_tn_accum(const Matrix& dy, const Matrix& x, Matrix& dw) {
  const std::size_t batch = dy.rows();
  const std::size_t out = dy.cols();
  const std::size_t in = x.cols();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dyr = dy.data() + b * out;
    const float* xr = x.data() + b * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float g = dyr[o];
      if (g == 0.0f) continue;
      float* dwr = dw.data() + o * in;
      for (std::size_t i = 0; i < in; ++i) dwr[i] += g * xr[i];
    }
  }
}

void ref_dot_forward(const Matrix& z0, const std::vector<Matrix>& emb,
                     Matrix& out) {
  const std::size_t dim = z0.cols();
  const std::size_t width = out.cols();
  std::vector<const float*> rows;
  for (std::size_t b = 0; b < z0.rows(); ++b) {
    rows.assign({z0.data() + b * dim});
    for (const auto& e : emb) rows.push_back(e.data() + b * dim);
    float* dst = out.data() + b * width;
    for (std::size_t i = 0; i < dim; ++i) dst[i] = rows[0][i];
    std::size_t k = dim;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = i + 1; j < rows.size(); ++j) {
        float acc = 0.0f;
        for (std::size_t d = 0; d < dim; ++d) acc += rows[i][d] * rows[j][d];
        dst[k++] = acc;
      }
    }
  }
}

void ref_dot_backward(const Matrix& z0, const std::vector<Matrix>& emb,
                      const Matrix& dout, Matrix& dz0,
                      std::vector<Matrix>& demb) {
  const std::size_t dim = z0.cols();
  const std::size_t width = dout.cols();
  dz0.zero();
  for (auto& d : demb) d.zero();
  std::vector<const float*> rows;
  std::vector<float*> grad_rows;
  for (std::size_t b = 0; b < z0.rows(); ++b) {
    rows.assign({z0.data() + b * dim});
    for (const auto& e : emb) rows.push_back(e.data() + b * dim);
    grad_rows.assign({dz0.data() + b * dim});
    for (auto& d : demb) grad_rows.push_back(d.data() + b * dim);
    const float* g = dout.data() + b * width;
    for (std::size_t i = 0; i < dim; ++i) grad_rows[0][i] += g[i];
    std::size_t k = dim;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = i + 1; j < rows.size(); ++j) {
        const float gk = g[k++];
        if (gk == 0.0f) continue;
        for (std::size_t d = 0; d < dim; ++d) {
          grad_rows[i][d] += gk * rows[j][d];
          grad_rows[j][d] += gk * rows[i][d];
        }
      }
    }
  }
}

// ------------------------------------------------------------ helpers

/// Runs `body` once per dense-kernel build this host can execute, then
/// restores the environment-resolved dispatch. The baseline build always
/// runs.
template <typename Body>
void for_each_available_isa(const Body& body) {
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (dense::force_isa_for_testing(isa) != isa) continue;
    SCOPED_TRACE(simd::isa_name(isa));
    body();
  }
  dense::force_isa_for_testing(simd::requested());
}

/// Uniform values; with `special`, a share of the entries become +0,
/// -0, NaN, +Inf or -Inf.
Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     bool special) {
  Matrix m = Matrix::rand_uniform(rng, rows, cols, -1.0f, 1.0f);
  if (!special) return m;
  for (float& v : m.flat()) {
    switch (rng.next_below(16)) {
      case 0:
      case 1:
      case 2:
        v = 0.0f;
        break;
      case 3:
        v = -0.0f;
        break;
      case 4:
        if (rng.next_below(8) == 0) v = std::numeric_limits<float>::quiet_NaN();
        break;
      case 5:
        if (rng.next_below(8) == 0) {
          v = rng.next_below(2) == 0 ? std::numeric_limits<float>::infinity()
                                     : -std::numeric_limits<float>::infinity();
        }
        break;
      default:
        break;
    }
  }
  return m;
}

/// ReLU-style gradient: about half the entries exactly zero (either
/// sign), the terms the gradient GEMMs must skip.
Matrix relu_gradient(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::rand_uniform(rng, rows, cols, -1.0f, 1.0f);
  for (float& v : m.flat()) {
    if (v < 0.0f) v = rng.next_below(4) == 0 ? -0.0f : 0.0f;
  }
  return m;
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Bit-exact except that any NaN matches any NaN (see the file comment).
bool same_bits_or_both_nan(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
  }
  return true;
}

const std::size_t kBatches[] = {1, 3, 4, 7, 256};
const std::size_t kWidths[] = {1, 5, 13, 32, 383};

// -------------------------------------------------------------- GEMMs

/// All three GEMMs on one shape, compared against the reference loops
/// on every tier.
void check_gemms(std::size_t batch, std::size_t in, std::size_t out,
                 Rng& rng, bool special) {
  SCOPED_TRACE(testing::Message() << "batch=" << batch << " in=" << in
                                  << " out=" << out
                                  << " special=" << special);
  const Matrix x = random_matrix(batch, in, rng, special);
  const Matrix w = random_matrix(out, in, rng, special);
  const Matrix dy =
      special ? random_matrix(batch, out, rng, true) : relu_gradient(batch, out, rng);
  const Matrix dw0 = random_matrix(out, in, rng, special);

  Matrix want_y(batch, out);
  ref_matmul_nt(x, w, want_y);
  Matrix want_dx(batch, in);
  ref_matmul_nn(dy, w, want_dx);
  Matrix want_dw = dw0;
  ref_matmul_tn_accum(dy, x, want_dw);

  const auto same = special ? same_bits_or_both_nan : same_bytes;
  for_each_available_isa([&] {
    Matrix y(batch, out, 7.0f);  // stale contents must be overwritten
    matmul_nt(x, w, y);
    EXPECT_TRUE(same(y, want_y)) << "matmul_nt";
    Matrix dx(batch, in, 7.0f);
    matmul_nn(dy, w, dx);
    EXPECT_TRUE(same(dx, want_dx)) << "matmul_nn";
    Matrix dw = dw0;
    matmul_tn_accum(dy, x, dw);
    EXPECT_TRUE(same(dw, want_dw)) << "matmul_tn_accum";
  });
}

TEST(DenseKernels, GemmShapesMatchReference) {
  Rng rng(11);
  for (const std::size_t batch : kBatches) {
    for (const std::size_t in : kWidths) {
      for (const std::size_t out : kWidths) {
        check_gemms(batch, in, out, rng, /*special=*/false);
      }
    }
  }
}

TEST(DenseKernels, GemmZerosAndNonFiniteMatchReference) {
  Rng rng(12);
  for (const std::size_t batch : kBatches) {
    for (const std::size_t in : kWidths) {
      for (const std::size_t out : kWidths) {
        check_gemms(batch, in, out, rng, /*special=*/true);
      }
    }
  }
}

TEST(DenseKernels, SkippedGradientTermsLeaveNoTrace) {
  // A zero (or negative-zero) gradient times an infinite weight is NaN;
  // the skip means it must never reach dX or dW, and dW entries whose
  // column of dy is all zero keep their exact prior bits (-0 included).
  Matrix w(2, 3, 1.0f);
  w(1, 0) = std::numeric_limits<float>::infinity();
  w(1, 2) = std::numeric_limits<float>::quiet_NaN();
  Matrix dy(2, 2);
  dy(0, 0) = 2.0f;
  dy(0, 1) = -0.0f;
  dy(1, 0) = 0.0f;
  dy(1, 1) = 0.0f;
  Matrix x(2, 3, std::numeric_limits<float>::infinity());
  Matrix want_dx(2, 3);
  ref_matmul_nn(dy, w, want_dx);
  Matrix dw0(2, 3, -0.0f);
  Matrix want_dw = dw0;
  ref_matmul_tn_accum(dy, x, want_dw);
  for_each_available_isa([&] {
    Matrix dx(2, 3);
    matmul_nn(dy, w, dx);
    EXPECT_TRUE(same_bytes(dx, want_dx));
    EXPECT_EQ(dx(0, 0), 2.0f);
    Matrix dw = dw0;
    matmul_tn_accum(dy, x, dw);
    EXPECT_TRUE(same_bytes(dw, want_dw));
    EXPECT_TRUE(std::signbit(dw(1, 1)));  // untouched -0
  });
}

TEST(DenseKernels, SingleNonFiniteSourcePropagatesExactly) {
  // With one NaN (custom payload) and one Inf per operand, no two NaNs
  // meet in a sum, so even NaN bits must match the reference exactly.
  const float nan = std::bit_cast<float>(std::uint32_t{0x7fc12345});
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(14);
  const std::size_t batch = 9;
  const std::size_t in = 19;
  const std::size_t out = 21;
  Matrix x = Matrix::rand_uniform(rng, batch, in, 0.5f, 1.0f);
  Matrix w = Matrix::rand_uniform(rng, out, in, 0.5f, 1.0f);
  Matrix dy = Matrix::rand_uniform(rng, batch, out, 0.5f, 1.0f);
  x(2, 3) = nan;
  x(5, 7) = -inf;
  w(4, 11) = nan;
  w(9, 0) = inf;
  dy(6, 2) = nan;
  dy(1, 17) = inf;
  Matrix want_y(batch, out);
  ref_matmul_nt(x, w, want_y);
  Matrix want_dx(batch, in);
  ref_matmul_nn(dy, w, want_dx);
  Matrix want_dw(out, in);
  ref_matmul_tn_accum(dy, x, want_dw);
  for_each_available_isa([&] {
    Matrix y(batch, out);
    matmul_nt(x, w, y);
    EXPECT_TRUE(same_bytes(y, want_y)) << "matmul_nt";
    Matrix dx(batch, in);
    matmul_nn(dy, w, dx);
    EXPECT_TRUE(same_bytes(dx, want_dx)) << "matmul_nn";
    Matrix dw(out, in);
    matmul_tn_accum(dy, x, dw);
    EXPECT_TRUE(same_bytes(dw, want_dw)) << "matmul_tn_accum";
  });
  EXPECT_EQ(std::bit_cast<std::uint32_t>(want_y(2, 0)), 0x7fc12345u);
}

// -------------------------------------------------------- interaction

TEST(DenseKernels, DotInteractionMatchesReference) {
  Rng rng(13);
  for (const std::size_t tables : {1, 2, 26}) {
    for (const std::size_t dim : {1, 5, 16, 32}) {
      for (const std::size_t batch : {1, 3, 7, 256}) {
        for (const bool special : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "tables=" << tables << " dim=" << dim
                       << " batch=" << batch << " special=" << special);
          const Matrix z0 = random_matrix(batch, dim, rng, special);
          std::vector<Matrix> emb;
          for (std::size_t t = 0; t < tables; ++t) {
            emb.push_back(random_matrix(batch, dim, rng, special));
          }
          const std::size_t width = DotInteraction::output_dim(tables, dim);
          Matrix want(batch, width);
          ref_dot_forward(z0, emb, want);
          // dOut with zero (skipped) and signed-zero pair gradients.
          const Matrix dout = special ? random_matrix(batch, width, rng, true)
                                      : relu_gradient(batch, width, rng);
          Matrix want_dz0(batch, dim);
          std::vector<Matrix> want_demb(tables, Matrix(batch, dim));
          ref_dot_backward(z0, emb, dout, want_dz0, want_demb);

          const auto same = special ? same_bits_or_both_nan : same_bytes;
          for_each_available_isa([&] {
            Matrix got(batch, width, 7.0f);
            DotInteraction::forward(z0, emb, got);
            EXPECT_TRUE(same(got, want)) << "forward";
            Matrix dz0(batch, dim, 7.0f);
            std::vector<Matrix> demb(tables, Matrix(batch, dim, 7.0f));
            DotInteraction::backward(z0, emb, dout, dz0, demb);
            EXPECT_TRUE(same(dz0, want_dz0)) << "backward dz0";
            for (std::size_t t = 0; t < tables; ++t) {
              EXPECT_TRUE(same(demb[t], want_demb[t])) << "backward table " << t;
            }
          });
        }
      }
    }
  }
}

TEST(DenseKernels, EveryAvailableTierIsSelectable) {
  // The baseline build always exists, and a request selects the widest
  // build at or below it that the CPU can run.
  EXPECT_EQ(dense::force_isa_for_testing(simd::Isa::kScalar),
            simd::Isa::kScalar);
  // AVX2 is the widest dense build; an AVX-512 request runs it.
  const simd::Isa widest = dense::force_isa_for_testing(simd::Isa::kAvx512);
  EXPECT_LE(widest, simd::Isa::kAvx2);
  EXPECT_LE(widest, simd::cpu_best());
  dense::force_isa_for_testing(simd::requested());
}

}  // namespace
}  // namespace dlcomp
