/// \file ops_avx2.cpp
/// AVX2 build of the dense kernels (ops_kernels.inl), the widest one
/// (DESIGN.md "Dense kernels" says why there is no AVX-512 build).
/// Compiled with -mavx2 -ffp-contract=off (see CMakeLists.txt); dispatch
/// in ops.cpp only selects it after cpuid confirms AVX2.

#include "tensor/ops_dispatch.hpp"

#if defined(__AVX2__)

#include "tensor/ops_kernels.inl"

namespace dlcomp::dense::detail {
const DenseOps* avx2_ops() noexcept { return &kOps; }
}  // namespace dlcomp::dense::detail

#else

namespace dlcomp::dense::detail {
const DenseOps* avx2_ops() noexcept { return nullptr; }
}  // namespace dlcomp::dense::detail

#endif
