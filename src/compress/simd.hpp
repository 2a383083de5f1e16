#pragma once

/// \file simd.hpp
/// Runtime ISA selection for the codec hot-path kernels. The library
/// ships scalar, AVX2 and AVX-512 builds of the fused quantize / Lorenzo
/// loops in separate translation units (each compiled with exactly the
/// target flags it needs); one cpuid probe at first use picks the widest
/// variant the host supports, and the `DLCOMP_SIMD` environment variable
/// (`scalar` | `avx2` | `avx512`) clamps the choice downward for A/B
/// testing and the CI byte-identity matrix. Requests above what the CPU
/// supports are clamped to the best available level, never trusted.
///
/// Every variant produces byte-identical streams (see kernels.hpp and
/// DESIGN.md "Parallel framing and SIMD dispatch"); selection is a pure
/// performance decision, which is why clamping silently is safe.

#include <atomic>
#include <string_view>

namespace dlcomp::simd {

/// Kernel instruction-set tiers, ordered: higher value = wider vectors.
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  ///< requires F+BW+DQ+VL (the skylake-server baseline)
};

/// Widest tier the running CPU supports (cpuid; cached after first call).
[[nodiscard]] Isa cpu_best() noexcept;

/// cpu_best() clamped by the `DLCOMP_SIMD` override, resolved once per
/// process. This is the *request*; the kernels may still step down a tier
/// when a variant was not compiled in (kernels::dispatched_isa() reports
/// the codec kernels' tier actually running).
[[nodiscard]] Isa requested() noexcept;

/// "scalar" | "avx2" | "avx512".
[[nodiscard]] std::string_view isa_name(Isa isa) noexcept;

/// One runtime-dispatched kernel table, shared by the codec kernels and
/// the dense kernels. `ops_for(isa)` returns the table built for `isa`,
/// or nullptr when this binary does not carry that build; the kScalar
/// table must always exist. The first active() call selects
/// requested(), stepped down one tier at a time past missing builds.
/// The tables are immutable statics, so publishing the pointer is all
/// the synchronization a kernel call needs.
template <class Ops>
class Dispatch {
 public:
  using OpsFor = const Ops* (*)(Isa) noexcept;
  /// Told the tier every time select() installs a table.
  using OnSelect = void (*)(Isa);

  constexpr explicit Dispatch(OpsFor ops_for,
                              OnSelect on_select = nullptr) noexcept
      : ops_for_(ops_for), on_select_(on_select) {}

  const Ops& active() noexcept {
    const Ops* ops = ops_.load(std::memory_order_acquire);
    if (ops != nullptr) [[likely]] {
      return *ops;
    }
    select(requested());
    return *ops_.load(std::memory_order_acquire);
  }

  /// Tier of the table active() returns.
  [[nodiscard]] Isa isa() noexcept {
    active();
    return static_cast<Isa>(isa_.load(std::memory_order_relaxed));
  }

  /// Installs the widest build at or below `isa` and returns its tier.
  /// Not safe against kernel calls in flight on other threads.
  Isa select(Isa isa) noexcept {
    const Ops* ops = ops_for_(isa);
    while (ops == nullptr) {
      isa = static_cast<Isa>(static_cast<int>(isa) - 1);
      ops = ops_for_(isa);
    }
    isa_.store(static_cast<int>(isa), std::memory_order_relaxed);
    ops_.store(ops, std::memory_order_release);
    if (on_select_ != nullptr) on_select_(isa);
    return isa;
  }

 private:
  OpsFor ops_for_;
  OnSelect on_select_;
  std::atomic<const Ops*> ops_{nullptr};
  std::atomic<int> isa_{-1};
};

}  // namespace dlcomp::simd
