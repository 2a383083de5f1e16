#include "data/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace dlcomp {

ZipfSampler::ZipfSampler(std::size_t n, double exponent,
                         std::uint64_t permute_seed)
    : exponent_(exponent) {
  DLCOMP_CHECK_MSG(n > 0, "ZipfSampler needs a non-empty domain");
  DLCOMP_CHECK_MSG(exponent >= 0.0, "Zipf exponent must be non-negative");

  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding

  guide_.resize(kGuide + 1);
  for (std::size_t g = 0; g <= kGuide; ++g) {
    const double edge = static_cast<double>(g) / kGuide;
    guide_[g] = static_cast<std::uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), edge) - cdf_.begin());
  }

  permute_.resize(n);
  std::iota(permute_.begin(), permute_.end(), 0u);
  Rng perm_rng(permute_seed);
  perm_rng.shuffle(std::span<std::uint32_t>(permute_));
}

std::uint32_t ZipfSampler::index_for(double u) const noexcept {
  // u lies in [g, g + 1) / kGuide, and the first rank with cdf >= u is
  // monotone in u, so it lies in [guide_[g], guide_[g + 1]]. That rank is
  // at most guide_[kGuide] <= n - 1, because cdf_.back() == 1.0.
  const auto g = static_cast<std::size_t>(u * kGuide);
  const auto it = std::lower_bound(cdf_.begin() + guide_[g],
                                   cdf_.begin() + guide_[g + 1], u);
  return permute_[static_cast<std::size_t>(it - cdf_.begin())];
}

double ZipfSampler::top_probability() const noexcept {
  return cdf_.empty() ? 0.0 : cdf_.front();
}

}  // namespace dlcomp
