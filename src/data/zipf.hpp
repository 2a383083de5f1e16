#pragma once

/// \file zipf.hpp
/// Zipf-distributed index sampling: the synthetic stand-in for the
/// "unbalanced queries" phenomenon the paper's vector-LZ encoder exploits
/// (hot embedding rows recur within a batch). Exponent 0 degenerates to
/// uniform sampling.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace dlcomp {

/// Samples ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s, then
/// maps ranks through a fixed permutation so popularity is not correlated
/// with index order (as in real hash-bucketed categorical features).
///
/// A draw inverts the CDF: the rank is the first k with cdf[k] >= u. A
/// guide table (Chen-Asau indexed search) narrows that search to the
/// ranks whose CDF values straddle u's bucket, so a draw costs a few
/// comparisons instead of a binary search over all n ranks, and returns
/// exactly the rank the full search would.
class ZipfSampler {
 public:
  /// Guide-table buckets. A power of two, so `u * kGuide` and
  /// `g / kGuide` are exact in double precision.
  static constexpr std::size_t kGuide = 4096;

  /// `permute_seed` fixes the rank->index mapping; the same seed always
  /// yields the same popularity assignment.
  ZipfSampler(std::size_t n, double exponent, std::uint64_t permute_seed);

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

  /// Draws one index using the caller's generator.
  [[nodiscard]] std::uint32_t sample(Rng& rng) const {
    return index_for(rng.next_double());
  }

  /// The index a uniform draw `u` in [0, 1) maps to.
  [[nodiscard]] std::uint32_t index_for(double u) const noexcept;

  /// Probability mass of the most popular item (diagnostic).
  [[nodiscard]] double top_probability() const noexcept;

 private:
  double exponent_;
  std::vector<double> cdf_;            // cumulative over ranks
  std::vector<std::uint32_t> permute_;  // rank -> index
  // guide_[g] = first rank with cdf >= g / kGuide, for g in [0, kGuide].
  std::vector<std::uint32_t> guide_;
};

}  // namespace dlcomp
