// Tests for the Zipf sampler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "data/zipf.hpp"

namespace dlcomp {
namespace {

TEST(Zipf, SamplesInDomain) {
  ZipfSampler sampler(100, 1.1, 42);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(sampler.sample(rng), 100u);
  }
}

TEST(Zipf, DeterministicGivenSeeds) {
  ZipfSampler a(1000, 1.2, 7);
  ZipfSampler b(1000, 1.2, 7);
  Rng ra(3);
  Rng rb(3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.sample(ra), b.sample(rb));
  }
}

TEST(Zipf, ExponentZeroIsUniform) {
  ZipfSampler sampler(10, 0.0, 1);
  Rng rng(2);
  std::map<std::uint32_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  for (const auto& [idx, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / n, 0.1, 0.01) << idx;
  }
}

TEST(Zipf, HighExponentConcentratesMass) {
  ZipfSampler sampler(10000, 1.5, 1);
  Rng rng(3);
  std::map<std::uint32_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];

  // Top item should hold a large share; distinct values far fewer than n.
  int top = 0;
  for (const auto& [idx, count] : counts) top = std::max(top, count);
  EXPECT_GT(static_cast<double>(top) / n, 0.2);
  EXPECT_LT(counts.size(), 5000u);
}

TEST(Zipf, SkewOrdersUniqueCounts) {
  // Higher exponent -> fewer unique draws in a fixed-size batch. This is
  // exactly the per-table homogenization knob the generator relies on.
  Rng rng(4);
  auto unique_draws = [&](double s) {
    ZipfSampler sampler(5000, s, 9);
    std::set<std::uint32_t> seen;
    Rng local(11);
    for (int i = 0; i < 512; ++i) seen.insert(sampler.sample(local));
    return seen.size();
  };
  const auto u_low = unique_draws(0.4);
  const auto u_mid = unique_draws(1.0);
  const auto u_high = unique_draws(1.5);
  EXPECT_GT(u_low, u_mid);
  EXPECT_GT(u_mid, u_high);
}

TEST(Zipf, TopProbabilityMatchesExponent) {
  ZipfSampler flat(100, 0.0, 1);
  ZipfSampler steep(100, 2.0, 1);
  EXPECT_LT(flat.top_probability(), steep.top_probability());
}

TEST(Zipf, SingleItemDomain) {
  ZipfSampler sampler(1, 1.0, 5);
  Rng rng(6);
  EXPECT_EQ(sampler.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(sampler.top_probability(), 1.0);
}

// The guided search must return exactly the index a full-range search
// returns. The reference rebuilds the sampler's CDF and permutation the
// way its constructor does and searches the whole CDF.
TEST(Zipf, GuidedSearchMatchesFullSearch) {
  constexpr std::uint64_t kPermuteSeed = 17;
  for (const std::size_t n : {1u, 2u, 3u, 31u, 4096u, 20000u}) {
    for (const double s : {0.0, 0.55, 1.2, 2.0}) {
      const ZipfSampler sampler(n, s, kPermuteSeed);
      std::vector<double> cdf(n);
      double total = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf[k] = total;
      }
      for (auto& c : cdf) c /= total;
      cdf.back() = 1.0;
      std::vector<std::uint32_t> permute(n);
      std::iota(permute.begin(), permute.end(), 0u);
      Rng(kPermuteSeed).shuffle(std::span<std::uint32_t>(permute));
      auto reference = [&](double u) {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const auto rank = static_cast<std::size_t>(it - cdf.begin());
        return permute[std::min(rank, n - 1)];
      };

      std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
      for (std::size_t g = 0; g < ZipfSampler::kGuide; ++g) {
        probes.push_back(static_cast<double>(g) / ZipfSampler::kGuide);
      }
      for (const double c : cdf) {
        probes.push_back(c);
        probes.push_back(std::nextafter(c, 0.0));
        probes.push_back(std::nextafter(c, 1.0));
      }
      for (const double u : probes) {
        if (u >= 1.0) continue;  // outside next_double()'s range
        ASSERT_EQ(sampler.index_for(u), reference(u))
            << "n=" << n << " s=" << s << " u=" << u;
      }
    }
  }
}

TEST(Zipf, InvalidArgsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0, 1), Error);
  EXPECT_THROW(ZipfSampler(10, -0.5, 1), Error);
}

}  // namespace
}  // namespace dlcomp
