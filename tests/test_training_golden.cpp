// Cross-commit training golden: a short sim-backend run must reproduce
// the wire CRC, every recorded train loss and the final eval loss bit for
// bit. The constants were recorded before the dense kernels (MLP GEMMs,
// dot interaction) were vectorized, so any change to a kernel's
// accumulation order, an FMA slipping in, or a codec stream drift fails
// here, on every SIMD tier (CI reruns this binary under each
// DLCOMP_SIMD value).
//
// gcc-only, like the committed codec stream CRCs: another compiler may
// legally round the same source differently. Builds that let the
// compiler contract a*b+c into FMAs (e.g. -march=native) are skipped.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace dlcomp {
namespace {

struct Golden {
  const char* codec;
  std::uint32_t wire_crc32;
  std::vector<std::uint64_t> train_loss_bits;
  std::uint64_t final_eval_loss_bits;
};

TrainingResult run(const std::string& codec) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy();
  const SyntheticClickDataset data(spec, 3);
  TrainerConfig config;
  config.world = 2;
  config.iterations = 8;
  config.record_every = 1;
  config.compression.codec = codec;
  HybridParallelTrainer trainer(config);
  return trainer.train(data);
}

void expect_golden(const Golden& golden) {
#if !defined(__GNUC__) || defined(__clang__)
  GTEST_SKIP() << "golden constants are gcc's rounding contract";
#elif defined(__FMA__)
  GTEST_SKIP() << "FMA contraction enabled: rounding differs from the golden";
#endif
  const TrainingResult result = run(golden.codec);
  EXPECT_EQ(result.wire_crc32, golden.wire_crc32);
  ASSERT_EQ(result.history.size(), golden.train_loss_bits.size());
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.history[i].train_loss),
              golden.train_loss_bits[i])
        << "iteration " << i << " train_loss " << result.history[i].train_loss
        << " bits 0x" << std::hex
        << std::bit_cast<std::uint64_t>(result.history[i].train_loss);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.final_eval.loss),
            golden.final_eval_loss_bits)
      << "final_eval.loss " << result.final_eval.loss << " bits 0x"
      << std::hex << std::bit_cast<std::uint64_t>(result.final_eval.loss);
}

TEST(TrainingGolden, UncompressedRun) {
  expect_golden({"",
                 1535664397u,
                 {0x3fe63c18e1a87a45,
                  0x3fe571f7e7259204,
                  0x3fe4fd4cb09a1279,
                  0x3fe40820576438cd,
                  0x3fe3193692d67c6f,
                  0x3fe302423caec0dc,
                  0x3fe382a044ec0444,
                  0x3fe3103dd1651338},
                 0x3fe25953ece8828c});
}

TEST(TrainingGolden, HybridCodecRun) {
  expect_golden({"hybrid",
                 189189187u,
                 {0x3fe63977c779af6c,
                  0x3fe56f865cd2b26c,
                  0x3fe4f874fcabe8e4,
                  0x3fe4083812e9e18a,
                  0x3fe319673711b0b6,
                  0x3fe3030e3e15f3a4,
                  0x3fe384a0db39ac53,
                  0x3fe309468575b2a9},
                 0x3fe2593a0005cfc7});
}

}  // namespace
}  // namespace dlcomp
