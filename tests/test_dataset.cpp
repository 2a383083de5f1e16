// Tests for dataset specs and the synthetic click-log generator.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "data/dataset_spec.hpp"
#include "data/synthetic.hpp"

namespace dlcomp {
namespace {

TEST(DatasetSpec, KaggleShape) {
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like();
  EXPECT_EQ(spec.num_tables(), 26u);
  EXPECT_EQ(spec.num_dense, 13u);
  EXPECT_EQ(spec.embedding_dim, 32u);
  EXPECT_EQ(spec.default_batch, 128u);
  // Known published cardinalities survive (below the cap).
  EXPECT_EQ(spec.tables[0].cardinality, 1460u);
  EXPECT_EQ(spec.tables[8].cardinality, 3u);
  // Large tables are capped.
  EXPECT_EQ(spec.tables[2].cardinality, 100000u);
}

TEST(DatasetSpec, TerabyteShape) {
  const DatasetSpec spec = DatasetSpec::criteo_terabyte_like();
  EXPECT_EQ(spec.num_tables(), 26u);
  EXPECT_EQ(spec.embedding_dim, 64u);
  EXPECT_EQ(spec.default_batch, 2048u);
}

TEST(DatasetSpec, CapIsRespected) {
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like(500);
  for (const auto& t : spec.tables) {
    EXPECT_LE(t.cardinality, 500u);
  }
}

TEST(DatasetSpec, TablesHaveDiverseSkew) {
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like();
  std::set<double> exponents;
  for (const auto& t : spec.tables) exponents.insert(t.zipf_exponent);
  EXPECT_GT(exponents.size(), 5u);
}

TEST(DatasetSpec, SmallProxyShape) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(8, 16);
  EXPECT_EQ(spec.num_tables(), 8u);
  EXPECT_EQ(spec.embedding_dim, 16u);
  for (const auto& t : spec.tables) {
    EXPECT_LE(t.cardinality, 5000u);
  }
}

TEST(Synthetic, BatchShapesMatchSpec) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(5, 8);
  const SyntheticClickDataset data(spec, 42);
  const SampleBatch batch = data.make_batch(64, 0);
  EXPECT_EQ(batch.batch_size(), 64u);
  EXPECT_EQ(batch.dense.rows(), 64u);
  EXPECT_EQ(batch.dense.cols(), 13u);
  EXPECT_EQ(batch.indices.size(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    EXPECT_EQ(batch.indices[t].size(), 64u);
    for (const auto idx : batch.indices[t]) {
      EXPECT_LT(idx, spec.tables[t].cardinality);
    }
  }
  for (const float y : batch.labels) {
    EXPECT_TRUE(y == 0.0f || y == 1.0f);
  }
}

TEST(Synthetic, DeterministicBatches) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset a(spec, 7);
  const SyntheticClickDataset b(spec, 7);
  const SampleBatch ba = a.make_batch(32, 5);
  const SampleBatch bb = b.make_batch(32, 5);
  EXPECT_EQ(ba.labels, bb.labels);
  EXPECT_EQ(ba.indices, bb.indices);
  for (std::size_t i = 0; i < ba.dense.size(); ++i) {
    ASSERT_EQ(ba.dense.flat()[i], bb.dense.flat()[i]);
  }
}

TEST(Synthetic, DistinctBatchesDiffer) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset data(spec, 7);
  const SampleBatch b0 = data.make_batch(32, 0);
  const SampleBatch b1 = data.make_batch(32, 1);
  EXPECT_NE(b0.indices, b1.indices);
}

TEST(Synthetic, EvalStreamSeparateFromTrain) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(4, 8);
  const SyntheticClickDataset data(spec, 7);
  const SampleBatch train = data.make_batch(32, 0);
  const SampleBatch eval = data.make_eval_batch(32, 0);
  EXPECT_NE(train.indices, eval.indices);
}

TEST(Synthetic, BothLabelClassesPresent) {
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 11);
  int positives = 0;
  int total = 0;
  for (int b = 0; b < 8; ++b) {
    const SampleBatch batch = data.make_batch(128, b);
    for (const float y : batch.labels) {
      positives += y > 0.5f ? 1 : 0;
      ++total;
    }
  }
  const double rate = static_cast<double>(positives) / total;
  EXPECT_GT(rate, 0.1);
  EXPECT_LT(rate, 0.9);
}

TEST(Synthetic, LabelsCorrelateWithTeacher) {
  // Labels must be learnable: the teacher's own logit should predict them
  // far better than chance.
  const DatasetSpec spec = DatasetSpec::small_training_proxy(6, 8);
  const SyntheticClickDataset data(spec, 13);
  int correct = 0;
  int total = 0;
  for (int bi = 0; bi < 4; ++bi) {
    const SampleBatch batch = data.make_batch(256, bi);
    for (std::size_t b = 0; b < batch.batch_size(); ++b) {
      // The teacher's sparse contribution is 1/sqrt(T)-scaled inside the
      // generator; mirror that so this predictor sees the full signal.
      double logit = 0.0;
      for (std::size_t t = 0; t < spec.num_tables(); ++t) {
        logit += data.teacher_weight(t, batch.indices[t][b]);
      }
      logit /= std::sqrt(static_cast<double>(spec.num_tables()));
      const bool prediction = logit > 0.3;  // offset the generator's bias
      if (prediction == (batch.labels[b] > 0.5f)) ++correct;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.55);
}

TEST(Synthetic, SkewedTablesRepeatIndices) {
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like();
  const SyntheticClickDataset data(spec, 17);
  const SampleBatch batch = data.make_batch(128, 0);

  // Table 0 (cardinality 1460, high skew) must show heavy repetition,
  // mirroring the paper's Table III pattern counts.
  std::set<std::uint32_t> unique_t0(batch.indices[0].begin(),
                                    batch.indices[0].end());
  EXPECT_LT(unique_t0.size(), 70u);

  // Table 2 (capped 100k, low skew) stays nearly repetition-free.
  std::set<std::uint32_t> unique_t2(batch.indices[2].begin(),
                                    batch.indices[2].end());
  EXPECT_GT(unique_t2.size(), 110u);
}

// Generator golden: pinned CRC32s of one batch's dense features, indices
// and labels. Any change to the generator that moves a single byte of a
// batch (and so every loss history built on it) fails here. The indices
// CRC runs over the tables in order.
struct BatchCrcs {
  std::uint32_t dense;
  std::uint32_t indices;
  std::uint32_t labels;
};

BatchCrcs batch_crcs(const SampleBatch& batch) {
  std::uint32_t indices = crc32_init();
  for (const auto& column : batch.indices) {
    indices = crc32_update(indices,
                           std::as_bytes(std::span<const std::uint32_t>(column)));
  }
  return {crc32(std::as_bytes(batch.dense.flat())), crc32_final(indices),
          crc32(std::as_bytes(std::span<const float>(batch.labels)))};
}

void expect_crcs(const SampleBatch& batch, const BatchCrcs& want) {
  const BatchCrcs got = batch_crcs(batch);
  EXPECT_EQ(got.dense, want.dense);
  EXPECT_EQ(got.indices, want.indices);
  EXPECT_EQ(got.labels, want.labels);
}

TEST(SyntheticGolden, KaggleBatchBytes) {
  // The benchmark's training spec, seed and global batch; kFar is an
  // index from the window that benchmark seed 3 reads.
  const SyntheticClickDataset data(DatasetSpec::criteo_kaggle_like(20000), 1);
  constexpr std::uint64_t kFar = 3 * 1000003ULL + 5;
  expect_crcs(data.make_batch(1024, 0),
              {0xF46F745Eu, 0x85541BDDu, 0x2697AEA2u});
  expect_crcs(data.make_batch(1024, kFar),
              {0x9988C1F1u, 0x420C8DCCu, 0x81C25E7Bu});
  expect_crcs(data.make_eval_batch(1024, kFar),
              {0x314386B1u, 0x32F525AAu, 0x58C7F83Du});
}

TEST(SyntheticGolden, SmallProxyBatchBytes) {
  const SyntheticClickDataset data(DatasetSpec::small_training_proxy(), 42);
  expect_crcs(data.make_batch(256, 7),
              {0x72A39BE9u, 0xD2A6E390u, 0x1AC5835Cu});
  expect_crcs(data.make_eval_batch(256, 7),
              {0xAF775E6Fu, 0x9A84F17Du, 0xE62A121Fu});
}

TEST(SyntheticGolden, TeacherWeightIsForkedNormal) {
  constexpr std::uint64_t kSeed = 5;
  const DatasetSpec spec = DatasetSpec::criteo_kaggle_like(20000);
  const SyntheticClickDataset data(spec, kSeed);
  const Rng base(kSeed);
  for (std::size_t t = 0; t < spec.num_tables(); ++t) {
    const auto card = static_cast<std::uint32_t>(spec.tables[t].cardinality);
    for (const std::uint32_t row : {0u, card / 3, card / 2, card - 1}) {
      const float want =
          static_cast<float>(base.fork({0x44, t, row}).normal(0.0, 0.6));
      ASSERT_EQ(data.teacher_weight(t, row), want) << t << ' ' << row;
    }
  }
}

}  // namespace
}  // namespace dlcomp
