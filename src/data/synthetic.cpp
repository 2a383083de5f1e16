#include "data/synthetic.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dlcomp {

namespace {

constexpr std::uint64_t kDenseTag = 0x11;
constexpr std::uint64_t kIndexTag = 0x22;
constexpr std::uint64_t kLabelTag = 0x33;
constexpr std::uint64_t kTeacherTag = 0x44;
constexpr std::uint64_t kTrainStream = 0x1000;
constexpr std::uint64_t kEvalStream = 0x2000;

}  // namespace

SyntheticClickDataset::SyntheticClickDataset(DatasetSpec spec,
                                             std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), base_rng_(seed) {
  DLCOMP_CHECK(!spec_.tables.empty());
  samplers_.reserve(spec_.tables.size());
  teacher_.resize(spec_.tables.size());
  for (std::size_t t = 0; t < spec_.tables.size(); ++t) {
    const auto& table = spec_.tables[t];
    samplers_.emplace_back(table.cardinality, table.zipf_exponent,
                           base_rng_.fork({0x51, t}).next_u64());
    // Each row's weight comes from its own fork, so the table holds the
    // same values a per-lookup draw would.
    teacher_[t].resize(table.cardinality);
    for (std::size_t row = 0; row < table.cardinality; ++row) {
      teacher_[t][row] = static_cast<float>(
          base_rng_.fork({kTeacherTag, t, row}).normal(0.0, 0.6));
    }
  }
  Rng dense_rng = base_rng_.fork({kTeacherTag, 0xDE});
  dense_teacher_.resize(spec_.num_dense);
  for (auto& w : dense_teacher_) {
    w = static_cast<float>(dense_rng.normal(0.0, 0.5));
  }
}

SampleBatch SyntheticClickDataset::make_batch(std::size_t batch_size,
                                              std::uint64_t batch_index) const {
  return generate(batch_size, base_rng_.fork({kTrainStream, batch_index}));
}

SampleBatch SyntheticClickDataset::make_eval_batch(
    std::size_t batch_size, std::uint64_t batch_index) const {
  return generate(batch_size, base_rng_.fork({kEvalStream, batch_index}));
}

SampleBatch SyntheticClickDataset::generate(std::size_t batch_size,
                                            Rng rng) const {
  DLCOMP_CHECK(batch_size > 0);
  SampleBatch batch;
  batch.dense.resize(batch_size, spec_.num_dense);
  batch.indices.assign(spec_.tables.size(), {});
  batch.labels.resize(batch_size);

  Rng dense_rng = rng.fork({kDenseTag});
  Rng index_rng = rng.fork({kIndexTag});
  Rng label_rng = rng.fork({kLabelTag});

  // Dense features: log-normal-ish positives, like Criteo's count fields
  // after the standard log(1+x) transform.
  for (std::size_t b = 0; b < batch_size; ++b) {
    for (std::size_t f = 0; f < spec_.num_dense; ++f) {
      batch.dense(b, f) = static_cast<float>(
          std::log1p(std::abs(dense_rng.normal(0.0, 1.0))));
    }
  }

  for (std::size_t t = 0; t < spec_.tables.size(); ++t) {
    auto& column = batch.indices[t];
    column.resize(batch_size);
    for (std::size_t b = 0; b < batch_size; ++b) {
      column[b] = samplers_[t].sample(index_rng);
    }
  }

  // Teacher model: logistic regression over dense features plus one
  // latent weight per looked-up row. Noise keeps Bayes accuracy < 1.
  for (std::size_t b = 0; b < batch_size; ++b) {
    double logit = -0.3;  // mild negative bias: clicks are the rare class
    for (std::size_t f = 0; f < spec_.num_dense; ++f) {
      logit += dense_teacher_[f] * batch.dense(b, f);
    }
    double sparse_term = 0.0;
    for (std::size_t t = 0; t < spec_.tables.size(); ++t) {
      sparse_term += teacher_[t][batch.indices[t][b]];
    }
    logit += sparse_term / std::sqrt(static_cast<double>(spec_.tables.size()));
    logit += label_rng.normal(0.0, 0.35);
    const double p = 1.0 / (1.0 + std::exp(-logit));
    batch.labels[b] = label_rng.bernoulli(p) ? 1.0f : 0.0f;
  }
  return batch;
}

}  // namespace dlcomp
