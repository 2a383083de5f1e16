#pragma once

/// \file synthetic.hpp
/// Synthetic click-log generator. Produces mini-batches shaped like the
/// Criteo datasets -- dense features, per-table Zipf-skewed categorical
/// indices, and click labels drawn from a hidden "teacher" model so the
/// DLRM substrate has real signal to learn (training loss decreases and
/// accuracy climbs, which the paper's accuracy-delta experiments need).
///
/// Generation is stateless/deterministic: batch `i` of a dataset with
/// seed `s` is identical across runs, ranks and call orders.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "data/batch_source.hpp"
#include "data/dataset_spec.hpp"
#include "data/zipf.hpp"
#include "tensor/matrix.hpp"

namespace dlcomp {

class SyntheticClickDataset : public BatchSource {
 public:
  SyntheticClickDataset(DatasetSpec spec, std::uint64_t seed);

  [[nodiscard]] const DatasetSpec& spec() const noexcept override {
    return spec_;
  }

  /// Generates batch number `batch_index` with `batch_size` samples.
  /// Deterministic in (seed, batch_index, batch_size).
  [[nodiscard]] SampleBatch make_batch(std::size_t batch_size,
                                       std::uint64_t batch_index) const override;

  /// Held-out evaluation batch stream (separate seed space from training).
  [[nodiscard]] SampleBatch make_eval_batch(
      std::size_t batch_size, std::uint64_t batch_index) const override;

  /// The teacher's per-row latent weight for (table, row); exposed so
  /// tests can verify labels are actually learnable. `row` must be below
  /// the table's cardinality.
  [[nodiscard]] float teacher_weight(std::size_t table,
                                     std::uint32_t row) const {
    return teacher_[table][row];
  }

 private:
  [[nodiscard]] SampleBatch generate(std::size_t batch_size, Rng rng) const;

  DatasetSpec spec_;
  std::uint64_t seed_;
  Rng base_rng_;
  std::vector<ZipfSampler> samplers_;
  std::vector<float> dense_teacher_;  ///< teacher weights for dense features
  /// teacher_[t][row]: the latent weight of each row, drawn once here
  /// rather than per lookup.
  std::vector<std::vector<float>> teacher_;
};

}  // namespace dlcomp
