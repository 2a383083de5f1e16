#pragma once

/// \file inference_engine.hpp
/// Forward-only DLRM scoring engine for the serving path. Exact serving
/// reads the model's own tables; compressed serving installs a
/// ShardedEmbeddingStore (use_store), whose pages are compressed at rest
/// with an error-bounded codec and which keeps the byte and error
/// accounting. A one-shard, zero-cache store decodes on every lookup.
///
/// An engine is NOT thread-safe (the model keeps forward caches); the
/// ServingSimulator runs one engine replica per worker.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "dlrm/model.hpp"
#include "serve/router.hpp"

namespace dlcomp {

struct EngineConfig {
  /// Checkpoint file (`.dlck`, chain tail allowed) to load trained model
  /// weights from; empty serves the seed-initialized model. Shapes must
  /// match the engine's DatasetSpec/DlrmConfig.
  std::string checkpoint_path;
};

class InferenceEngine {
 public:
  /// Builds the model (weights deterministic in `seed`, so every replica
  /// constructed with the same arguments scores identically). When
  /// `config.checkpoint_path` is set the initial weights are replaced by
  /// the checkpoint's (delta chains are replayed), so a fleet serves the
  /// trained model a HybridParallelTrainer persisted.
  InferenceEngine(const DatasetSpec& spec, const DlrmConfig& model_config,
                  EngineConfig config, std::uint64_t seed);

  /// Scores a batch: per-sample click probabilities.
  std::vector<float> run(const SampleBatch& batch);

  /// Serves embeddings from a sharded store instead of the model's own
  /// tables: installs a private ShardRouter over `store` as the model's
  /// LookupProvider. Pass null to restore table-local serving. The store
  /// must outlive the engine and may be shared by many engines (it locks
  /// per shard).
  void use_store(ShardedEmbeddingStore* store);

  [[nodiscard]] bool sharded() const noexcept { return router_ != nullptr; }

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] DlrmModel& model() noexcept { return model_; }

 private:
  EngineConfig config_;
  DlrmModel model_;
  std::unique_ptr<ShardRouter> router_;  ///< set by use_store(); engine-private
};

}  // namespace dlcomp
