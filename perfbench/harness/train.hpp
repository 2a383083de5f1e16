#pragma once

// Training workloads: world=4 hybrid-parallel DLRM over the TCP backend.

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct TrainSpec {
  /// true: the paper's dual-level setting (offline analysis bounds and
  /// codec choices, stepwise decay, hybrid codec); false: codec none.
  bool hybrid = true;
  /// Seeds the synthetic click stream (the workload input).
  std::uint64_t data_seed = 1;
  /// Training iterations per launch (the fixed step count of eval_loss).
  std::size_t iterations = 64;
};

/// Untraced measurement: repeated train() launches until `seconds` pass,
/// then the sim-backend reference run. Returns raw timestamps and results.
JsonValue measure_train(const TrainSpec& spec, double seconds);

/// Traced measurement: alternates untraced train() launches with the
/// per-call replay of the same iteration until `seconds` pass, then the
/// sim-backend reference run. Also runs the comm and codec probes on the
/// replay's mesh and chunks.
JsonValue trace_train(const TrainSpec& spec, double seconds);

/// Trains the train-hybrid configuration on the sim backend (fixed data
/// window, so the model does not depend on the benchmark seed) and saves
/// it, losslessly, under `directory`. Returns the checkpoint's path: the
/// model the serving workload serves.
std::string write_serving_checkpoint(const std::string& directory);

}  // namespace perfbench
