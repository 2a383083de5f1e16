#pragma once

// Serving workload: the sharded compressed store behind three engine
// replicas, driven by an open-loop Poisson generator.

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Untraced: set-up repeated, then warm-up, fixed-rate and capacity
/// phases sharing `seconds`, then the correctness checks. `seed` picks the
/// query stream and the pre-generated batches. The fleet serves the
/// model restored from `checkpoint` (see write_serving_checkpoint).
JsonValue measure_serve(std::uint64_t seed, double seconds,
                        const std::string& checkpoint);

/// Traced: an untraced and a traced fixed-rate phase (gathers timed
/// through a wrapping lookup provider), plus the page codec probe.
JsonValue trace_serve(std::uint64_t seed, double seconds,
                      const std::string& checkpoint);

}  // namespace perfbench
