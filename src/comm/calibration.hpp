#pragma once

/// \file calibration.hpp
/// Fits SimClock's NetworkModel link parameters to *measured* transport
/// timings. The model's p2p/all-to-all cost is affine in the bottleneck
/// wire volume: seconds = latency + bytes / bandwidth. Measuring real
/// TCP exchanges at several sizes and least-squares fitting that line
/// recovers (latency, bandwidth) for the machine under test; applying
/// them to a NetworkModel makes the simulator predict the measured
/// fabric instead of the paper's 4 GB/s Slingshot default.

#include <cstdint>
#include <span>

#include "comm/network_model.hpp"

namespace dlcomp {

/// One measured collective: the bottleneck per-rank wire volume the
/// NetworkModel would be charged for, and the measured wall seconds.
struct CalibrationSample {
  std::uint64_t wire_bytes = 0;
  double seconds = 0.0;
};

/// Fitted alpha-beta link parameters.
struct LinkCalibration {
  double latency_seconds = 0.0;
  double bandwidth_bytes_per_second = 0.0;
  /// max over samples of |predicted - measured| / measured.
  double max_rel_error = 0.0;

  /// Copy of `base` with the fitted link parameters substituted (the
  /// allreduce bandwidth is left alone -- it models a different link).
  [[nodiscard]] NetworkModel apply(const NetworkModel& base) const {
    NetworkModel out = base;
    out.latency_seconds = latency_seconds;
    out.bandwidth_bytes_per_second = bandwidth_bytes_per_second;
    return out;
  }
};

/// Ordinary least squares of seconds on bytes over `samples` (needs >= 2
/// distinct sizes). When the fitted intercept is negative (a negative
/// latency is measurement noise, not physics), the latency is 0 and the
/// slope is refit through the origin (sum xy / sum xx). The slope must be
/// positive -- throws dlcomp::Error otherwise. `max_rel_error` is measured
/// against the returned line.
[[nodiscard]] LinkCalibration fit_link_parameters(
    std::span<const CalibrationSample> samples);

}  // namespace dlcomp
