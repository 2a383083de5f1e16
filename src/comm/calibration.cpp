#include "comm/calibration.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dlcomp {

LinkCalibration fit_link_parameters(
    std::span<const CalibrationSample> samples) {
  DLCOMP_CHECK_MSG(samples.size() >= 2,
                   "link calibration needs at least two samples");

  const double n = static_cast<double>(samples.size());
  double sum_x = 0.0;
  double sum_y = 0.0;
  double sum_xx = 0.0;
  double sum_xy = 0.0;
  for (const CalibrationSample& s : samples) {
    const auto x = static_cast<double>(s.wire_bytes);
    sum_x += x;
    sum_y += s.seconds;
    sum_xx += x * x;
    sum_xy += x * s.seconds;
  }
  const double mean_x = sum_x / n;
  const double mean_y = sum_y / n;

  double sxx = 0.0;
  double sxy = 0.0;
  for (const CalibrationSample& s : samples) {
    const double dx = static_cast<double>(s.wire_bytes) - mean_x;
    sxx += dx * dx;
    sxy += dx * (s.seconds - mean_y);
  }
  DLCOMP_CHECK_MSG(sxx > 0.0,
                   "link calibration needs at least two distinct sizes");

  double slope = sxy / sxx;  // seconds per byte
  DLCOMP_CHECK_MSG(slope > 0.0,
                   "link calibration fit has non-positive bandwidth slope"
                   " -- samples are not time-vs-bytes increasing");

  LinkCalibration fit;
  fit.latency_seconds = mean_y - slope * mean_x;
  if (fit.latency_seconds < 0.0) {
    // A negative latency is not physical (small messages beat the line on
    // a fast loopback path). Pin the intercept at zero and refit the
    // slope through the origin, so the reported line is the least-squares
    // fit under that constraint rather than the unconstrained slope.
    fit.latency_seconds = 0.0;
    slope = sum_xy / sum_xx;
    DLCOMP_CHECK_MSG(slope > 0.0,
                     "link calibration fit through the origin has"
                     " non-positive bandwidth slope");
  }
  fit.bandwidth_bytes_per_second = 1.0 / slope;

  for (const CalibrationSample& s : samples) {
    const double predicted =
        fit.latency_seconds + static_cast<double>(s.wire_bytes) * slope;
    if (s.seconds > 0.0) {
      fit.max_rel_error = std::max(
          fit.max_rel_error, std::abs(predicted - s.seconds) / s.seconds);
    }
  }
  return fit;
}

}  // namespace dlcomp
