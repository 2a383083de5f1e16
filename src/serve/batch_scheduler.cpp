#include "serve/batch_scheduler.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/error.hpp"

namespace dlcomp {

namespace {

/// plan()'s coalescing of the admitted queries into dispatch-order batches.
std::vector<InferenceBatch> coalesce(const BatchSchedulerConfig& config,
                                     std::span<const Query> queries) {
  std::vector<InferenceBatch> batches;

  InferenceBatch pending;
  std::size_t pending_samples = 0;

  const auto flush = [&](double dispatch_s) {
    pending.dispatch_s = dispatch_s;
    batches.push_back(std::move(pending));
    pending = InferenceBatch{};
    pending_samples = 0;
  };

  double prev_arrival = 0.0;
  for (const Query& q : queries) {
    DLCOMP_CHECK_MSG(q.arrival_s >= prev_arrival,
                     "queries must be sorted by arrival_s");
    // Fail fast here, on the caller's thread: an empty query would later
    // produce a zero-sample batch that throws inside a pool worker.
    DLCOMP_CHECK_MSG(q.num_samples > 0, "query " << q.id << " has 0 samples");
    prev_arrival = q.arrival_s;

    // Deadline flush: the oldest pending query cannot wait until this
    // arrival, so the batch went out when its delay budget expired.
    if (!pending.queries.empty()) {
      const double deadline =
          pending.queries.front().arrival_s + config.max_delay_s;
      if (q.arrival_s > deadline) flush(deadline);
    }

    // Capacity flush: adding q would blow the sample budget, so the
    // pending batch goes out now (at q's arrival, which is still within
    // the oldest query's deadline because the check above passed).
    if (!pending.queries.empty() &&
        pending_samples + q.num_samples > config.max_batch_samples) {
      flush(q.arrival_s);
    }

    pending.queries.push_back(q);
    pending_samples += q.num_samples;

    // A single query at or above the budget ships immediately.
    if (pending_samples >= config.max_batch_samples) {
      flush(q.arrival_s);
    }
  }

  if (!pending.queries.empty()) {
    flush(pending.queries.front().arrival_s + config.max_delay_s);
  }
  return batches;
}

}  // namespace

BatchScheduler::BatchScheduler(BatchSchedulerConfig config) : config_(config) {
  DLCOMP_CHECK(config_.max_batch_samples > 0);
  DLCOMP_CHECK(config_.max_delay_s >= 0.0);
  DLCOMP_CHECK(config_.slo_s >= 0.0);
  DLCOMP_CHECK(config_.est_service_per_sample_s >= 0.0);
  DLCOMP_CHECK(config_.est_batch_overhead_s >= 0.0);
  DLCOMP_CHECK(config_.modeled_servers > 0);
}

SchedulePlan BatchScheduler::plan(std::span<const Query> queries) const {
  SchedulePlan out;
  if (config_.slo_s <= 0.0) {
    out.batches = coalesce(config_, queries);
    return out;
  }

  // Admission: walk the stream against a modeled backlog (min-heap of
  // per-server free times). A query whose estimated completion blows the
  // SLO is shed and leaves the backlog untouched.
  std::vector<Query> admitted;
  admitted.reserve(queries.size());
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at(
      std::greater<>{}, std::vector<double>(config_.modeled_servers, 0.0));
  for (const Query& q : queries) {
    const double cost =
        config_.est_batch_overhead_s +
        static_cast<double>(q.num_samples) * config_.est_service_per_sample_s;
    const double start = std::max(q.arrival_s, free_at.top());
    const double done = start + cost;
    if (done - q.arrival_s > config_.slo_s) {
      out.shed.push_back(q);
      continue;
    }
    free_at.pop();
    free_at.push(done);
    admitted.push_back(q);
  }

  out.batches = coalesce(config_, admitted);
  return out;
}

}  // namespace dlcomp
