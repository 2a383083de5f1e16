"""Arithmetic of the benchmark: percentiles, open-loop accounting, failure
ratios and layer coverage. Pure functions over raw measurements, so the
rules are unit-tested (perfbench/test_perfstats.py) apart from any run.
"""

import math
import statistics

# Percentiles considered for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated p-th percentile (0..100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(n, ceiling=99.0):
    """The highest percentile, at most `ceiling`, with at least MIN_BEYOND
    of n samples beyond it; None when even the median lacks them."""
    for p in TAIL_LADDER:
        if p <= ceiling and n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return None


def tail(values, ceiling=99.0):
    """(percentile used, its value, n) under the tail rule. Falls back to
    the maximum when the sample is too small for any percentile."""
    n = len(values)
    p = supported_percentile(n, ceiling)
    if p is None:
        return (100.0, max(values), n)
    return (p, percentile(values, p), n)


def query_latencies(q_arrival, q_batch, batch_end, batch_status):
    """Open-loop latency of each query, timed from when it was due (its
    arrival) to the end of the batch that served it. A query whose batch
    raised or never started has no latency (None): it missed any limit."""
    out = []
    for arrival, b in zip(q_arrival, q_batch):
        b = int(b)
        out.append(batch_end[b] - arrival if batch_status[b] == 1 else None)
    return out


def generator_lateness(due, sent):
    """How late the generator released each batch it released (sent - due);
    a large value means the open loop itself stalled. A sent stamp of 0
    marks a batch never released."""
    return [s - d for d, s in zip(due, sent) if s > 0.0]


def queue_waits(due, start):
    """Time from a batch's due time to the moment a replica started it.
    A start stamp of 0 marks a batch no replica started; it is skipped."""
    return [s - d for d, s in zip(due, start) if s > 0.0]


def classify_queries(latencies, limit_s):
    """Counts of (served within the limit, late, failed-or-unserved)."""
    ok = late = missing = 0
    for lat in latencies:
        if lat is None:
            missing += 1
        elif lat > limit_s:
            late += 1
        else:
            ok += 1
    return ok, late, missing


def failure_ratio(attempted, failed):
    """Share of attempted operations that failed; 1.0 when nothing ran."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def layer_coverage(layer_series, wall_series):
    """Median over steps of (sum of the layers' self-times) / step wall.

    `layer_series` maps layer name -> per-step seconds; `wall_series` is the
    per-step wall time. The layers are disjoint spans, so each one's self
    time is its duration, and the remainder is untimed glue.
    """
    ratios = []
    for i, wall in enumerate(wall_series):
        if wall <= 0.0:
            continue
        covered = sum(series[i] for series in layer_series.values())
        ratios.append(covered / wall)
    if not ratios:
        raise ValueError("no step with a positive wall time")
    return statistics.median(ratios)


def overhead_pct(traced, untraced):
    """Tracing overhead: traced median against untraced median, in %."""
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
