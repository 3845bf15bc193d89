"""Arithmetic of the benchmark: percentiles, ratios, span self times and
open-loop latencies. Kept apart from run.py so test_stats.py can pin it on
fixed synthetic inputs."""

import math
import statistics

# Percentile levels a tail is reported at, highest first.
TAIL_LEVELS = (99.0, 95.0, 90.0)
# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, level):
    """Nearest-rank percentile: the smallest sample with at least `level`
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(level / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_level(count, levels=TAIL_LEVELS, min_beyond=MIN_BEYOND):
    """The highest level with at least `min_beyond` of `count` samples
    beyond it, or None when even the lowest level has fewer."""
    for level in levels:
        # Round so that e.g. 1000 samples give exactly 10 beyond p99.
        if round(count * (100.0 - level) / 100.0, 9) >= min_beyond:
            return level
    return None


def tail(values):
    """(label, value) of the tail: the highest percentile with enough
    samples beyond it, or the maximum when there are too few samples."""
    level = tail_level(len(values))
    if level is None:
        return "max", max(values)
    return "p%g" % level, percentile(values, level)


def fastest(values, rounds):
    """Each unit's fastest of `rounds` timings. `values` holds one timing of
    every unit per round, round after round. A stall of the shared host
    slows some rounds of a unit; a slower program slows all of them."""
    if rounds < 1 or len(values) % rounds:
        raise ValueError("%d timings do not make %d rounds" % (len(values),
                                                               rounds))
    units = len(values) // rounds
    return [min(values[r * units + u] for r in range(rounds))
            for u in range(units)]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(part, base):
    """part / base, 0 when the base is empty (e.g. no nodes, no requests)."""
    return part / base if base else 0.0


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= a:
            continue
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. `spans` are (name, parent, group, start,
    end) tuples; parent is an index into `spans` or -1."""
    children = [[] for _ in spans]
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append((span[3], span[4]))
    return [
        (span[4] - span[3]) - covered_length(children[i], span[3], span[4])
        for i, span in enumerate(spans)
    ]


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_times(spans):
    """Summed self time per layer (name prefix before the first dot)."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def durations(spans, name):
    return [span[4] - span[3] for span in spans if span[0] == name]


def open_loop(due, sent, done):
    """Per-request latency measured from the due time, and how late the
    generator sent each request. A request that could only be sent late
    carries that delay in its latency."""
    latency = [d - u for u, d in zip(due, done)]
    lag = [s - u for u, s in zip(due, sent)]
    return latency, lag
