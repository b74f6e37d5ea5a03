"""Percentiles and the per-layer metrics computed from traced passes."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import NamedTuple

from tracing import DRAW_SPAN, Tracer, self_times

#: Percentiles the tail rule may pick from.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # rounding first keeps 99.9 % of 10 000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(sorted_samples, p: float):
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_samples:
        raise ValueError("percentile of no samples")
    return sorted_samples[_rank(len(sorted_samples), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank position of percentile ``p``."""
    return n - _rank(n, p)


def tail_percentile(n: int):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


class Window(NamedTuple):
    """Passes timed back to back between two calibration probes."""

    probe_ns: float  # mean of the probes before and after
    ops: int
    elapsed_ns: int  # wall time of the timed regions
    first: int  # the window's latency samples are samples[first:end]
    end: int


def rescale(ns: float, probe_ns: float, ref_ns: float) -> float:
    """A time measured next to a probe of ``probe_ns``, as it would read on
    a host where the probe takes ``ref_ns``."""
    return ns * ref_ns / probe_ns


def rescaled_rate(windows, ref_ns: float) -> float:
    """Median over windows of operations per rescaled second."""
    return statistics.median(
        w.ops * 1e9 / rescale(w.elapsed_ns, w.probe_ns, ref_ns) for w in windows)


def rescaled_samples(windows, samples, ref_ns: float) -> list:
    """Every latency sample rescaled by its own window's probe, ascending."""
    return sorted(rescale(x, w.probe_ns, ref_ns) for w in windows for x in samples[w.first:w.end])


def ratio(numerator, denominator) -> float:
    """numerator / denominator, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


class LayerTotals:
    """Per-layer sums over traced passes, reduced one pass's tracer at a time
    so that a long run does not hold every span."""

    def __init__(self, layers, outside_ns=None):
        self.layers = tuple(layers)
        # tracing cost per span outside it, charged off its parent's self time
        self.outside_ns = outside_ns or {}
        self.calls = Counter()
        self.busy_ns = Counter()
        self.span_counts = Counter()
        self.span_ns = Counter()
        self.counters = Counter()
        self.root_ns = 0

    def add(self, tracer: Tracer):
        charged = None
        if self.outside_ns:
            per_name = [self.outside_ns.get(name, self.outside_ns.get("span", 0.0)) for name in tracer.names]
            charged = [per_name[nid] for nid in tracer.name_of]
        self_ns = self_times(tracer.starts, tracer.ends, tracer.parents, charged)
        for i, nid in enumerate(tracer.name_of):
            name = tracer.names[nid]
            layer = name.split(".", 1)[0]
            duration = tracer.ends[i] - tracer.starts[i]
            self.calls[layer] += 1
            self.busy_ns[layer] += self_ns[i]
            self.span_counts[name] += 1
            self.span_ns[name] += duration
            if tracer.parents[i] < 0:
                self.root_ns += duration
        self.counters.update(tracer.counters)

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, normalised by ``ops`` operations."""
        out = {}
        for layer in self.layers:
            out[f"{layer}.calls_per_op"] = ratio(self.calls[layer], ops)
            out[f"{layer}.self_us_per_op"] = ratio(self.busy_ns[layer] / 1e3, ops)
            out[f"{layer}.self_share"] = ratio(self.busy_ns[layer], self.root_ns)
        spans, counters = self.span_counts, self.counters
        out["rng.draws_per_op"] = ratio(spans[DRAW_SPAN], ops)
        out["rng.drawn_ratio"] = ratio(counters["rng.generators_drawn"], counters["rng.generators"])
        out["perception.assess_per_op"] = ratio(
            spans["perception.PerfectOracle.assess"] + spans["perception.NoisyOracle.assess"], ops)
        out["scheduling.record_hit_ratio"] = ratio(
            counters["knowledge.record_hits"], counters["knowledge.retrievals"])
        out["execution.accept_ratio"] = ratio(counters["execution.accepted"], counters["execution.subtasks"])
        out["execution.invocations_per_subtask"] = ratio(
            counters["execution.invocations"], counters["execution.subtasks"])
        out["harness.serialize_us_per_op"] = ratio(self.span_ns["harness.serialize"] / 1e3, ops)
        return out


def search_metrics(outcomes: dict) -> dict:
    """Deterministic search counts from the traces of plan passes."""
    runs = sum(cell.get("runs", 0) for cell in outcomes.values())
    total = {key: sum(cell.get(key, 0) for cell in outcomes.values())
             for key in ("nodes", "rollbacks", "compromise", "invocations", "useful_invocations")}
    return {
        "search.nodes_per_run": ratio(total["nodes"], runs),
        "search.rollbacks_per_run": ratio(total["rollbacks"], runs),
        "search.useful_invocation_ratio": ratio(total["useful_invocations"], total["invocations"]),
        "search.compromise_share": ratio(total["compromise"], runs),
    }
