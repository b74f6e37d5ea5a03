"""Planner benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 benchmarks/run.py --workload plan-tabular --seed 17 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one process each
    python3 benchmarks/run.py --check-reference       # the pinned 16k-run output digest

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, plus sample counts and outcome counts.
The exit code is 1 when an output check fails.  Full results (and, traced,
every span) are written under ``benchmarks/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import metrics
import tracing
import workloads as wl

SETUP_REPEATS = 9
#: A window is at least this long; the calibration probe runs between windows.
WINDOW_S = 0.05
#: Timings are rescaled to a host on which one calibration probe takes this
#: long, close to the fastest it ran on the reference host (see README).
PROBE_REF_NS = 700_000
PROBE_REPEATS = 3
#: Spans kept in memory for the spans file; later passes are only reduced.
SPAN_BUDGET = 200_000
OUT_DIR = wl.BENCH_DIR / "out"


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


# --- calibration ------------------------------------------------------------


def _probe_once() -> int:
    """ns for a fixed piece of work made only of the standard library and
    numpy, in the proportions the workloads use them: dict and list
    updates, blake2b keys, Philox generators with one draw each, and a
    sorted ``json.dumps``.  It slows down as the workloads do while another
    tenant of the host shares the core, and no change to ``restoragent``
    changes its cost."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(4000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    rows = []
    for i in range(24):
        h = hashlib.blake2b(digest_size=16)
        h.update(i.to_bytes(16, "little"))
        h.update(b"s" + str(i).encode())
        digest = h.digest()
        key = (int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little"))
        x = np.random.Generator(np.random.Philox(key=key)).random()
        rows.append({"i": i, "x": x, "tags": [str(i), "a", "b"], "nested": {"k": 2 * i, "v": (i, x)}})
    text = json.dumps(rows, sort_keys=True)
    groups = {}
    for row in rows:
        groups.setdefault(row["i"] & 7, []).append(dict(row, size=len(text)))
    return time.perf_counter_ns() - start


def calibration_probe() -> int:
    """The fastest of PROBE_REPEATS probes, in ns."""
    return min(_probe_once() for _ in range(PROBE_REPEATS))


def pin_to_one_cpu() -> None:
    """Run on one CPU, the one the probe finds fastest now, so that the probe,
    the passes and the set-up children (which inherit the affinity) share it."""
    cpus = sorted(os.sched_getaffinity(0))
    timed = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timed.append((calibration_probe(), cpu))
    os.sched_setaffinity(0, {min(timed)[1]})


# --- set-up time ------------------------------------------------------------


def setup_probe(name: str):
    """Child process: time the import of ``restoragent``, the construction
    of the workload and its warm-up, between two calibration probes.  numpy
    is imported first and untimed: it is a dependency, its import is most
    of a fresh process's start and most of its noise, and no change to the
    package moves it (this module imports it)."""
    before = calibration_probe()
    start = time.perf_counter()
    wl.setup(name)
    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr((before + calibration_probe()) / 2))


def measure_setup(name: str) -> tuple:
    """(s, probe ns) of one set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up of {name} failed:\n{proc.stderr.strip()}")
    seconds, probe = proc.stdout.split()[-2:]
    return float(seconds), float(probe)


# --- runs -------------------------------------------------------------------


class Run:
    """Book-keeping shared by the untraced and the traced run."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None  # PassResult of pass 0
        self.passes = 0
        # untraced: one metrics.Window per window, the raw per-op times in ns,
        # and (set-up s, probe ns) per set-up
        self.windows, self.samples, self.setups = [], None, []
        # traced: per-layer metrics, span count, traced ops, spans kept
        self.layer, self.spans, self.traced_ops, self.kept = {}, 0, 0, []
        self.outside = {}  # traced: tracing cost per span outside it, ns

    def record(self, result):
        self.attempted += result.ops
        self.failed += result.failed
        self.problems.extend(result.problems)
        if self.first is None:
            self.first = result
            self.check_digest(result.digest)

    def check_digest(self, digest: str):
        """At the default seed pass 0 must reproduce the pinned digest."""
        if self.seed != wl.DEFAULT_SEED:
            return
        pinned = wl.load_reference()["digests"].get(self.workload.name)
        if digest != pinned:
            self.problems.append(f"pass-0 digest {digest} != pinned {pinned}")
            self.failed += self.first.ops - self.first.failed

    def fail_all(self, problem: str):
        self.problems.append(problem)
        self.failed = self.attempted


def untraced(workload, seed: int, seconds: float):
    """Windows of passes until ``seconds`` have elapsed; times every
    workflow run.  A window is at least WINDOW_S of passes; the calibration
    probe runs before and after it, and the window's probe is the mean of
    the two.  SETUP_REPEATS set-ups are timed between windows at even
    intervals; each set-up child probes before and after itself."""
    cpus = sorted(os.sched_getaffinity(0))
    pin_to_one_cpu()
    try:
        return _untraced(workload, seed, seconds)
    finally:
        os.sched_setaffinity(0, cpus)


def _untraced(workload, seed: int, seconds: float):
    run = Run(workload, seed)
    samples = array.array("d")  # ns per op
    is_plan = isinstance(workload, wl.PlanWorkload)
    with tracing.Patch() as patch:
        if is_plan:
            patch.add("restoragent.harness.run_workflow",
                      lambda fn: tracing.timing_wrapper(fn, samples))
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        probe = calibration_probe()
        while index == 0 or time.perf_counter() < deadline:
            if time.perf_counter() >= started + len(run.setups) * seconds / SETUP_REPEATS:
                run.setups.append(measure_setup(workload.name))
                probe = calibration_probe()
            opened = time.perf_counter()
            first, ops, elapsed_ns = len(samples), 0, 0
            while index == 0 or time.perf_counter() - opened < WINDOW_S:
                before = len(samples)
                result = workload.run_pass(seed, index)
                if is_plan and len(samples) - before != result.ops:
                    result.problems.append(
                        f"pass {index}: {len(samples) - before} timed workflow runs, "
                        f"{result.ops} attempted")
                    result.failed = result.ops
                if not is_plan:
                    samples.append(result.elapsed_ns / result.ops)
                ops += result.ops
                elapsed_ns += result.elapsed_ns
                run.record(result)
                index += 1
            after = calibration_probe()
            run.windows.append(metrics.Window((probe + after) / 2, ops, elapsed_ns, first, len(samples)))
            probe = after
        while len(run.setups) < SETUP_REPEATS:
            run.setups.append(measure_setup(workload.name))
    run.passes = index
    run.samples = samples
    return run


def _post_substream(generator, tracer):
    tracer.counters["rng.generators"] += 1
    return tracing.CountingGenerator(generator, tracer)


def _post_retrieve(retrieval, tracer):
    tracer.counters["knowledge.retrievals"] += 1
    tracer.counters["knowledge.record_hits"] += bool(retrieval.records)
    return retrieval


def _post_execute_subtask(outcome, tracer):
    tracer.counters["execution.subtasks"] += 1
    tracer.counters["execution.accepted"] += outcome.status.value == "success"
    tracer.counters["execution.invocations"] += outcome.invocations
    return outcome


POST_HOOKS = {
    "rng.substream": _post_substream,
    "knowledge.retrieve": _post_retrieve,
    "execution.execute_subtask": _post_execute_subtask,
}


def traced(workload, seed: int, seconds: float):
    """Pairs of passes on the same inputs, untraced then traced, until
    ``seconds`` have elapsed.  The traced pass must reproduce the digest.
    Each traced pass has its own tracer, reduced into per-layer totals right
    after it; the spans of the first passes, up to SPAN_BUDGET, are kept
    and written out at the end."""
    run = Run(workload, seed)
    outside = tracing.outside_cost_ns()
    totals = metrics.LayerTotals(wl.LAYERS, outside)
    kept, kept_spans = [], 0
    plain_ns = traced_ns = traced_ops = 0
    outcomes = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        plain = workload.run_pass(seed, index)
        run.record(plain)
        tracer = tracing.Tracer()
        with tracing.Patch() as patch:
            for span, dotted, _ in wl.TRACED:
                patch.add(dotted, lambda fn, span=span: tracing.span_wrapper(
                    fn, tracer, span, POST_HOOKS.get(span), span in wl.OP_ROOTS))
            result = workload.run_pass(seed, index)
        if result.digest != plain.digest:
            result.problems.append(f"pass {index}: traced digest {result.digest} != untraced {plain.digest}")
            result.failed = result.ops
        run.record(result)
        totals.add(tracer)
        if index == 0 or kept_spans + len(tracer) <= SPAN_BUDGET:
            kept.append((index, tracer))
            kept_spans += len(tracer)
        plain_ns += plain.elapsed_ns
        traced_ns += result.elapsed_ns
        traced_ops += result.ops
        for group, cell in result.outcomes.items():
            total = outcomes.setdefault(group, {})
            for key, value in cell.items():
                total[key] = total.get(key, 0) + value
        index += 1

    layer = totals.metrics(traced_ops)
    is_plan = isinstance(workload, wl.PlanWorkload)
    layer.update(metrics.search_metrics(outcomes if is_plan else {}))
    layer["trace.overhead"] = traced_ns / plain_ns - 1
    for span, _, works_in in wl.TRACED:
        if workload.name in works_in and not totals.span_counts[span]:
            run.fail_all(f"unmeasured: {span} was never called on {workload.name}")
    if not totals.span_counts[tracing.DRAW_SPAN]:
        run.fail_all(f"unmeasured: no rng draw on {workload.name}")
    roots = sum(totals.span_counts[name] for name in wl.OP_ROOTS)
    expected_roots = traced_ops if is_plan else index
    if roots != expected_roots:
        run.fail_all(f"{roots} traced operations, expected {expected_roots}")
    run.passes = index
    run.traced_ops = traced_ops
    run.layer = layer
    run.spans = sum(totals.span_counts.values())
    run.kept = kept
    run.outside = outside
    return run


# --- reporting --------------------------------------------------------------


def end_to_end(run, scaled: list) -> dict:
    """Times rescaled by the probe beside them (see metrics.rescale)."""
    return {
        "setup_s": (statistics.median(metrics.rescale(s, p, PROBE_REF_NS) for s, p in run.setups), "s"),
        "runs_per_s": (metrics.rescaled_rate(run.windows, PROBE_REF_NS), "1/s"),
        "run_us.p50": (metrics.percentile(scaled, 50) / 1e3, "us"),
        "run_us.p99": (metrics.percentile(scaled, 99) / 1e3, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_UNITS = {
    "calls_per_op": "count", "self_us_per_op": "us", "self_share": "fraction",
    "draws_per_op": "count", "assess_per_op": "count", "serialize_us_per_op": "us",
    "invocations_per_subtask": "count", "nodes_per_run": "count", "rollbacks_per_run": "count",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.split(".", 1)[1], "fraction")


def describe_outcomes(run) -> list:
    lines = []
    for group, cell in sorted(run.first.outcomes.items()):
        if "runs" in cell:
            runs = cell["runs"]
            lines.append(
                f"  group {group}: {runs} runs, success {cell['success']}, compromise "
                f"{cell['compromise']}, error {cell['error']}, mean invocations "
                f"{cell['invocations'] / runs:.4f}, mean rollbacks {cell['rollbacks'] / runs:.4f}")
        else:
            lines.append("  group {}: {}".format(
                group, ", ".join(f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
                                 for k, v in cell.items())))
    return lines


def report(args, run, values: dict, extra: list) -> dict:
    correct = not run.problems and run.failed == 0
    op = "workflow run" if isinstance(run.workload, wl.PlanWorkload) else "exploration trial"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {run.passes}  operations {run.attempted} ({op}s)")
    for name, (value, unit) in values.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    for line in extra:
        print(line)
    print(f"outcome counts, pass 0 (seed {args.seed}, deterministic):")
    for line in describe_outcomes(run):
        print(line)
    print(f"error_rate {run.failed} / {run.attempted} = {metrics.ratio(run.failed, run.attempted):.6g}")
    pinned = "checked against reference.json" if args.seed == wl.DEFAULT_SEED else "not pinned at this seed"
    print(f"pass-0 digest {run.first.digest} ({pinned})")
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": max(run.failed, 0 if correct else 1),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def run_workload(args) -> int:
    workload_name = args.workload
    workload = wl.setup(workload_name)
    if args.trace:
        run = traced(workload, args.seed, args.seconds)
        values = {name: (value, layer_unit(name)) for name, value in run.layer.items()}
        extra = [f"  {run.spans} spans over {run.traced_ops} traced operations "
                 f"({sum(len(t) for _, t in run.kept)} written out); "
                 f"trace.overhead = traced / untraced wall time - 1",
                 "  self time excludes the tracing cost outside each child span, charged off its "
                 "parent: {:.0f} ns per span, {:.0f} ns per rng draw".format(
                     run.outside["span"], run.outside[tracing.DRAW_SPAN])]
    else:
        run = untraced(workload, args.seed, args.seconds)
        scaled = metrics.rescaled_samples(run.windows, run.samples, PROBE_REF_NS)
        values = end_to_end(run, scaled)
        n = len(scaled)
        tail = metrics.tail_percentile(n)
        raw = sorted(run.samples)
        all_ops = sum(w.ops for w in run.windows)
        all_s = sum(w.elapsed_ns for w in run.windows) / 1e9
        probes = [w.probe_ns for w in run.windows]
        extra = [f"  times are rescaled to a calibration probe of {PROBE_REF_NS / 1e3:g} us; this run's "
                 f"probe: median {statistics.median(probes) / 1e3:.1f} us, range "
                 f"{min(probes) / 1e3:.1f}-{max(probes) / 1e3:.1f} us over {len(run.windows)} windows",
                 f"  as measured, not rescaled: runs_per_s {all_ops / all_s:.6g}, run_us.p50 "
                 f"{metrics.percentile(raw, 50) / 1e3:.6g}, run_us.p99 {metrics.percentile(raw, 99) / 1e3:.6g}, "
                 f"setup_s {statistics.median(s for s, _ in run.setups):.6g}",
                 f"  setup_s is the median of {SETUP_REPEATS} set-ups, each in a fresh process "
                 "(s as measured, probe us): "
                 + ", ".join(f"{s:.4f} ({p / 1e3:.0f})" for s, p in run.setups),
                 f"  run_us samples: n = {n}; p99 has {metrics.samples_beyond(n, 99)} beyond"]
        if tail is not None:
            extra.append(f"  tail rule: p{tail:g} = {metrics.percentile(scaled, tail) / 1e3:.6g} us "
                         f"({metrics.samples_beyond(n, tail)} of {n} samples beyond)")
        if metrics.samples_beyond(n, 99) < metrics.MIN_BEYOND:
            run.fail_all(f"only {n} latency samples: p99 needs {metrics.MIN_BEYOND} beyond it")
    result = report(args, run, values, extra)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{args.seed}-trace{args.trace}"
    details = dict(result, workload=workload_name, seed=args.seed, seconds=args.seconds,
                   passes=run.passes, digest_pass0=run.first.digest,
                   outcomes_pass0=run.first.outcomes, problems=run.problems,
                   windows=[window[:3] for window in run.windows],
                   setups=run.setups)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("pass\tname\tstart_ns\tend_ns\tparent\trun\n")
            for index, tracer in run.kept:
                tracer.write(fh, index)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchmarkError(f"{name} exited with {proc.returncode} and no result")
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def check_reference() -> int:
    pinned = wl.load_reference()["reference_digest"]
    digest = wl.reference_digest()
    print(f"reference digest {digest}")
    print(f"pinned           {pinned}")
    print("MATCH" if digest == pinned else "MISMATCH")
    return 0 if digest == pinned else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-reference", action="store_true",
                        help="recompute the pinned 16k-run digest and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload)
            return 0
        if args.check_reference:
            return check_reference()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchmarkError, LookupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
