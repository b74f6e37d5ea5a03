"""Batch workflow runner and report assembly for the CLI."""

from __future__ import annotations

import operator
import time

from .core import (
    LOW,
    VERY_LOW,
    DegradationCombination,
    DegradationProfile,
    builtin_combinations,
    combinations_in_group,
    degradations_named,
    initial_profile,
)
from .envsim import Environment, env_from_dict, env_to_dict
from .execution import adapters_for
from .knowledge import KnowledgeBase
from .perception import evaluator_from_model
from .scheduling import ExperienceScheduler, RandomScheduler
from .search import WorkflowDeps, run_workflow

RUN_MODES = ("full", "no-reflection", "no-rollback", "no-retrieval", "strict-threshold")


def make_deps(env: Environment, kb: KnowledgeBase | None, mode: str, evaluator) -> WorkflowDeps:
    if mode not in RUN_MODES:
        raise ValueError(f"unknown run mode: {mode!r} (expected one of {RUN_MODES})")
    if mode == "no-retrieval":
        scheduler = RandomScheduler()
    else:
        scheduler = ExperienceScheduler(kb)
    return WorkflowDeps(
        scheduler=scheduler,
        evaluator=evaluator,
        tools=adapters_for(env),
        accept_candidate=VERY_LOW if mode == "strict-threshold" else LOW,
        use_reflection=mode != "no-reflection",
        use_rollback=mode != "no-rollback",
    )


def run_success(profile: DegradationProfile) -> bool:
    """Ground-truth success: no degradation left at presence level."""
    return not profile.present()


def _run_combination(args):
    """One combination's runs; returns (traces, wall-clock seconds)."""
    deps, mode, combo, runs, seed = args
    traces = []
    started = time.perf_counter()
    label = combo.label()
    for run in range(runs):
        profile = initial_profile(combo, run)
        final, trace = run_workflow(profile, deps, seed, run_key=(mode, label, run))
        trace["combination"] = label
        trace["mode"] = mode
        trace["run"] = run
        trace["true_success"] = run_success(final)
        traces.append(trace)
    return traces, time.perf_counter() - started


def run_batch(
    env: Environment,
    kb: KnowledgeBase | None,
    mode: str,
    combinations,
    runs: int,
    seed: int,
    evaluator_model: dict | None = None,
    jobs: int = 1,
):
    """Executes the batch; returns (report, traces_by_combination, timings).

    The environment makes one JSON round trip, so the batch runs it exactly
    as its config would load it; the evaluator and the deps are built once
    and every combination shares them (pickled to the workers when
    ``jobs > 1``).
    """
    seed = operator.index(seed)  # a float or str seed is a TypeError, even with no runs
    combinations = list(combinations)
    evaluator = evaluator_from_model(evaluator_model)
    deps = make_deps(env_from_dict(env_to_dict(env)), kb, mode, evaluator)
    tasks = [(deps, mode, combo, runs, seed) for combo in combinations]
    if jobs > 1 and len(tasks) > 1:
        # Imported here: the process pool costs every importer ~10 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_combination, tasks))
    else:
        results = [_run_combination(t) for t in tasks]

    traces, timings = {}, {}
    for combo, (combo_traces, wall_clock) in zip(combinations, results):
        traces[combo.label()] = combo_traces
        timings[combo.label()] = wall_clock / runs if runs else 0.0
    group_of = {combo.label(): combo.group for combo in combinations}
    report = {
        "mode": mode,
        "seed": seed,
        "runs_per_combination": runs,
        **report_cells(traces, group_of),
    }
    return report, traces, timings


def _rates(traces) -> dict:
    runs = len(traces)
    if not runs:
        return {"success_rate": 0.0, "mean_invocations": 0.0, "mean_rollbacks": 0.0}
    return {
        "success_rate": sum(t["true_success"] for t in traces) / runs,
        "mean_invocations": sum(t["counters"]["invocations"] for t in traces) / runs,
        "mean_rollbacks": sum(t["counters"]["rollbacks"] for t in traces) / runs,
    }


def report_cells(traces_by_combination: dict, group_of: dict) -> dict:
    """A report's ``groups`` and ``combinations`` cells, from traces alone.

    There is one combination cell per label of ``group_of`` (label ->
    group); a label without traces gets a zero-run cell.  A group cell
    pools the traces of every combination in the group.
    """
    members = {}
    combinations = {}
    for label, group in sorted(group_of.items()):
        traces = traces_by_combination.get(label, [])
        members.setdefault(group, []).extend(traces)
        combinations[label] = {"group": group, "runs": len(traces), **_rates(traces)}
    groups = {group: _rates(traces) for group, traces in sorted(members.items())}
    return {"groups": groups, "combinations": combinations}


def recompute_report(report: dict, traces_by_combination: dict) -> dict:
    """The report's combination cells (``group``, ``runs``, ``success_rate``,
    ``mean_invocations``, ``mean_rollbacks``) rebuilt from raw traces, for
    every label in the report."""
    group_of = {label: cell["group"] for label, cell in report["combinations"].items()}
    return report_cells(traces_by_combination, group_of)["combinations"]


def parse_combinations(spec) -> list:
    """Accepts "all", a group name, or explicit degradation-name lists; a
    list that is empty or repeats a degradation is a ValueError."""
    if spec in (None, "all"):
        return builtin_combinations()
    if isinstance(spec, str):
        if spec.upper() in ("A", "B", "C"):
            return combinations_in_group(spec.upper())
        if spec.lower().startswith("group-"):
            return combinations_in_group(spec.split("-", 1)[1].upper())
        raise ValueError(f"unknown combination spec: {spec!r}")
    builtin = {c.key: c for c in builtin_combinations()}
    combos = [DegradationCombination("custom", degradations_named(names, f"combinations[{k}]"))
              for k, names in enumerate(spec)]
    return [builtin.get(c.key, c) for c in combos]
