"""Batch workflow runner and report assembly for the CLI."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import (
    DegradationCombination,
    DegradationProfile,
    Severity,
    builtin_combinations,
)
from .envsim import Environment, env_from_dict
from .execution import ExecutionPolicy, ToolOrder, adapters_for
from .knowledge import KnowledgeBase
from .perception import NoiseModel, NoisyOracle, PerfectOracle
from .scheduling import ExperienceScheduler, RandomScheduler
from .search import WorkflowDeps, run_workflow

RUN_MODES = ("full", "no-reflection", "no-rollback", "no-retrieval", "strict-threshold")


def make_deps(
    env: Environment,
    kb: KnowledgeBase | None,
    mode: str,
    evaluator=None,
    tool_order: ToolOrder = ToolOrder.SEEDED_SHUFFLE,
) -> WorkflowDeps:
    if mode not in RUN_MODES:
        raise ValueError(f"unknown run mode: {mode!r} (expected one of {RUN_MODES})")
    evaluator = evaluator or PerfectOracle()
    policy = ExecutionPolicy(tool_order=tool_order)
    if mode == "strict-threshold":
        policy = policy.strict()
    if mode == "no-retrieval":
        scheduler = RandomScheduler()
    else:
        scheduler = ExperienceScheduler(kb)
    return WorkflowDeps(
        scheduler=scheduler,
        evaluator=evaluator,
        tools=adapters_for(env),
        policy=policy,
        use_reflection=mode != "no-reflection",
        use_rollback=mode not in ("no-rollback", "no-reflection"),
    )


def initial_profile(combo: DegradationCombination, run: int,
                    severity: Severity = Severity.HIGH) -> DegradationProfile:
    return DegradationProfile(
        {d: severity for d in combo.degradations}, (), f"{combo.label()}#{run}"
    )


def run_success(profile: DegradationProfile) -> bool:
    """Ground-truth success: no degradation left at presence level."""
    return not profile.present()


@dataclass
class CombinationResult:
    combo: DegradationCombination
    traces: list
    successes: int
    invocations: int
    rollbacks: int
    wall_clock: float


def _run_combination(args):
    env_data, kb, mode, combo, runs, seed = args
    env = env_from_dict(env_data["env"])
    evaluator = PerfectOracle()
    if env_data.get("evaluator"):
        evaluator = NoisyOracle(NoiseModel.from_dict(env_data["evaluator"]))
    deps = make_deps(env, kb, mode, evaluator)
    traces, successes, invocations, rollbacks = [], 0, 0, 0
    started = time.perf_counter()
    for run in range(runs):
        profile = initial_profile(combo, run)
        final, trace = run_workflow(profile, deps, seed, run_key=(mode, combo.label(), run))
        trace_dict = trace.to_dict()
        trace_dict["combination"] = combo.label()
        trace_dict["mode"] = mode
        trace_dict["run"] = run
        trace_dict["true_success"] = run_success(final)
        traces.append(trace_dict)
        successes += run_success(final)
        invocations += trace.counters.invocations
        rollbacks += trace.counters.rollbacks
    wall = time.perf_counter() - started
    return CombinationResult(combo, traces, successes, invocations, rollbacks, wall)


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
    """Executes the batch; returns (report, traces_by_combination, timings)."""
    from .envsim import env_to_dict

    env_data = {"env": env_to_dict(env), "evaluator": evaluator_model}
    tasks = [(env_data, kb, mode, combo, runs, seed) for combo in combinations]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_combination, tasks))
    else:
        results = [_run_combination(t) for t in tasks]

    per_combination = {}
    groups = {}
    traces = {}
    timings = {}
    for res in results:
        label = res.combo.label()
        traces[label] = res.traces
        timings[label] = res.wall_clock / runs if runs else 0.0
        per_combination[label] = {
            "group": res.combo.group,
            "runs": runs,
            "success_rate": res.successes / runs if runs else 0.0,
            "mean_invocations": res.invocations / runs if runs else 0.0,
            "mean_rollbacks": res.rollbacks / runs if runs else 0.0,
        }
        g = groups.setdefault(
            res.combo.group, {"runs": 0, "successes": 0, "invocations": 0, "rollbacks": 0}
        )
        g["runs"] += runs
        g["successes"] += res.successes
        g["invocations"] += res.invocations
        g["rollbacks"] += res.rollbacks
    report = {
        "mode": mode,
        "seed": seed,
        "runs_per_combination": runs,
        "groups": {
            group: {
                "success_rate": g["successes"] / g["runs"] if g["runs"] else 0.0,
                "mean_invocations": g["invocations"] / g["runs"] if g["runs"] else 0.0,
                "mean_rollbacks": g["rollbacks"] / g["runs"] if g["runs"] else 0.0,
            }
            for group, g in sorted(groups.items())
        },
        "combinations": dict(sorted(per_combination.items())),
    }
    return report, traces, timings


def recompute_report(report: dict, traces_by_combination: dict) -> dict:
    """Rebuild the per-combination aggregates from raw traces."""
    rebuilt = {}
    for label, traces in traces_by_combination.items():
        runs = len(traces)
        rebuilt[label] = {
            "runs": runs,
            "success_rate": sum(t["true_success"] for t in traces) / runs if runs else 0.0,
            "mean_invocations": sum(t["counters"]["invocations"] for t in traces) / runs
            if runs
            else 0.0,
            "mean_rollbacks": sum(t["counters"]["rollbacks"] for t in traces) / runs
            if runs
            else 0.0,
        }
    return rebuilt


def parse_combinations(spec) -> list:
    """Accepts "all", a group name, or explicit degradation-name lists."""
    from .core import Degradation, combinations_in_group

    if spec in (None, "all"):
        return builtin_combinations()
    if isinstance(spec, str):
        if spec.upper() in ("A", "B", "C"):
            return combinations_in_group(spec.upper())
        if spec.lower().startswith("group-"):
            return combinations_in_group(spec.split("-", 1)[1].upper())
        raise ValueError(f"unknown combination spec: {spec!r}")
    combos = []
    for names in spec:
        degradations = tuple(Degradation(n) for n in names)
        builtin = {c.key: c for c in builtin_combinations()}
        key = frozenset(degradations)
        if key in builtin:
            combos.append(builtin[key])
        else:
            combos.append(DegradationCombination("custom", degradations))
    return combos
