"""The benchmark's workloads: set-up, one measured pass, and output checks.

Each workload runs in passes.  Pass ``i`` of a run with seed ``s`` uses the
program seed ``s + PASS_SEED_STRIDE * i``, so every pass gets fresh inputs
and pass 0 at the default seed has a digest pinned in ``reference.json``.
Only public functions of ``restoragent`` are called.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 17
PASS_SEED_STRIDE = 1_000_003

#: Run modes in the order the reference digest concatenates them.
ALL_MODES = ("full", "no-retrieval", "no-reflection", "no-rollback", "strict-threshold")

PLAN_TABULAR = "plan-tabular"
PLAN_MECHANISTIC_NOISY = "plan-mechanistic-noisy"
EXPLORE_TABULAR = "explore-tabular"
WORKLOADS = (PLAN_TABULAR, PLAN_MECHANISTIC_NOISY, EXPLORE_TABULAR)

#: Runs per (combination, mode) in one plan batch.
PLAN_RUNS = {PLAN_TABULAR: 5, PLAN_MECHANISTIC_NOISY: 4}
#: Trials per (combination, order) in one explore pass.
EXPLORE_TRIALS = 16

NOISY_P_MISS = 0.1
NOISY_P_FALSE = 0.05


def load_package():
    """Import ``restoragent`` from this checkout's ``src`` and nowhere else."""
    src = REPO_ROOT / "src"
    if not (src / "restoragent" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no restoragent package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import restoragent

    if Path(restoragent.__file__).resolve().parent != (src / "restoragent").resolve():
        raise SystemExit(f"benchmark: imported restoragent from {restoragent.__file__}, not {src}")


def pass_seed(seed: int, index: int) -> int:
    return seed + PASS_SEED_STRIDE * index


def serialize(report, traces) -> str:
    """The bytes ``restoragent run`` derives its outputs from, kept in memory."""
    return json.dumps([report, traces], sort_keys=True)


@dataclass
class PassResult:
    ops: int  # workflow runs (plan) or exploration trials (explore)
    elapsed_ns: int  # wall time of the timed region
    digest: str
    problems: list = field(default_factory=list)  # failed output checks
    failed: int = 0  # operations that errored or failed a check
    outcomes: dict = field(default_factory=dict)  # deterministic counts


# --- plan workloads ---------------------------------------------------------


@dataclass
class PlanWorkload:
    name: str
    env: object
    kb: object
    modes: tuple
    combinations: list
    runs: int
    evaluator_model: dict | None

    def __post_init__(self):
        self.group_of = {c.label(): c.group for c in self.combinations}

    @property
    def ops_per_pass(self) -> int:
        return len(self.modes) * len(self.combinations) * self.runs

    def run_pass(self, run_seed: int, index: int) -> PassResult:
        from restoragent.harness import run_batch

        seed = pass_seed(run_seed, index)
        digest = hashlib.sha256()
        result = PassResult(self.ops_per_pass, 0, "")
        for mode in self.modes:
            start = perf_counter_ns()
            try:
                report, traces, _ = run_batch(
                    self.env, self.kb, mode, self.combinations, self.runs, seed,
                    self.evaluator_model, 1,
                )
                blob = serialize(report, traces)
            except Exception:
                result.elapsed_ns += perf_counter_ns() - start
                result.problems.append(f"{mode}: run_batch raised\n{traceback.format_exc()}")
                result.failed += self.runs * len(self.combinations)
                continue
            result.elapsed_ns += perf_counter_ns() - start
            digest.update(blob.encode("utf-8"))
            check_batch(report, traces, self.runs, len(self.combinations), mode, result)
            count_outcomes(self.group_of, traces, result.outcomes)
        result.digest = digest.hexdigest()
        return result


def check_batch(report, traces, runs, n_combinations, mode, result: PassResult):
    """The ``verify`` rule plus shape checks; a failing batch fails all its runs."""
    from restoragent.harness import recompute_report

    problems = []
    cells = report.get("combinations", {})
    if len(cells) != n_combinations or set(cells) != set(traces):
        problems.append(f"{mode}: report cells do not match the trace groups")
    rebuilt = recompute_report(report, traces)
    for label, cell in cells.items():
        again = rebuilt.get(label, {})
        for key in ("runs", "success_rate", "mean_invocations", "mean_rollbacks"):
            if cell.get(key) != again.get(key):
                problems.append(f"{mode}/{label}: {key} {cell.get(key)!r} != recomputed {again.get(key)!r}")
        if cell.get("runs") != runs:
            problems.append(f"{mode}/{label}: {cell.get('runs')} runs, expected {runs}")
    errors = sum(t["status"] == "error" for group in traces.values() for t in group)
    if problems:
        result.problems.extend(problems)
        result.failed += runs * n_combinations
    else:
        result.failed += errors


def count_outcomes(group_of, traces, outcomes: dict):
    """Per group: success / compromise / error counts, invocations, rollbacks."""
    for label, group_traces in traces.items():
        cell = outcomes.setdefault(group_of.get(label, "?"), {
            "runs": 0, "success": 0, "compromise": 0, "error": 0,
            "invocations": 0, "rollbacks": 0, "nodes": 0, "useful_invocations": 0,
        })
        for trace in group_traces:
            cell["runs"] += 1
            cell[trace["status"]] += 1
            cell["invocations"] += trace["counters"]["invocations"]
            cell["rollbacks"] += trace["counters"]["rollbacks"]
            cell["nodes"] += trace["counters"]["nodes"]
            cell["useful_invocations"] += _accepted_invocations(trace["tree"])


def _accepted_invocations(nodes) -> int:
    return sum(
        (node["invocations"] if node.get("verdict") == "accepted" else 0)
        + _accepted_invocations(node.get("children", []))
        for node in nodes
    )


# --- explore workload -------------------------------------------------------


@dataclass
class ExploreWorkload:
    """Pass ``i`` explores group-A combination ``i mod 8``: one sample, both
    orders, EXPLORE_TRIALS trials per order.  Small passes give enough
    latency samples; EXPLORE_TRIALS trials share one (combination, order)."""

    name: str
    env: object
    combinations: list

    ops_per_pass = 2 * EXPLORE_TRIALS

    def run_pass(self, run_seed: int, index: int) -> PassResult:
        from restoragent.explore import ExplorationConfig, explore_and_build_kb
        from restoragent.knowledge import kb_to_dict
        from restoragent.perception import PerfectOracle

        config = ExplorationConfig(
            combinations=[self.combinations[index % len(self.combinations)]],
            samples_per_combination=1,
            trials_per_sample=EXPLORE_TRIALS,
            seed=pass_seed(run_seed, index),
        )
        start = perf_counter_ns()
        try:
            kb = explore_and_build_kb(self.env, config, PerfectOracle())
        except Exception:
            result = PassResult(self.ops_per_pass, perf_counter_ns() - start, "")
            result.problems.append(f"explore_and_build_kb raised\n{traceback.format_exc()}")
            result.failed = result.ops
            return result
        elapsed = perf_counter_ns() - start
        trials = sum(record.n_trials for record in kb.records)
        blob = json.dumps(kb_to_dict(kb), sort_keys=True) + f"\n{trials}"
        result = PassResult(self.ops_per_pass, elapsed, hashlib.sha256(blob.encode()).hexdigest())
        if trials != self.ops_per_pass or len(kb.records) != 2 or len(kb.rules) != 1:
            result.problems.append(
                f"explore pass {index}: {trials} trials, {len(kb.records)} records, "
                f"{len(kb.rules)} rules; expected {self.ops_per_pass}, 2, 1")
        if any(r.n_trials != EXPLORE_TRIALS or not 0.0 <= r.total_fail <= 1.0 for r in kb.records):
            result.problems.append(f"explore pass {index}: a record has the wrong trial count or rate")
        if result.problems:
            result.failed = result.ops
        result.outcomes["A"] = {
            "trials": trials,
            "records": len(kb.records),
            "rules": len(kb.rules),
            "indifferent_rules": sum(r.indifferent for r in kb.rules),
            "mean_total_fail": sum(r.total_fail for r in kb.records) / max(1, len(kb.records)),
        }
        return result


# --- set-up -----------------------------------------------------------------


def setup(name: str):
    """Build the workload's environment, knowledge base and noise model and
    run one small warm-up pass; returns the workload."""
    load_package()
    from restoragent.core import ALL_DEGRADATIONS, builtin_combinations, combinations_in_group
    from restoragent.envsim import default_mechanistic_env, reference_tabular_env
    from restoragent.knowledge import reference_kb
    from restoragent.perception import NoiseModel

    if name == PLAN_TABULAR:
        workload = PlanWorkload(
            name, reference_tabular_env(), reference_kb(), ALL_MODES,
            combinations_in_group("A"), PLAN_RUNS[name], None,
        )
    elif name == PLAN_MECHANISTIC_NOISY:
        model = NoiseModel(
            {d: NOISY_P_MISS for d in ALL_DEGRADATIONS},
            {d: NOISY_P_FALSE for d in ALL_DEGRADATIONS},
        )
        workload = PlanWorkload(
            name, default_mechanistic_env(0), reference_kb(), ("full", "strict-threshold"),
            builtin_combinations(), PLAN_RUNS[name], model.to_dict(),
        )
    elif name == EXPLORE_TABULAR:
        workload = ExploreWorkload(name, reference_tabular_env(), combinations_in_group("A"))
    else:
        raise ValueError(f"unknown workload: {name!r}")
    warm_up(workload)
    return workload


def warm_up(workload):
    """A reduced pass over every combination, under a seed no measured pass uses."""
    if isinstance(workload, PlanWorkload):
        small = PlanWorkload(
            workload.name, workload.env, workload.kb, workload.modes,
            workload.combinations, 1, workload.evaluator_model,
        )
        small.run_pass(-1, 0)
    else:
        for index in range(len(workload.combinations)):
            workload.run_pass(-1, index)


# --- traced names -----------------------------------------------------------

T, M, E = PLAN_TABULAR, PLAN_MECHANISTIC_NOISY, EXPLORE_TABULAR

#: The layers, one per module on a hot path.  ``cli`` and ``bridge`` are on
#: no hot path (``bridge`` needs a network) and stay unmeasured.
LAYERS = ("rng", "core", "envsim", "perception", "knowledge", "scheduling",
          "execution", "search", "harness", "explore")

#: (span name, dotted path, workloads that must call it).  The layer is the
#: span name's first part.  Accessors cheaper than a span (``severity``,
#: ``task_for``, ``Environment.tool``) are left to their callers' self time.
TRACED = (
    ("rng.Stream.child", "restoragent.rng.Stream.child", (T, M)),
    ("rng.Stream.generator", "restoragent.rng.Stream.generator", (T, M)),
    ("rng.substream", "restoragent.rng.substream", (T, M, E)),
    ("rng.stream_key", "restoragent.rng.stream_key", (T, M, E)),
    ("core.DegradationProfile.copy", "restoragent.core.DegradationProfile.copy", (E,)),
    ("core.DegradationProfile.with_severity", "restoragent.core.DegradationProfile.with_severity", (T, M, E)),
    ("core.DegradationProfile.with_history_entry",
     "restoragent.core.DegradationProfile.with_history_entry", (T, M, E)),
    ("core.DegradationProfile.tasks_in_history",
     "restoragent.core.DegradationProfile.tasks_in_history", (T, E)),
    ("core.DegradationProfile.present", "restoragent.core.DegradationProfile.present", (T, M, E)),
    ("core.DegradationProfile.to_dict", "restoragent.core.DegradationProfile.to_dict", (T, M)),
    ("core.DegradationCombination.label", "restoragent.core.DegradationCombination.label", (T, M)),
    ("envsim.apply_tool", "restoragent.envsim.apply_tool", (T, M, E)),
    ("envsim.Environment.tools_for", "restoragent.envsim.Environment.tools_for", (E,)),
    ("envsim.TabularCalibration.fail_prob", "restoragent.envsim.TabularCalibration.fail_prob", (T, E)),
    ("envsim.compose_failboosts", "restoragent.envsim.compose_failboosts", (M,)),
    ("envsim.env_to_dict", "restoragent.envsim.env_to_dict", (T, M)),
    ("envsim.env_from_dict", "restoragent.envsim.env_from_dict", (T, M)),
    ("perception.PerfectOracle.assess", "restoragent.perception.PerfectOracle.assess", (T, E)),
    ("perception.NoisyOracle.assess", "restoragent.perception.NoisyOracle.assess", (M,)),
    ("perception.evaluate_agenda", "restoragent.perception.evaluate_agenda", (T, M)),
    ("perception.reflect", "restoragent.perception.reflect", (T, M)),
    ("knowledge.retrieve", "restoragent.knowledge.retrieve", (T, M)),
    ("knowledge.KnowledgeBase.exact_records", "restoragent.knowledge.KnowledgeBase.exact_records", (T, M)),
    ("knowledge.aggregate", "restoragent.knowledge.aggregate", (E,)),
    ("knowledge.distill", "restoragent.knowledge.distill", (E,)),
    ("scheduling.ExperienceScheduler.schedule", "restoragent.scheduling.ExperienceScheduler.schedule", (T, M)),
    ("scheduling.RandomScheduler.schedule", "restoragent.scheduling.RandomScheduler.schedule", (T,)),
    ("scheduling.reschedule", "restoragent.scheduling.reschedule", (T, M)),
    ("execution.execute_subtask", "restoragent.execution.execute_subtask", (T, M)),
    ("execution.SimulatorToolAdapter.invoke", "restoragent.execution.SimulatorToolAdapter.invoke", (T, M)),
    ("execution.pick_best", "restoragent.execution.pick_best", (T, M)),
    ("execution.default_comparator", "restoragent.execution.default_comparator", (T, M)),
    ("execution.adapters_for", "restoragent.execution.adapters_for", (T, M)),
    ("search.run_workflow", "restoragent.search.run_workflow", (T, M)),
    ("harness.run_batch", "restoragent.harness.run_batch", (T, M)),
    ("harness.make_deps", "restoragent.harness.make_deps", (T, M)),
    ("harness.initial_profile", "restoragent.harness.initial_profile", (T, M)),
    ("harness.run_success", "restoragent.harness.run_success", (T, M)),
    ("harness.serialize", "workloads.serialize", (T, M)),
    ("explore.explore_and_build_kb", "restoragent.explore.explore_and_build_kb", (E,)),
    ("explore.explore", "restoragent.explore.explore", (E,)),
)

#: Spans that start a new run id: one per operation the metrics count.
OP_ROOTS = {"search.run_workflow", "explore.explore_and_build_kb"}


# --- reference digest -------------------------------------------------------


def reference_digest() -> str:
    """sha256 over ``json.dumps([report, traces], sort_keys=True)`` for the
    tabular then the mechanistic reference env, each over every run mode and
    all 16 combinations, 100 runs per cell at seed 17."""
    load_package()
    from restoragent.core import builtin_combinations
    from restoragent.envsim import default_mechanistic_env, reference_tabular_env
    from restoragent.harness import run_batch
    from restoragent.knowledge import reference_kb

    kb = reference_kb()
    digest = hashlib.sha256()
    for env in (reference_tabular_env(), default_mechanistic_env(0)):
        for mode in ALL_MODES:
            report, traces, _ = run_batch(env, kb, mode, builtin_combinations(), 100, 17, None, 1)
            digest.update(serialize(report, traces).encode("utf-8"))
    return digest.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)
