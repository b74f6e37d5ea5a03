"""Acceptance gate: one test per release criterion, each reporting a
single PASS/FAIL line in the terminal summary."""

import json
import math
import random as pyrandom
import time

import pytest

import conftest
from perception_metrics import classification_metrics
from restoragent.core import (
    DEGRADATION_FOR,
    TASK_FOR,
    Degradation,
    DegradationProfile,
    Severity,
    TaskKind,
    builtin_combinations,
    combinations_in_group,
)
from restoragent.envsim import (
    DegradationPresent,
    Environment,
    FailBoost,
    InteractionRule,
    TaskInHistory,
    ToolSpec,
    apply_tool,
    default_mechanistic_env,
    reference_calibration,
    reference_tabular_env,
)
from restoragent.execution import adapters_for
from restoragent.explore import ExplorationConfig, explore
from restoragent.harness import run_batch
from restoragent.knowledge import (
    aggregate,
    display_percent,
    distill,
    reference_kb,
    reference_records,
    save_kb,
)
from restoragent.perception import PerfectOracle
from restoragent.rng import Stream, substream
from restoragent.scheduling import ExperienceScheduler, RandomScheduler, measure_consistency
from restoragent.search import WorkflowDeps, brute_force_oracle, dfs, run_workflow

D = Degradation
T = TaskKind
ACCEPT = Severity.LOW


def _record(number: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


#: The total fail percent the paper prints for each group-A order, beside
#: the per-task rates that ``reference_calibration`` replays.
PUBLISHED_TOTAL_PCT = {
    (T.DENOISING, T.BRIGHTENING): 32,
    (T.BRIGHTENING, T.DENOISING): 35,
    (T.DEFOCUS_DEBLURRING, T.DEHAZING): 18,
    (T.DEHAZING, T.DEFOCUS_DEBLURRING): 20,
    (T.JPEG_ARTIFACT_REMOVAL, T.DEFOCUS_DEBLURRING): 20,
    (T.DEFOCUS_DEBLURRING, T.JPEG_ARTIFACT_REMOVAL): 28,
    (T.MOTION_DEBLURRING, T.BRIGHTENING): 23,
    (T.BRIGHTENING, T.MOTION_DEBLURRING): 26,
    (T.MOTION_DEBLURRING, T.SUPER_RESOLUTION): 16,
    (T.SUPER_RESOLUTION, T.MOTION_DEBLURRING): 19,
    (T.DENOISING, T.JPEG_ARTIFACT_REMOVAL): 26,
    (T.JPEG_ARTIFACT_REMOVAL, T.DENOISING): 26,
    (T.DERAINING, T.DEHAZING): 21,
    (T.DEHAZING, T.DERAINING): 24,
    (T.DERAINING, T.SUPER_RESOLUTION): 14,
    (T.SUPER_RESOLUTION, T.DERAINING): 32,
}


def test_criterion_1_calibration_fidelity():
    started = time.perf_counter()
    calibration = reference_calibration()
    config = ExplorationConfig(
        combinations=combinations_in_group("A"),
        samples_per_combination=1,
        trials_per_sample=10_000,
        seed=20,
    )
    records = aggregate(explore(reference_tabular_env(), config))

    rate_errors = []
    for record in records:
        stats = next(
            s for s in calibration.entries[record.combination] if s.order == record.order
        )
        for degradation, p in stats.fail.items():
            emp = record.per_task_fail[TASK_FOR[degradation]]
            sigma = math.sqrt(p * (1 - p) / record.n_trials)
            if abs(emp - p) > 3 * sigma:
                rate_errors.append(
                    f"{record.order[0].value}-first {degradation.value}: "
                    f"empirical {emp:.4f} vs calibrated {p:.4f}"
                )

    total_errors = []
    for entries in calibration.entries.values():
        for stats in entries:
            true_total = sum(stats.fail.values()) / len(stats.fail)
            printed = display_percent(true_total)
            published = PUBLISHED_TOTAL_PCT[stats.order]
            if printed != published:
                pair = "/".join(str(round(p * 100)) for p in stats.fail.values())
                total_errors.append(f"{pair}: printed {printed}, published {published}")

    elapsed = time.perf_counter() - started
    ok = not rate_errors and not total_errors and elapsed < 120
    detail = "; ".join(
        rate_errors
        + total_errors
        + ([f"runtime {elapsed:.0f}s"] if elapsed >= 120 else [])
    )
    _record(1, "calibration fidelity", ok, detail)
    assert not rate_errors, rate_errors
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds the 2 minute budget"
    # Three published totals sit half a percentage point above the mean of
    # their per-task rates and are unreachable under the single rounding rule
    # that reproduces the other thirteen; this check fails on exactly those.
    assert not total_errors, total_errors


def test_criterion_2_rule_fidelity():
    rules = distill(reference_records())
    strict = {(r.before, r.after) for r in rules if not r.indifferent}
    expected_strict = {
        (T.DENOISING, T.BRIGHTENING),
        (T.DEFOCUS_DEBLURRING, T.DEHAZING),
        (T.JPEG_ARTIFACT_REMOVAL, T.DEFOCUS_DEBLURRING),
        (T.MOTION_DEBLURRING, T.BRIGHTENING),
        (T.MOTION_DEBLURRING, T.SUPER_RESOLUTION),
        (T.DERAINING, T.DEHAZING),
        (T.DERAINING, T.SUPER_RESOLUTION),
    }
    indifferent = [r for r in rules if r.indifferent]

    scheduler = ExperienceScheduler(reference_kb())
    order_errors = []
    by_combo = {}
    for record in reference_records():
        by_combo.setdefault(record.combination, []).append(record)
    for combination, records in by_combo.items():
        preferred = min(records, key=lambda r: r.total_fail).order
        agenda = {TASK_FOR[d] for d in combination}
        planned = scheduler.schedule(agenda)
        if set(preferred) != set(planned):
            order_errors.append(f"{combination}: bad task set")
        elif min(r.total_fail for r in records) != max(r.total_fail for r in records):
            if planned != preferred:
                order_errors.append(
                    f"{'+'.join(sorted(d.value for d in combination))}: "
                    f"planned {[t.value for t in planned]}"
                )

    ok = (
        strict == expected_strict
        and len(indifferent) == 1
        and {indifferent[0].before, indifferent[0].after}
        == {T.DENOISING, T.JPEG_ARTIFACT_REMOVAL}
        and not order_errors
    )
    _record(2, "rule fidelity", ok, "; ".join(order_errors) or "rule set mismatch")
    assert strict == expected_strict
    assert len(indifferent) == 1
    assert not order_errors


def _random_deterministic_case(rnd: pyrandom.Random):
    agenda = rnd.sample(sorted(TaskKind, key=lambda t: t.value), rnd.randint(1, 3))
    tools = []
    for task in agenda:
        for i in range(rnd.randint(1, 3)):
            works = rnd.random() < 0.7
            tools.append(
                ToolSpec(
                    f"{task.value}-{i}",
                    task,
                    1.0 if works else 0.0,
                    0.0,
                    0.0 if works else 1.0,
                )
            )
    rules = []
    for _ in range(rnd.randint(0, 4)):
        task = rnd.choice(agenda)
        if rnd.random() < 0.5:
            condition = TaskInHistory(rnd.choice(agenda))
        else:
            condition = DegradationPresent(
                DEGRADATION_FOR[rnd.choice(agenda)], Severity.MEDIUM
            )
        rules.append(InteractionRule(task, condition, FailBoost(1.0)))
    env = Environment("mechanistic", tools, rules)
    profile = DegradationProfile({DEGRADATION_FOR[t]: Severity.HIGH for t in agenda})
    return env, profile, frozenset(agenda)


def test_criterion_3_search_correctness():
    started = time.perf_counter()
    rnd = pyrandom.Random(100)
    scheduler = ExperienceScheduler(reference_kb())
    disagreements = []
    n_cases = 1_000
    for i in range(n_cases):
        env, profile, agenda = _random_deterministic_case(rnd)
        expected, _ = brute_force_oracle(profile, agenda, env, ACCEPT)
        deps = WorkflowDeps(
            scheduler=scheduler,
            evaluator=PerfectOracle(),
            tools=adapters_for(env),
            accept_candidate=ACCEPT,
        )
        plan = scheduler.schedule(agenda)
        _, got = dfs(profile, plan, deps, Stream(i))
        if got != expected:
            disagreements.append(f"case {i}: dfs {got}, oracle {expected}")
    elapsed = time.perf_counter() - started
    ok = not disagreements and elapsed < 60
    _record(
        3,
        "search correctness",
        ok,
        "; ".join(disagreements[:5]) or f"runtime {elapsed:.0f}s",
    )
    assert not disagreements, disagreements[:5]
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds the 1 minute budget"


def test_criterion_4_scheduling_consistency():
    errors = []
    scheduler = ExperienceScheduler(reference_kb())
    for combo in builtin_combinations():
        report = measure_consistency(scheduler, combo.tasks, 5)
        if report.entropy_bits != 0.0 or report.variation_ratio != 0.0:
            errors.append(f"experience scheduler disperses on {combo.label()}")
    two_task = [c for c in builtin_combinations() if len(c.degradations) == 2]
    for combo in two_task:
        report = measure_consistency(RandomScheduler(), combo.tasks, 60)
        sigma = math.sqrt(0.25 / report.n_samples)
        if abs(report.variation_ratio - 0.5) > 3 * sigma:
            errors.append(
                f"random scheduler VR {report.variation_ratio:.3f} on {combo.label()}"
            )
    _record(4, "scheduling consistency", not errors, "; ".join(errors))
    assert not errors, errors


def test_criterion_5_ablation_directions():
    combos = combinations_in_group("A")
    env = reference_tabular_env()
    kb = reference_kb()
    rates = {}
    for mode in ("full", "no-retrieval", "no-reflection"):
        report, _, _ = run_batch(env, kb, mode, combos, 1_000, 17, jobs=4)
        rates[mode] = report["groups"]["A"]["success_rate"]

    errors = []
    if rates["full"] < rates["no-retrieval"]:
        errors.append(f"full {rates['full']:.3f} < no-retrieval {rates['no-retrieval']:.3f}")
    if rates["full"] < rates["no-reflection"]:
        errors.append(f"full {rates['full']:.3f} < no-reflection {rates['no-reflection']:.3f}")

    # constructed fixture: the preferred first order fails deterministically,
    # so only the rollback-enabled searcher recovers
    fixture_env = Environment(
        "mechanistic",
        [
            ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0),
            ToolSpec("dehaze", T.DEHAZING, 1.0, 0.0, 0.0),
        ],
        [InteractionRule(T.DEHAZING, TaskInHistory(T.DERAINING), FailBoost(1.0))],
    )
    initial = DegradationProfile({D.RAIN: Severity.HIGH, D.HAZE: Severity.HIGH})

    def deps(use_rollback):
        return WorkflowDeps(
            scheduler=ExperienceScheduler(kb),
            evaluator=PerfectOracle(),
            tools=adapters_for(fixture_env),
            accept_candidate=ACCEPT,
            use_rollback=use_rollback,
        )

    with_rb, _ = run_workflow(initial, deps(True), seed=0)
    without_rb, _ = run_workflow(initial, deps(False), seed=0)
    rb_success = not with_rb.present()
    no_rb_success = not without_rb.present()
    if not rb_success or no_rb_success:
        errors.append(
            f"rollback fixture: enabled={rb_success}, disabled={no_rb_success}"
        )

    detail = "; ".join(errors) + (
        f" [rates: {', '.join(f'{m}={r:.3f}' for m, r in rates.items())}]"
        if errors
        else ""
    )
    _record(5, "ablation directions", not errors, detail)
    assert not errors, (errors, rates)


def test_criterion_6_threshold_tradeoff():
    combos = combinations_in_group("A")
    env = default_mechanistic_env(0)
    kb = reference_kb()
    means = {}
    for mode in ("full", "strict-threshold"):
        report, _, _ = run_batch(env, kb, mode, combos, 100, 23, jobs=4)
        means[mode] = report["groups"]["A"]["mean_invocations"]
    ok = means["strict-threshold"] > means["full"]
    _record(
        6,
        "threshold tradeoff",
        ok,
        f"strict {means['strict-threshold']:.2f} vs default {means['full']:.2f}",
    )
    assert ok, means


def test_criterion_7_determinism_and_purity(tmp_path):
    errors = []
    # byte-identical knowledge base files
    save_kb(reference_kb(), tmp_path / "kb1.json")
    save_kb(reference_kb(), tmp_path / "kb2.json")
    if (tmp_path / "kb1.json").read_bytes() != (tmp_path / "kb2.json").read_bytes():
        errors.append("KB serialization is not byte-stable")

    # byte-identical traces and reports for a fixed (config, seed)
    combos = combinations_in_group("A")
    runs = [
        run_batch(reference_tabular_env(), reference_kb(), "full", combos, 5, 11)
        for _ in range(2)
    ]
    (report_a, traces_a, _), (report_b, traces_b, _) = runs
    dump = lambda data: json.dumps(data, sort_keys=True).encode("utf-8")
    if dump(report_a) != dump(report_b):
        errors.append("report bytes differ across identical runs")
    if dump(traces_a) != dump(traces_b):
        errors.append("trace bytes differ across identical runs")

    # copy-isolation and tool purity fuzz
    env = default_mechanistic_env(1)
    rnd = pyrandom.Random(7)
    degradations = list(Degradation)
    severities = list(Severity)
    for i in range(10_000):
        profile = DegradationProfile(
            {d: rnd.choice(severities) for d in rnd.sample(degradations, rnd.randint(0, 4))}
        )
        snapshot = DegradationProfile(dict(profile.severities))
        clone = profile.copy()
        clone.severities[rnd.choice(degradations)] = rnd.choice(severities)
        clone.with_severity(rnd.choice(degradations), rnd.choice(severities))
        if profile != snapshot:
            errors.append(f"copy isolation violated at iteration {i}")
            break
        tool = env.tools[rnd.randrange(len(env.tools))]
        apply_tool(env, profile, tool, substream(13, "fuzz", i))
        if profile != snapshot:
            errors.append(f"apply_tool mutated its input at iteration {i}")
            break

    # rollback purity at the search level
    deps = WorkflowDeps(
        scheduler=ExperienceScheduler(reference_kb()),
        evaluator=PerfectOracle(),
        tools=adapters_for(env),
        accept_candidate=ACCEPT,
    )
    for i in range(200):
        profile = DegradationProfile(
            {d: Severity.HIGH for d in rnd.sample(degradations, rnd.randint(1, 3))}
        )
        snapshot = DegradationProfile(dict(profile.severities))
        plan = deps.scheduler.schedule({TASK_FOR[d] for d in profile.present()})
        dfs(profile, plan, deps, Stream(1000 + i))
        if profile != snapshot:
            errors.append(f"dfs mutated its input at iteration {i}")
            break

    _record(7, "determinism and purity", not errors, "; ".join(errors))
    assert not errors, errors


def test_criterion_8_metrics_computation():
    errors = []
    rows = (
        [(D.NOISE, True, True)] * 92
        + [(D.NOISE, False, True)] * 8
        + [(D.NOISE, True, False)] * 1
    )
    metrics = classification_metrics(rows)[D.NOISE]
    published = (0.99, 0.92, 0.95)
    got = (round(metrics.precision, 2), round(metrics.recall, 2), round(metrics.f1, 2))
    if got != published:
        errors.append(f"noise row {got} != published {published}")

    rnd = pyrandom.Random(3)
    for i in range(1_000):
        tp = rnd.randint(1, 300)
        fp = rnd.randint(0, 300)
        fn = rnd.randint(0, 300)
        fuzz = (
            [(D.HAZE, True, True)] * tp
            + [(D.HAZE, True, False)] * fp
            + [(D.HAZE, False, True)] * fn
        )
        m = classification_metrics(fuzz)[D.HAZE]
        expected_f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
        if abs(m.f1 - expected_f1) > 1e-9:
            errors.append(f"harmonic identity violated at iteration {i}")
            break

    _record(8, "metrics computation", not errors, "; ".join(errors))
    assert not errors, errors
