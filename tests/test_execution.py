
import json

import pytest

from restoragent.core import Degradation, DegradationProfile, Severity, TaskKind
from restoragent.envsim import Environment, NoTools, ToolSpec, reference_tabular_env
from restoragent.execution import (
    FAILURE,
    SUCCESS,
    SimulatorToolAdapter,
    adapters_for,
    default_comparator,
    execute_subtask,
    pick_best,
)
from restoragent.harness import make_deps
from restoragent.knowledge import reference_kb
from restoragent.perception import PerfectOracle
from restoragent.rng import Stream


def _adapters(*specs):
    env = Environment("mechanistic", list(specs), [])
    return adapters_for(env)


NOISE_HIGH = DegradationProfile({Degradation.NOISE: Severity.HIGH})
ACCEPT = Severity.LOW


def test_status_constants_are_strings_that_answer_value():
    for status, text in ((SUCCESS, "success"), (FAILURE, "failure")):
        assert status == text and json.dumps(status) == f'"{text}"'
        assert type(status.value) is str and status.value == text


def test_strict_policy_accepts_only_very_low():
    env, kb = reference_tabular_env(), reference_kb()
    strict = make_deps(env, kb, "strict-threshold", PerfectOracle())
    assert strict.accept_candidate is Severity.VERY_LOW
    assert make_deps(env, kb, "full", PerfectOracle()).accept_candidate is Severity.LOW


def test_accept_now_short_circuits():
    tools = _adapters(
        ToolSpec("a", TaskKind.DENOISING, 1.0, 0.0, 0.0),
        ToolSpec("b", TaskKind.DENOISING, 1.0, 0.0, 0.0),
    )
    outcome = execute_subtask(
        TaskKind.DENOISING, NOISE_HIGH, tools, PerfectOracle(), ACCEPT, Stream(0)
    )
    assert outcome.status == SUCCESS
    assert outcome.invocations == 1
    assert outcome.tools_tried == ["a"]
    assert Degradation.NOISE not in outcome.result.present()


def test_partial_results_go_through_pick_best():
    tools = _adapters(
        ToolSpec("p1", TaskKind.DENOISING, 0.0, 1.0, 0.0),
        ToolSpec("p2", TaskKind.DENOISING, 0.0, 1.0, 0.0),
    )
    outcome = execute_subtask(
        TaskKind.DENOISING, NOISE_HIGH, tools, PerfectOracle(), ACCEPT, Stream(0)
    )
    assert outcome.status == SUCCESS
    assert outcome.invocations == 2
    assert outcome.result.severity(Degradation.NOISE) is Severity.LOW


def test_all_tools_fail_is_failure_with_best_output():
    tools = _adapters(
        ToolSpec("n1", TaskKind.DENOISING, 0.0, 0.0, 1.0),
        ToolSpec("n2", TaskKind.DENOISING, 0.0, 0.0, 1.0),
    )
    outcome = execute_subtask(
        TaskKind.DENOISING, NOISE_HIGH, tools, PerfectOracle(), ACCEPT, Stream(0)
    )
    assert outcome.status == FAILURE
    assert outcome.invocations == 2
    assert outcome.result.severity(Degradation.NOISE) is Severity.HIGH
    assert set(outcome.result.tasks_in_history()) == {TaskKind.DENOISING}


def test_strict_policy_rejects_partial():
    tools = _adapters(ToolSpec("p", TaskKind.DENOISING, 0.0, 1.0, 0.0))
    outcome = execute_subtask(
        TaskKind.DENOISING, NOISE_HIGH, tools, PerfectOracle(), Severity.VERY_LOW, Stream(0)
    )
    assert outcome.status == FAILURE


def test_no_reflection_accepts_first_result():
    tools = _adapters(
        ToolSpec("n1", TaskKind.DENOISING, 0.0, 0.0, 1.0),
        ToolSpec("good", TaskKind.DENOISING, 1.0, 0.0, 0.0),
    )
    outcome = execute_subtask(
        TaskKind.DENOISING, NOISE_HIGH, tools, PerfectOracle(), ACCEPT, Stream(0),
        use_reflection=False,
    )
    assert outcome.status == SUCCESS
    assert outcome.invocations == 1
    # the failing tool ran first and its unimproved output was kept
    assert outcome.result.severity(Degradation.NOISE) is Severity.HIGH


def test_no_tools_raises():
    with pytest.raises(NoTools):
        execute_subtask(
            TaskKind.DERAINING, NOISE_HIGH, {}, PerfectOracle(), ACCEPT, Stream(0)
        )


def test_seeded_shuffle_is_deterministic_and_varies_with_seed():
    tools = _adapters(
        *[ToolSpec(f"n{i}", TaskKind.DENOISING, 0.0, 0.0, 1.0) for i in range(6)]
    )
    def tried(seed):
        return execute_subtask(
            TaskKind.DENOISING, NOISE_HIGH, tools, PerfectOracle(), ACCEPT, Stream(seed)
        ).tools_tried

    assert tried(1) == tried(1)
    assert any(tried(s) != tried(1) for s in range(2, 12))
    assert sorted(tried(1)) == [f"n{i}" for i in range(6)]


def test_pick_best_linear_scan_semantics():
    calls = []

    def first_wins(a, b):
        calls.append((a, b))
        return a

    assert pick_best([1, 2, 3, 4], first_wins) == 1
    assert len(calls) == 3
    with pytest.raises(IndexError):
        pick_best([], first_wins)


def test_default_comparator_prefers_lower_severity_multiset():
    compare = default_comparator(PerfectOracle())
    better = DegradationProfile({Degradation.NOISE: Severity.LOW})
    worse = DegradationProfile({Degradation.NOISE: Severity.MEDIUM})
    assert compare(worse, better) is better
    assert compare(better, worse) is better
    # tie keeps the first argument
    tie = DegradationProfile({Degradation.RAIN: Severity.LOW})
    assert compare(tie, better) is tie


def test_adapters_for_groups_by_task():
    env = Environment(
        "mechanistic",
        [
            ToolSpec("a", TaskKind.DENOISING, 1.0, 0.0, 0.0),
            ToolSpec("b", TaskKind.DERAINING, 1.0, 0.0, 0.0),
            ToolSpec("c", TaskKind.DENOISING, 0.5, 0.5, 0.0),
        ],
        [],
    )
    adapters = adapters_for(env)
    assert [a.id for a in adapters[TaskKind.DENOISING]] == ["a", "c"]
    assert [a.id for a in adapters[TaskKind.DERAINING]] == ["b"]
    assert all(isinstance(a, SimulatorToolAdapter) for a in adapters[TaskKind.DENOISING])
