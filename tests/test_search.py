import copy

import pytest

from restoragent.core import Degradation, DegradationProfile, Severity, TaskKind, builtin_combinations
from restoragent.envsim import (
    DegradationPresent,
    Environment,
    FailBoost,
    InteractionRule,
    TaskInHistory,
    ToolSpec,
    reference_tabular_env,
)
from restoragent import search
from restoragent.execution import adapters_for
from restoragent.harness import run_batch
from restoragent.knowledge import reference_kb
from restoragent.perception import PerfectOracle
from restoragent.rng import Stream
from restoragent.scheduling import ExperienceScheduler, Unschedulable
from restoragent.search import (
    NondeterministicEnv,
    WorkflowDeps,
    brute_force_oracle,
    dfs,
    new_trace,
    run_workflow,
)

D = Degradation
T = TaskKind
ACCEPT = Severity.LOW
RAIN_HAZE = DegradationProfile({D.RAIN: Severity.HIGH, D.HAZE: Severity.HIGH})


def _deps(env, **overrides):
    kwargs = dict(
        scheduler=ExperienceScheduler(reference_kb()),
        evaluator=PerfectOracle(),
        tools=adapters_for(env),
        accept_candidate=ACCEPT,
    )
    kwargs.update(overrides)
    return WorkflowDeps(**kwargs)


def order_sensitive_env():
    """Dehazing fails if deraining already ran; the reverse order works."""
    return Environment(
        "mechanistic",
        [
            ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0),
            ToolSpec("dehaze", T.DEHAZING, 1.0, 0.0, 0.0),
        ],
        [InteractionRule(T.DEHAZING, TaskInHistory(T.DERAINING), FailBoost(1.0))],
    )


def dehaze_hopeless_env():
    return Environment(
        "mechanistic",
        [
            ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0),
            ToolSpec("dehaze", T.DEHAZING, 0.0, 0.0, 1.0),
        ],
        [],
    )


def test_dfs_trivial_success():
    env = Environment(
        "mechanistic", [ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0)], []
    )
    trace = new_trace()
    result, success = dfs(
        DegradationProfile({D.RAIN: Severity.HIGH}),
        (T.DERAINING,),
        _deps(env),
        Stream(0),
        trace,
    )
    assert success
    assert D.RAIN not in result.profile.present()
    assert result.completed == frozenset({T.DERAINING})
    assert result.branch_root is T.DERAINING
    assert trace["counters"]["nodes"] == 1
    assert trace["counters"]["rollbacks"] == 0


def test_dfs_hand_trace_counters():
    # preferred plan [derain, dehaze] fails at dehaze; [dehaze, derain] works
    trace = new_trace()
    result, success = dfs(
        RAIN_HAZE, (T.DERAINING, T.DEHAZING), _deps(order_sensitive_env()), Stream(0), trace
    )
    assert success
    assert result.profile.present() == frozenset()
    assert trace["counters"]["nodes"] == 3
    assert trace["counters"]["rollbacks"] == 1
    assert trace["counters"]["reschedules"] == 1
    assert trace["counters"]["invocations"] == 4
    roots = [node["subtask"] for node in trace["tree"]]
    assert roots == ["deraining", "dehazing"]
    assert trace["tree"][0]["verdict"] == "subtree-failed"
    assert trace["tree"][1]["verdict"] == "accepted"


def test_dfs_exhaustion_returns_best_inferior():
    trace = new_trace()
    result, success = dfs(
        RAIN_HAZE, (T.DERAINING, T.DEHAZING), _deps(dehaze_hopeless_env()), Stream(0), trace
    )
    assert not success
    # the derain-first branch cleared rain, so it wins pick-best
    assert D.RAIN not in result.profile.present()
    assert D.HAZE in result.profile.present()
    assert result.completed == frozenset({T.DERAINING})
    assert result.branch_root is T.DERAINING
    assert trace["counters"]["rollbacks"] == 1


def test_dfs_input_profile_untouched():
    state = copy.deepcopy(RAIN_HAZE)
    dfs(state, (T.DERAINING, T.DEHAZING), _deps(dehaze_hopeless_env()), Stream(0))
    assert state == RAIN_HAZE


def test_run_workflow_success_and_trace():
    profile, trace = run_workflow(RAIN_HAZE, _deps(order_sensitive_env()), seed=0)
    assert trace["status"] == "success"
    assert profile.present() == frozenset()
    assert trace["agenda"] == ["dehazing", "deraining"]
    assert trace["counters"]["compromises"] == 0
    assert trace["final"] == profile.to_dict()


def test_run_workflow_empty_agenda_is_noop():
    profile, trace = run_workflow(DegradationProfile(), _deps(order_sensitive_env()), seed=0)
    assert trace["status"] == "success"
    assert trace["agenda"] == []
    assert trace["counters"]["invocations"] == 0
    assert profile == DegradationProfile()


def test_run_workflow_compromise_keeps_best_effort():
    profile, trace = run_workflow(RAIN_HAZE, _deps(dehaze_hopeless_env()), seed=0)
    assert trace["status"] == "compromise"
    assert trace["counters"]["compromises"] >= 1
    assert D.RAIN not in profile.present()
    assert D.HAZE in profile.present()


def test_a_success_status_can_follow_a_compromise_round():
    """``status`` is the planner's belief after its last round; only
    ``true_success`` says whether the final profile is clean."""
    _, traces, _ = run_batch(reference_tabular_env(), reference_kb(), "full", builtin_combinations(), 20, 0)
    after_compromise = [
        t for runs in traces.values() for t in runs
        if t["status"] == "success" and t["counters"]["compromises"] >= 1
    ]
    assert after_compromise
    assert any(not t["true_success"] for t in after_compromise)
    assert any(t["true_success"] for t in after_compromise)


def test_run_workflow_no_rollback_stops_at_first_plan():
    deps = _deps(order_sensitive_env(), use_rollback=False)
    profile, trace = run_workflow(RAIN_HAZE, deps, seed=0)
    # the preferred plan runs derain first, so dehazing can never pass
    assert trace["status"] == "compromise"
    assert trace["counters"]["rollbacks"] == 0
    assert D.HAZE in profile.present()


def test_run_workflow_no_reflection_accepts_blindly():
    deps = _deps(dehaze_hopeless_env(), use_reflection=False)
    profile, trace = run_workflow(RAIN_HAZE, deps, seed=0)
    # every result is accepted, so the trace claims success while haze remains
    assert trace["status"] == "success"
    assert D.HAZE in profile.present()


def _assert_trace_schema(trace, top_keys):
    assert set(trace) == top_keys
    assert set(trace["counters"]) == {
        "rollbacks", "reschedules", "compromises", "invocations", "nodes"
    }
    assert trace["counters"]["reschedules"] == trace["counters"]["rollbacks"]


def test_trace_node_shapes_per_control_flow():
    top_keys = {"status", "counters", "agenda", "tree", "final"}
    keys = {"plan", "subtask", "tools_tried", "invocations", "status", "verdict"}
    _, searched = run_workflow(RAIN_HAZE, _deps(dehaze_hopeless_env()), seed=0)
    _assert_trace_schema(searched, top_keys)
    assert searched["counters"]["rollbacks"] > 0
    rejected = [node for node in searched["tree"] if node["verdict"] == "rejected"]
    assert rejected and all(set(node) == keys for node in rejected)
    # a trace that dfs fills on its own counts a reschedule with each rollback too
    alone = new_trace()
    dfs(RAIN_HAZE, (T.DERAINING, T.DEHAZING), _deps(order_sensitive_env()), Stream(0), alone)
    _assert_trace_schema(alone, top_keys - {"final"})
    assert alone["counters"]["rollbacks"] == 1
    # only a run that raised carries an error
    no_dehaze = Environment("mechanistic", [ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0)], [])
    _, failed = run_workflow(RAIN_HAZE, _deps(no_dehaze), seed=0)
    _assert_trace_schema(failed, top_keys | {"error"})
    # either ablation runs the plan once: one childless node per subtask
    for ablation, dehaze_verdict in (("use_rollback", "kept-best-effort"),
                                     ("use_reflection", "accepted")):
        deps = _deps(dehaze_hopeless_env(), **{ablation: False})
        _, straight = run_workflow(RAIN_HAZE, deps, seed=0)
        _assert_trace_schema(straight, top_keys)
        assert all(set(node) == keys | {"children"} for node in straight["tree"])
        assert [node["children"] for node in straight["tree"]] == [[], []]
        assert straight["counters"]["nodes"] == 2
        verdicts = {node["subtask"]: node["verdict"] for node in straight["tree"]}
        assert verdicts["dehazing"] == dehaze_verdict


def test_run_workflow_error_status_on_unschedulable():
    class BrokenScheduler:
        def schedule(self, agenda, banned_first=frozenset(), rng=None):
            raise Unschedulable("no plan today")

    deps = _deps(order_sensitive_env(), scheduler=BrokenScheduler())
    profile, trace = run_workflow(RAIN_HAZE, deps, seed=0)
    assert trace["status"] == "error"
    assert "no plan today" in trace["error"]
    assert profile == RAIN_HAZE


def test_run_workflow_error_trace_holds_only_executed_subtasks():
    # dehazing has no tool, so whichever mode runs it raises NoTools mid-plan
    env = Environment("mechanistic", [ToolSpec("derain", T.DERAINING, 1.0, 0.0, 0.0)], [])

    def nodes(tree):
        for node in tree:
            yield node
            yield from nodes(node.get("children", []))

    for use_rollback in (True, False):
        profile, trace = run_workflow(RAIN_HAZE, _deps(env, use_rollback=use_rollback), seed=0)
        assert trace["status"] == "error"
        assert "dehazing" in trace["error"]
        assert profile == RAIN_HAZE
        assert trace["final"] == RAIN_HAZE.to_dict()
        assert [node["subtask"] for node in nodes(trace["tree"])] == ["deraining"]
        assert trace["counters"]["invocations"] == 1
        assert trace["counters"]["nodes"] == 1


def test_run_workflow_propagates_a_pick_best_bug(monkeypatch):
    # every pick_best call passes a non-empty list, so an IndexError is a bug
    def buggy_pick_best(candidates, better):
        raise IndexError("a bug, not a failed run")

    monkeypatch.setattr(search, "pick_best", buggy_pick_best)
    with pytest.raises(IndexError, match="a bug"):
        run_workflow(RAIN_HAZE, _deps(dehaze_hopeless_env()), seed=0)


def test_a_compromise_round_that_removes_no_task_raises(monkeypatch):
    """A failed round with nothing completed and no branch root would leave
    the next round the same agenda, so the search raises rather than loop or
    write an error trace."""
    def stuck_dfs(profile, plan, deps, stream, trace):
        return search.SearchResult(profile, frozenset(), None), False

    monkeypatch.setattr(search, "dfs", stuck_dfs)
    with pytest.raises(RuntimeError, match=r"compromise round 0 left its agenda .* whole"):
        run_workflow(RAIN_HAZE, _deps(order_sensitive_env()), seed=0)


def test_run_workflow_propagates_programming_errors():
    class BuggyScheduler:
        def schedule(self, agenda, banned_first=frozenset(), rng=None):
            raise ValueError("a bug, not an unschedulable agenda")

    deps = _deps(order_sensitive_env(), scheduler=BuggyScheduler())
    with pytest.raises(ValueError, match="a bug"):
        run_workflow(RAIN_HAZE, deps, seed=0)


def test_run_workflow_determinism_same_seed():
    for deps_factory in (
        lambda: _deps(order_sensitive_env()),
        lambda: _deps(dehaze_hopeless_env()),
    ):
        a_profile, a_trace = run_workflow(RAIN_HAZE, deps_factory(), seed=7)
        b_profile, b_trace = run_workflow(RAIN_HAZE, deps_factory(), seed=7)
        assert a_profile == b_profile
        assert a_trace == b_trace


def test_oracle_matches_dfs_on_fixtures():
    ok, witness = brute_force_oracle(
        RAIN_HAZE, {T.DERAINING, T.DEHAZING}, order_sensitive_env(), ACCEPT
    )
    assert ok
    assert witness == (T.DEHAZING, T.DERAINING)
    ok, witness = brute_force_oracle(
        RAIN_HAZE, {T.DERAINING, T.DEHAZING}, dehaze_hopeless_env(), ACCEPT
    )
    assert not ok and witness is None


def test_oracle_rejects_nondeterministic_envs():
    with pytest.raises(NondeterministicEnv):
        brute_force_oracle(RAIN_HAZE, {T.DERAINING}, reference_tabular_env(), ACCEPT)
    stochastic = Environment(
        "mechanistic", [ToolSpec("derain", T.DERAINING, 0.5, 0.25, 0.25)], []
    )
    with pytest.raises(NondeterministicEnv):
        brute_force_oracle(RAIN_HAZE, {T.DERAINING}, stochastic, ACCEPT)
    boosted = Environment(
        "mechanistic",
        [ToolSpec("dehaze", T.DEHAZING, 1.0, 0.0, 0.0)],
        [InteractionRule(T.DEHAZING, DegradationPresent(D.NOISE, Severity.MEDIUM), FailBoost(0.5))],
    )
    with pytest.raises(NondeterministicEnv):
        brute_force_oracle(RAIN_HAZE, {T.DEHAZING}, boosted, ACCEPT)


def test_oracle_agenda_size_cap():
    env = order_sensitive_env()
    with pytest.raises(ValueError):
        brute_force_oracle(RAIN_HAZE, set(T), env, ACCEPT)
