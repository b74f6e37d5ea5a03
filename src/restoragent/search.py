"""Depth-first subtask-order search with reflection, rollback and compromise."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .core import DEGRADATION_FOR, LOW, DegradationProfile, Severity
from .envsim import Environment, FailBoost, SideEffect, apply_tool
from .execution import (
    SUCCESS,
    NoTools,
    default_comparator,
    execute_subtask,
    pick_best,
)
from .perception import evaluate_agenda
from .rng import Stream
from .scheduling import Unschedulable, reschedule


class NondeterministicEnv(ValueError):
    """The brute-force oracle requires a fully deterministic environment."""


def new_trace() -> dict:
    """An empty run trace, in the JSON shape ``run`` writes to ``traces/*.json``;
    ``run_workflow`` adds ``final`` and, on an error, ``error``."""
    return {
        "status": "success",  # "success" | "compromise" | "error"
        "counters": {
            "rollbacks": 0, "reschedules": 0, "compromises": 0, "invocations": 0, "nodes": 0,
        },
        "agenda": [],
        "tree": [],
    }


class SearchResult(NamedTuple):
    """A profile annotated with the path bookkeeping compromise needs."""

    profile: DegradationProfile
    completed: frozenset  # tasks whose reflection passed on the producing path
    branch_root: object  # first-level subtask of the producing branch, or None


@dataclass
class WorkflowDeps:
    scheduler: object
    evaluator: object
    tools: dict  # TaskKind -> [ToolAdapter]
    # A reflection at VERY_LOW accepts a tool's result at once; one at most
    # this level is kept as a PickBest candidate.
    accept_candidate: Severity = LOW
    use_reflection: bool = True
    use_rollback: bool = True


def _step(plan, profile, deps, stream, counters, children):
    """Executes ``plan[0]`` on ``profile`` and appends its trace node to
    ``children``; returns (outcome, node) so the caller can add its verdict."""
    outcome = execute_subtask(plan[0], profile, deps.tools, deps.evaluator,
                              deps.accept_candidate, stream, use_reflection=deps.use_reflection)
    counters["invocations"] += outcome.invocations
    node = {
        "plan": list(plan),
        "subtask": plan[0],
        "tools_tried": list(outcome.tools_tried),
        "invocations": outcome.invocations,
        "status": outcome.status,
    }
    children.append(node)
    return outcome, node


def dfs(profile, plan, deps: WorkflowDeps, stream: Stream, trace: dict | None = None):
    """Depth-first search over subtask orders; returns (SearchResult, bool).

    Sibling branches always restart from the same pre-branch profile;
    rollback is value restoration, never undo-mutation.
    """
    trace = new_trace() if trace is None else trace
    return _dfs(profile, tuple(plan), deps, stream, trace["counters"], trace["tree"])


def _dfs(profile, plan, deps, stream, counters, children):
    if not plan:
        return SearchResult(profile, frozenset(), None), True
    attempts = set()
    inferiors = []
    branch = 0
    while True:
        subtask = plan[0]
        outcome, node = _step(plan, profile, deps, stream.child("branch", branch), counters, children)
        if branch == 0:
            counters["nodes"] += 1  # a DFS call counts once its first subtask has run
        if outcome.status == SUCCESS:
            node["children"] = []
            sub_result, success = _dfs(
                outcome.result,
                plan[1:],
                deps,
                stream.child("branch", branch, "sub"),
                counters,
                node["children"],
            )
            annotated = SearchResult(
                sub_result.profile, sub_result.completed | {subtask}, subtask
            )
            if success:
                node["verdict"] = "accepted"
                return annotated, True
            node["verdict"] = "subtree-failed"
            branch_best = annotated
        else:
            node["verdict"] = "rejected"
            branch_best = SearchResult(outcome.result, frozenset(), subtask)
        attempts.add(subtask)
        inferiors.append(branch_best)
        if len(attempts) != len(plan):
            counters["rollbacks"] += 1
            counters["reschedules"] += 1  # every rollback reschedules the rest of the plan
            plan = tuple(
                reschedule(
                    deps.scheduler,
                    plan,
                    attempts,
                    stream.child("reschedule", branch),
                )
            )
            branch += 1
        else:
            compare = default_comparator(deps.evaluator, stream.child("pickbest"))
            best = pick_best(
                inferiors, lambda a, b: a if compare(a.profile, b.profile) is a.profile else b
            )
            return best, False


def run_workflow(initial: DegradationProfile, deps: WorkflowDeps, seed: int, run_key=()):
    """Evaluate, then search with compromise, or run the plan once when rollback
    or reflection is ablated (without reflection no subtask can be rejected)."""
    stream = Stream(seed, "workflow", *run_key)
    trace = new_trace()
    profile = initial
    try:
        agenda = evaluate_agenda(deps.evaluator, initial, stream.child("evaluate"))
        trace["agenda"] = sorted(agenda)
        if agenda:
            run = _search if deps.use_rollback and deps.use_reflection else _run_straight_line
            profile = run(initial, agenda, deps, stream, trace)
    except (Unschedulable, NoTools) as exc:
        trace["status"] = "error"
        trace["error"] = f"{type(exc).__name__}: {exc}"
    trace["final"] = profile.to_dict()
    return profile, trace


def _search(profile, remaining, deps, stream, trace):
    """DFS over the scheduled agenda; after each failed round, compromise and
    search again over the tasks that round neither completed nor started
    from, until a round succeeds or none are left.  Returns the profile."""
    for outer in itertools.count():
        plan = deps.scheduler.schedule(remaining, rng=stream.child("schedule", outer))
        result, success = dfs(profile, plan, deps, stream.child("outer", outer), trace)
        profile = result.profile
        if success:
            trace["status"] = "success"
            return profile
        trace["counters"]["compromises"] += 1
        trace["status"] = "compromise"
        tasks = frozenset(plan)
        remaining = tasks - result.completed - {result.branch_root}
        if not remaining < tasks:  # a round that removes no task would repeat for ever
            raise RuntimeError(f"compromise round {outer} left its agenda "
                               f"{sorted(map(str, tasks))} whole")
        if not remaining:
            return profile


def _run_straight_line(profile, agenda, deps, stream, trace):
    """Ablated control flow: execute the plan once, keep best-effort results."""
    plan = tuple(deps.scheduler.schedule(agenda, rng=stream.child("schedule", 0)))
    for i in range(len(plan)):
        outcome, node = _step(plan[i:], profile, deps, stream.child("straight", i),
                              trace["counters"], trace["tree"])
        trace["counters"]["nodes"] += 1
        if outcome.status == SUCCESS:
            node["verdict"] = "accepted"
        else:
            node["verdict"] = "kept-best-effort"
            trace["status"] = "compromise"
        node["children"] = []
        profile = outcome.result
    return profile


# --- exhaustive test oracle -------------------------------------------------


class _HalfRng:
    """Degenerate-distribution sampler; only valid for deterministic envs."""

    def random(self):
        return 0.5


def _check_deterministic(env: Environment):
    if env.mode != "mechanistic":
        raise NondeterministicEnv("oracle requires a mechanistic environment")
    for tool in env.tools:
        if any(p not in (0.0, 1.0) for p in tool.probs()):
            raise NondeterministicEnv(f"tool {tool.id!r} has a non-degenerate outcome")
    for rule in env.rules:
        effect = rule.effect
        if isinstance(effect, FailBoost) and effect.delta not in (0.0, 1.0):
            raise NondeterministicEnv("FailBoost delta must be 0 or 1")
        if isinstance(effect, SideEffect) and effect.p not in (0.0, 1.0):
            raise NondeterministicEnv("SideEffect probability must be 0 or 1")


def brute_force_oracle(profile, agenda, env: Environment, accept_candidate: Severity):
    """Enumerates every subtask order and tool-choice sequence.

    Returns (success, witness_plan).  Success means some complete sequence
    keeps every addressed degradation at or below ``accept_candidate``.
    """
    _check_deterministic(env)
    agenda = sorted(frozenset(agenda))
    if len(agenda) > 4:
        raise ValueError("oracle enumeration is limited to agendas of size 4")
    rng = _HalfRng()
    for perm in itertools.permutations(agenda):
        if _attempt_order(profile, perm, env, accept_candidate, rng):
            return True, tuple(perm)
    return False, None


def _attempt_order(state, order, env, accept_candidate, rng):
    if not order:
        return True
    task = order[0]
    for tool in env.tools_for(task):
        result = apply_tool(env, state, tool, rng)
        if result.severity(DEGRADATION_FOR[task]) <= accept_candidate:
            if _attempt_order(result, order[1:], env, accept_candidate, rng):
                return True
    return False
