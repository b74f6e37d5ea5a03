"""Single-subtask execution: tool iteration, reflection gating, PickBest."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import ALL_DEGRADATIONS, VERY_LOW, DegradationProfile, Severity, TaskKind
from .envsim import Environment, NoTools, apply_tool
from .perception import reflect


class _Status(str):
    """A status string; the benchmark's trace mode reads its ``value`` until ROADMAP item 1."""

    __slots__ = ()
    value = property(str.__str__)


#: A subtask outcome's status, as a trace writes it.
SUCCESS, FAILURE = _Status("success"), _Status("failure")


@dataclass
class SubtaskOutcome:
    status: str  # SUCCESS | FAILURE
    result: DegradationProfile
    tools_tried: list = field(default_factory=list)

    @property
    def invocations(self) -> int:
        return len(self.tools_tried)


class SimulatorToolAdapter:
    """Wraps an environment ToolSpec behind the adapter interface."""

    def __init__(self, env: Environment, tool):
        self.env = env
        self.tool = tool
        self.id = tool.id

    def invoke(self, profile: DegradationProfile, rng) -> DegradationProfile:
        return apply_tool(self.env, profile, self.tool, rng)


def adapters_for(env: Environment) -> dict:
    """task -> [ToolAdapter], in registry order."""
    adapters = {}
    for tool in env.tools:
        adapters.setdefault(tool.task, []).append(SimulatorToolAdapter(env, tool))
    return adapters


def pick_best(candidates, comparator):
    """Linear scan keeping the pairwise winner; exactly n-1 comparisons.

    With a non-transitive comparator this is scan semantics, not a global
    maximum.
    """
    candidates = list(candidates)
    best = candidates[0]
    for challenger in candidates[1:]:
        best = comparator(best, challenger)
    return best


def default_comparator(evaluator, rng=None):
    """Profile with the lower sorted severity multiset wins; ties keep the
    first argument, making pick_best stable."""

    def signature(profile):
        return tuple(sorted(evaluator.assess(profile, ALL_DEGRADATIONS, rng), reverse=True))

    def compare(a, b):
        return b if signature(b) < signature(a) else a

    return compare


def execute_subtask(
    task: TaskKind,
    profile: DegradationProfile,
    tools,
    evaluator,
    accept_candidate: Severity,
    stream,
    use_reflection: bool = True,
) -> SubtaskOutcome:
    """Iterate tools for one subtask with reflection-gated acceptance.

    ``tools`` is the task -> adapters mapping from ``adapters_for``; the
    task's tools run in an order shuffled under the ``tool-order`` child of
    ``stream``, an rng Stream handle.  Each invocation and reflection draws
    from its own child substream, and PickBest compares under the
    ``compare`` child.  A result reflected at VERY_LOW is accepted at once;
    one at most ``accept_candidate`` is kept as a PickBest candidate.
    """
    tools = tools.get(task, [])
    if not tools:
        raise NoTools(f"no tools registered for {str(task)!r}")

    # A one-tool shuffle draws nothing; skipping it saves a list copy and a child stream.
    if len(tools) > 1:
        tools = list(tools)
        stream.child("tool-order").shuffle(tools)

    candidates = []
    produced = []
    tried = []
    for i, adapter in enumerate(tools):
        result = adapter.invoke(profile, stream.child("invoke", i))
        tried.append(adapter.id)
        produced.append(result)
        if not use_reflection:
            # Reflection ablated: the first tool result is accepted as-is.
            return SubtaskOutcome(SUCCESS, result, tried)
        severity = reflect(evaluator, result, task, stream.child("reflect", i))
        if severity == VERY_LOW:
            return SubtaskOutcome(SUCCESS, result, tried)
        if severity <= accept_candidate:
            candidates.append(result)

    # Built only here: most subtasks end before they reach PickBest.
    comparator = default_comparator(evaluator, stream.child("compare"))
    if candidates:
        return SubtaskOutcome(SUCCESS, pick_best(candidates, comparator), tried)
    return SubtaskOutcome(FAILURE, pick_best(produced, comparator), tried)
