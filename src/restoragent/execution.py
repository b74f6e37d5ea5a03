"""Single-subtask execution: tool iteration, reflection gating, PickBest."""

from __future__ import annotations

import enum
import json
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .core import ALL_DEGRADATIONS, DegradationProfile, Severity, TaskKind
from .envsim import Environment, apply_tool
from .perception import reflect


class NoTools(ValueError):
    """No tool is available for the requested subtask."""


class EmptyCandidates(ValueError):
    """pick_best was called without candidates."""


class ToolOrder(str, enum.Enum):
    FIXED_REGISTRY = "fixed"
    SEEDED_SHUFFLE = "shuffle"


@dataclass(frozen=True)
class ExecutionPolicy:
    accept_now: Severity = Severity.VERY_LOW
    accept_candidate: Severity = Severity.LOW
    tool_order: ToolOrder = ToolOrder.SEEDED_SHUFFLE

    def __post_init__(self):
        if self.accept_now > self.accept_candidate:
            raise ValueError("accept_now must be at most accept_candidate")

    def strict(self) -> "ExecutionPolicy":
        """Variant accepting only very-low residual severity."""
        return ExecutionPolicy(Severity.VERY_LOW, Severity.VERY_LOW, self.tool_order)


class Status(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass
class SubtaskOutcome:
    status: Status
    result: DegradationProfile
    tools_tried: list = field(default_factory=list)
    invocations: int = 0
    candidates_considered: int = 0


class SimulatorToolAdapter:
    """Wraps an environment ToolSpec behind the adapter interface."""

    def __init__(self, env: Environment, tool):
        self.env = env
        self.tool = tool
        self.id = tool.id
        self.task = tool.task

    def invoke(self, profile: DegradationProfile, rng) -> DegradationProfile:
        return apply_tool(self.env, profile, self.tool, rng)


class CommandToolAdapter:
    """External tool declared as a shell command exchanging profile JSON files."""

    def __init__(self, id: str, task: TaskKind, template: str):
        self.id = id
        self.task = task
        self.template = template

    def invoke(self, profile: DegradationProfile, rng=None) -> DegradationProfile:
        with tempfile.TemporaryDirectory(prefix="restoragent-tool-") as tmp:
            inp = Path(tmp) / "input.json"
            out = Path(tmp) / "output.json"
            inp.write_text(json.dumps(profile.to_dict()), encoding="utf-8")
            command = self.template.format(input=str(inp), output=str(out))
            subprocess.run(shlex.split(command), check=True)
            return DegradationProfile.from_dict(json.loads(out.read_text(encoding="utf-8")))


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
    if not candidates:
        raise EmptyCandidates("pick_best needs at least one candidate")
    best = candidates[0]
    for challenger in candidates[1:]:
        best = comparator(best, challenger)
    return best


def default_comparator(evaluator, rng=None):
    """Profile with the lower sorted severity multiset wins; ties keep the
    first argument, making pick_best stable."""

    def signature(profile):
        severities = [evaluator.assess(profile, d, rng) for d in ALL_DEGRADATIONS]
        return tuple(sorted(severities, reverse=True))

    def compare(a, b):
        return b if signature(b) < signature(a) else a

    return compare


def execute_subtask(
    task: TaskKind,
    profile: DegradationProfile,
    tools,
    evaluator,
    policy: ExecutionPolicy,
    stream,
    use_reflection: bool = True,
) -> SubtaskOutcome:
    """Iterate tools for one subtask with reflection-gated acceptance.

    ``tools`` is the task -> adapters mapping from ``adapters_for``.
    ``stream`` is an rng Stream handle; each invocation and reflection draws
    from its own child substream, and PickBest compares under the
    ``compare`` child.
    """
    tools = tools.get(task, [])
    if not tools:
        raise NoTools(f"no tools registered for {task.value!r}")

    # A one-element permutation takes no draw, so a single tool needs no shuffle.
    if policy.tool_order is ToolOrder.SEEDED_SHUFFLE and len(tools) > 1:
        order = stream.child("tool-order").permutation(len(tools))
        tools = [tools[i] for i in order]

    comparator = default_comparator(evaluator, stream.child("compare"))

    candidates = []
    produced = []
    tried = []
    for i, adapter in enumerate(tools):
        result = adapter.invoke(profile, stream.child("invoke", i))
        tried.append(adapter.id)
        produced.append(result)
        if not use_reflection:
            # Reflection ablated: the first tool result is accepted as-is.
            return SubtaskOutcome(Status.SUCCESS, result, tried, len(tried), 0)
        severity = reflect(evaluator, result, task, stream.child("reflect", i))
        if severity <= policy.accept_now:
            return SubtaskOutcome(Status.SUCCESS, result, tried, len(tried), len(candidates))
        if severity <= policy.accept_candidate:
            candidates.append(result)

    if candidates:
        best = pick_best(candidates, comparator)
        return SubtaskOutcome(Status.SUCCESS, best, tried, len(tried), len(candidates))
    best = pick_best(produced, comparator)
    return SubtaskOutcome(Status.FAILURE, best, tried, len(tried), 0)
