"""Self-exploration: straight-line trials over every permutation of each
training combination, judged on the final profile."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import TASK_FOR, TASK_VALUE, Severity, combinations_in_group, initial_profile
from .envsim import Environment, apply_tool, tabular_fail_prob
from .knowledge import KnowledgeBase, aggregate, distill
from .perception import PerfectOracle
from .rng import Stream, substream


class MissingTools(ValueError):
    """The environment lacks tools for a combination's tasks."""


@dataclass
class ExplorationConfig:
    combinations: list = field(default_factory=lambda: combinations_in_group("A"))
    samples_per_combination: int = 20
    trials_per_sample: int = 25
    success_threshold: Severity = Severity.LOW
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_combination < 1:
            raise ValueError("samples_per_combination must be >= 1")
        if self.trials_per_sample < 1:
            raise ValueError("trials_per_sample must be >= 1")
        if self.success_threshold not in (Severity.VERY_LOW, Severity.LOW):
            raise ValueError("success_threshold must be VERY_LOW or LOW")


class _Node:
    """One state of a (sample, order)'s tree of tabular step outcomes."""

    __slots__ = ("state", "depth", "p_fail", "children", "flags")

    def __init__(self, env: Environment, state, steps: list, depth: int):
        self.state = state
        self.depth = depth  # the number of steps taken to reach state
        # The fail probability of the order's next step; None at a leaf.
        self.p_fail = tabular_fail_prob(env, state, steps[depth]) if depth < len(steps) else None
        self.children = [None, None]  # [u >= p_fail] -> _Node
        self.flags = None  # at a leaf: the per-task success flags of state

    def child(self, env: Environment, steps: list, u: float) -> "_Node":
        """The node the order's next step reaches from this one on draw ``u``,
        built by ``apply_tool`` replaying ``u`` and kept on that side of p_fail."""
        state = apply_tool(env, self.state, steps[self.depth], _Replay(u))
        child = self.children[u >= self.p_fail] = _Node(env, state, steps, self.depth + 1)
        return child


class _Replay:
    """A trial's one draw for a tabular step, replayed into ``apply_tool``;
    a second draw raises, so the tree cannot drift from the step it caches."""

    __slots__ = ("u",)

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        u, self.u = self.u, None
        if u is None:
            raise RuntimeError("a tabular step drew more than once")
        return u


def _pick(tools: list, rng):
    """A uniform choice among a step's tools; integers(1) consumes no draw,
    so a task with one tool skips it and keeps the stream."""
    return tools[int(rng.integers(len(tools)))] if len(tools) > 1 else tools[0]


def explore(env: Environment, config: ExplorationConfig, evaluator=None) -> list:
    """Run every permutation of every combination straight through.

    Returns a list of (combination degradation set, order, per-task success
    flags) tuples; no rollback and no rescheduling are ever involved.  Tool
    choice is uniform per step; per-task success is judged on the final
    profile.  A combination's key and flag tasks and an order's tool lists
    are built once, not per trial.

    Trial ``ti`` of order ``pi`` of sample ``si`` of combination ``ci``
    always draws from ``Stream(seed, "explore", ci, si, pi).child(ti)``.  On
    a tabular env judged by a ``PerfectOracle`` (that exact type, which
    draws nothing) a step's result depends only on its state, its tool and
    whether its draw ``u`` reaches the fail probability.  A tabular env has
    one tool per task, so no step draws ``integers``: a trial takes its n
    draws at once, as ``substream(seed, per_order, ti).random(n)``, the same
    doubles as n ``random()`` calls on that child stream.  Each (sample,
    order) keeps a two-way tree of the states its trials reached: a node
    holds the fail probability of the order's next step and its children
    by ``u >= p_fail``, and a trial walks it and copies the flags cached at
    its leaf.  ``apply_tool`` builds each state once, from the trial that
    first reaches it; any other env or evaluator applies every step of
    every trial.
    """
    evaluator = evaluator or PerfectOracle()
    for combo in config.combinations:
        # In synthesis order: a set of tasks iterates in memory-address order.
        for task in map(TASK_FOR.__getitem__, combo.degradations):
            if not env.tools_for(task):
                raise MissingTools(f"no tools for {task.value!r}")
    memo = env.mode == "tabular" and type(evaluator) is PerfectOracle
    threshold = config.success_threshold
    trials = []
    for ci, combo in enumerate(config.combinations):
        key = combo.key
        degradations = combo.degradations
        flag_tasks = [TASK_FOR[d] for d in degradations]
        tasks = sorted(combo.tasks, key=TASK_VALUE.__getitem__)
        orders = [
            (order, [env.tools_for(task) for task in order])
            for order in itertools.permutations(tasks)
        ]

        def judge(state, rng):
            severities = evaluator.assess(state, degradations, rng)
            return {task: s <= threshold for task, s in zip(flag_tasks, severities)}

        for si in range(config.samples_per_combination):
            base = initial_profile(combo, si)
            for pi, (order, tool_lists) in enumerate(orders):
                per_order = Stream(config.seed, "explore", ci, si, pi)
                if memo:
                    # A tabular env has one tool per task, so no step draws integers.
                    steps = [tool for tool, in tool_lists]
                    n_steps = len(steps)
                    root = _Node(env, base.copy(), steps, 0)
                    for ti in range(config.trials_per_sample):
                        node = root
                        for u in substream(config.seed, per_order, ti).random(n_steps).tolist():
                            node = node.children[u >= node.p_fail] or node.child(env, steps, u)
                        flags = node.flags
                        if flags is None:
                            flags = node.flags = judge(node.state, None)
                        trials.append((key, order, flags.copy()))
                else:
                    for ti in range(config.trials_per_sample):
                        rng = per_order.child(ti)
                        state = base.copy()
                        for tools in tool_lists:
                            state = apply_tool(env, state, _pick(tools, rng), rng)
                        trials.append((key, order, judge(state, rng)))
    return trials


def explore_and_build_kb(env: Environment, config: ExplorationConfig, evaluator=None) -> KnowledgeBase:
    """explore -> aggregate -> distill, with a provenance line."""
    trials = explore(env, config, evaluator)
    records = aggregate(trials)
    rules = distill(records)
    provenance = (
        f"self-exploration: {len(config.combinations)} combinations, "
        f"{config.samples_per_combination} samples x {config.trials_per_sample} trials, "
        f"success threshold '{config.success_threshold.label}', seed {config.seed}"
    )
    return KnowledgeBase(records, rules, provenance)
