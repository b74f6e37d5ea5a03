"""Self-exploration: straight-line trials over every permutation of each
training combination, judged on the final profile."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

from .core import TASK_VALUE, Severity, combinations_in_group, initial_profile, task_for
from .envsim import Environment, apply_tool
from .knowledge import KnowledgeBase, aggregate, distill
from .perception import PerfectOracle
from .rng import Stream


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
        for name in ("samples_per_combination", "trials_per_sample", "seed"):
            value = getattr(self, name)
            # A bool is an Integral, but JSON ``true`` is no count and no seed.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if self.samples_per_combination < 1:
            raise ValueError("samples_per_combination must be >= 1")
        if self.trials_per_sample < 1:
            raise ValueError("trials_per_sample must be >= 1")
        if self.success_threshold not in (Severity.VERY_LOW, Severity.LOW):
            raise ValueError("success_threshold must be VERY_LOW or LOW")


def explore(env: Environment, config: ExplorationConfig, evaluator=None) -> list:
    """Run every permutation of every combination straight through.

    Returns a list of (combination degradation set, order, per-task success
    flags) tuples; no rollback and no rescheduling are ever involved.  Tool
    choice is uniform per step; per-task success is judged on the final
    profile.  A combination's key and flag tasks and an order's tool lists
    are built once, not per trial.
    """
    evaluator = evaluator or PerfectOracle()
    for combo in config.combinations:
        # In synthesis order: a set of tasks iterates in memory-address order.
        for task in map(task_for, combo.degradations):
            if not env.tools_for(task):
                raise MissingTools(f"no tools for {task.value!r}")
    threshold = config.success_threshold
    trials = []
    for ci, combo in enumerate(config.combinations):
        key = combo.key
        degradations = combo.degradations
        flag_tasks = [task_for(d) for d in degradations]
        tasks = sorted(combo.tasks, key=TASK_VALUE.__getitem__)
        orders = [
            (order, [env.tools_for(task) for task in order])
            for order in itertools.permutations(tasks)
        ]
        for si in range(config.samples_per_combination):
            base = initial_profile(combo, si)
            for pi, (order, tool_lists) in enumerate(orders):
                per_order = Stream(config.seed, "explore", ci, si, pi)
                for ti in range(config.trials_per_sample):
                    rng = per_order.child(ti)
                    state = base.copy()
                    for tools in tool_lists:
                        # integers(1) consumes no draw, so skipping it keeps the stream.
                        tool = tools[int(rng.integers(len(tools)))] if len(tools) > 1 else tools[0]
                        state = apply_tool(env, state, tool, rng)
                    severities = evaluator.assess(state, degradations, rng)
                    flags = {task: s <= threshold for task, s in zip(flag_tasks, severities)}
                    trials.append((key, order, flags))
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
