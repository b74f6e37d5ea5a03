"""Self-exploration: straight-line trials over every permutation of each
training combination, judged on the final profile."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .core import Severity, combinations_in_group, initial_profile, task_for
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
        if self.samples_per_combination < 1:
            raise ValueError("samples_per_combination must be >= 1")
        if self.trials_per_sample < 1:
            raise ValueError("trials_per_sample must be >= 1")
        if self.success_threshold not in (Severity.VERY_LOW, Severity.LOW):
            raise ValueError("success_threshold must be VERY_LOW or LOW")
        operator.index(self.seed)  # TypeError unless an integer


def explore(env: Environment, config: ExplorationConfig, evaluator=None) -> list:
    """Run every permutation of every combination straight through.

    Yields (combination degradation set, order, per-task success flags)
    tuples; no rollback and no rescheduling are ever involved.  Tool choice
    is uniform per step; per-task success is judged on the final profile.
    """
    evaluator = evaluator or PerfectOracle()
    for combo in config.combinations:
        for task in combo.tasks:
            if not env.tools_for(task):
                raise MissingTools(f"no tools for {task.value!r}")
    trials = []
    for ci, combo in enumerate(config.combinations):
        tasks = sorted(combo.tasks, key=lambda t: t.value)
        for si in range(config.samples_per_combination):
            base = initial_profile(combo, si)
            for pi, order in enumerate(itertools.permutations(tasks)):
                for ti in range(config.trials_per_sample):
                    rng = Stream(config.seed, "explore", ci, si, pi, ti)
                    state = base.copy()
                    for task in order:
                        tools = env.tools_for(task)
                        # integers(1) consumes no draw, so skipping it keeps the stream.
                        tool = tools[int(rng.integers(len(tools)))] if len(tools) > 1 else tools[0]
                        state = apply_tool(env, state, tool, rng)
                    flags = {
                        task: evaluator.assess(state, d, rng) <= config.success_threshold
                        for d in combo.degradations
                        for task in (task_for(d),)
                    }
                    trials.append((combo.key, order, flags))
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
