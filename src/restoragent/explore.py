"""Self-exploration: straight-line trials over every permutation of each
training combination, judged on the final profile."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .core import TASK_FOR, Severity, combinations_in_group, initial_profile
from .envsim import Environment, NoTools, apply_tool
from .knowledge import KnowledgeBase, aggregate, distill
from .perception import PerfectOracle
from .rng import Stream, substream


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


class _Replay:
    """One draw for a tabular step, replayed into ``apply_tool``; a second
    draw raises, so the path cannot drift from the step it stands for."""

    __slots__ = ("u",)

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        u, self.u = self.u, None
        if u is None:
            raise RuntimeError("a tabular step drew more than once")
        return u


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
    draws nothing), no step draws ``integers`` (one tool per task), so a
    trial takes its n draws at once, as ``substream(seed, per_order,
    ti).random(n)``: the same doubles as n ``random()`` calls on that child
    stream.  Step k succeeds when its draw reaches its fail probability
    p_k, and three facts of the tabular model make the flags a function of
    which steps succeeded:

    1. Along a straight-line order from an initial profile, the mixture
       looked up (present degradations and those the history addressed)
       stays the combination and the prefix stays the order's prefix, so
       p_k does not depend on earlier outcomes.
    2. A tabular step changes only its own degradation: to ``VERY_LOW``,
       or not at all.
    3. The exact ``PerfectOracle`` reads each degradation's stored severity
       on its own.

    So p_k is read from the calibration at the order's prefix,
    ``fail_prob(combo.key, order[:k + 1])``, and by facts 2 and 3 every
    order's all-succeed path ends at the same flags.  One walk per
    combination, before the sample loop, along its first order with every
    step succeeding gives those flags.  Task k's flag is the one at the
    walk's end if its draw reaches p_k, else the initial profile's; each
    outcome tuple's flags are built once and copied per trial.  The walk
    stays, although the outcome alone fixes the flags, because the
    benchmark's trace mode expects this path to call ``apply_tool``, the
    profile methods and the oracle until ROADMAP item 1.  Any other env or
    evaluator applies every step of every trial.
    """
    evaluator = evaluator or PerfectOracle()
    for combo in config.combinations:
        # In synthesis order: a set of tasks iterates in hash-seed order.
        for task in map(TASK_FOR.__getitem__, combo.degradations):
            if not env.tools_for(task):
                raise NoTools(f"no tools for {str(task)!r}")
    memo = env.mode == "tabular" and type(evaluator) is PerfectOracle
    threshold = config.success_threshold
    trials = []
    for ci, combo in enumerate(config.combinations):
        key = combo.key
        degradations = combo.degradations
        flag_tasks = [TASK_FOR[d] for d in degradations]
        tasks = sorted(combo.tasks)
        orders = [
            (order, [env.tools_for(task) for task in order])
            for order in itertools.permutations(tasks)
        ]

        def judge(state, rng):
            severities = evaluator.assess(state, degradations, rng)
            return {task: s <= threshold for task, s in zip(flag_tasks, severities)}

        if memo:
            start = initial_profile(combo, 0)
            initial = judge(start, None)
            state = start.copy()
            for tool, in orders[0][1]:  # a tabular env has one tool per task
                state = apply_tool(env, state, tool, _Replay(1.0))
            success = judge(state, None)
            paths = [
                ([env.calibration.fail_prob(key, order[:k + 1]) for k in range(len(order))],
                 [order.index(task) for task in flag_tasks], {})
                for order, _ in orders
            ]
        for si in range(config.samples_per_combination):
            if not memo:
                base = initial_profile(combo, si)
            for pi, (order, tool_lists) in enumerate(orders):
                per_order = Stream(config.seed, "explore", ci, si, pi)
                if memo:
                    p_fails, steps_of, flags_by_outcome = paths[pi]
                    n_steps = len(p_fails)
                    for ti in range(config.trials_per_sample):
                        draws = substream(config.seed, per_order, ti).random(n_steps).tolist()
                        outcome = tuple(map(operator.ge, draws, p_fails))
                        flags = flags_by_outcome.get(outcome)
                        if flags is None:
                            flags = flags_by_outcome[outcome] = {
                                task: (success if outcome[k] else initial)[task]
                                for task, k in zip(flag_tasks, steps_of)
                            }
                        trials.append((key, order, flags.copy()))
                else:
                    for ti in range(config.trials_per_sample):
                        rng = per_order.child(ti)
                        state = base.copy()
                        for tools in tool_lists:
                            state = apply_tool(env, state, tools[int(rng.integers(len(tools)))], rng)
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
