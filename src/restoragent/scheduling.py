"""Plan construction from agendas, plus the consistency-measurement suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .knowledge import KnowledgeBase, retrieve


class Unschedulable(ValueError):
    """No feasible plan exists under the banned-first constraint."""


def _names(plan) -> tuple:
    return tuple(t.value for t in plan)


class ExperienceScheduler:
    """Deterministic scheduler grounded in a knowledge base.

    Exact-match records beat pairwise precedence rules beat the
    lexicographic default; the output never depends on the presentation
    order of the agenda.
    """

    def __init__(self, kb: KnowledgeBase | None = None):
        self.kb = kb or KnowledgeBase()

    def schedule(self, agenda, banned_first=frozenset(), rng=None):
        agenda_set = frozenset(agenda)
        if not agenda_set:
            raise Unschedulable("empty agenda")
        banned = frozenset(banned_first) & agenda_set
        if banned >= agenda_set:
            raise Unschedulable("banned_first covers the whole agenda")
        found = retrieve(self.kb, agenda_set)

        feasible_records = [r for r in found.records if r.order[0] not in banned]
        if feasible_records:
            best = min(feasible_records, key=lambda r: (r.total_fail, _names(r.order)))
            return best.order

        strict = [r for r in found.rules if not r.indifferent]
        best_plan, best_score = None, None
        for plan in itertools.permutations(sorted(agenda_set, key=lambda t: t.value)):
            if plan[0] in banned:
                continue
            position = {task: i for i, task in enumerate(plan)}
            score = sum(
                rule.margin for rule in strict if position[rule.before] > position[rule.after]
            )
            key = (score, _names(plan))
            if best_score is None or key < best_score:
                best_plan, best_score = plan, key
        return best_plan


class RandomScheduler:
    """Uniform random permutation baseline (feasible firsts only)."""

    def schedule(self, agenda, banned_first=frozenset(), rng=None):
        if rng is None:
            raise ValueError("RandomScheduler.schedule requires an rng substream")
        agenda_set = frozenset(agenda)
        if not agenda_set:
            raise Unschedulable("empty agenda")
        banned = frozenset(banned_first) & agenda_set
        eligible = sorted(agenda_set - banned, key=lambda t: t.value)
        if not eligible:
            raise Unschedulable("banned_first covers the whole agenda")
        first = eligible[int(rng.integers(len(eligible)))]
        rest = sorted(agenda_set - {first}, key=lambda t: t.value)
        order = rng.permutation(len(rest))
        return (first,) + tuple(rest[i] for i in order)


def reschedule(scheduler, plan, attempts, rng=None):
    """New plan over the same tasks whose head avoids all prior attempts."""
    tasks = frozenset(plan)
    attempts = frozenset(attempts)
    if not attempts <= tasks:
        raise Unschedulable("attempts must be a subset of the plan's tasks")
    if attempts >= tasks:
        raise Unschedulable("every task has already been attempted")
    return scheduler.schedule(tuple(plan), banned_first=attempts, rng=rng)


@dataclass(frozen=True)
class ConsistencyReport:
    entropy_bits: float
    variation_ratio: float
    sensitivity_entropy: float
    sensitivity_vr: float
    n_samples: int


def entropy_bits(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def variation_ratio(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    return 1.0 - max(counts) / total


def measure_consistency(scheduler, agenda, n_per_presentation: int, seed: int = 0) -> ConsistencyReport:
    """Scheduling dispersion pooled over all agenda presentation orders.

    Sensitivity per metric M is M(pooled) minus the mean of M over the
    fixed-presentation result distributions.
    """
    from .rng import substream

    if n_per_presentation < 1:
        raise ValueError("n_per_presentation must be >= 1")
    agenda_set = frozenset(agenda)
    presentations = list(
        itertools.permutations(sorted(agenda_set, key=lambda t: t.value))
    )
    pooled = {}
    per_presentation = []
    for i, presentation in enumerate(presentations):
        local = {}
        for j in range(n_per_presentation):
            rng = substream(seed, "consistency", i, j)
            plan = tuple(scheduler.schedule(presentation, rng=rng))
            pooled[plan] = pooled.get(plan, 0) + 1
            local[plan] = local.get(plan, 0) + 1
        per_presentation.append(local)
    n = len(presentations) * n_per_presentation
    h_pooled = entropy_bits(pooled.values())
    vr_pooled = variation_ratio(pooled.values())
    h_mean = sum(entropy_bits(d.values()) for d in per_presentation) / len(presentations)
    vr_mean = sum(variation_ratio(d.values()) for d in per_presentation) / len(presentations)
    return ConsistencyReport(
        entropy_bits=h_pooled,
        variation_ratio=vr_pooled,
        sensitivity_entropy=h_pooled - h_mean,
        sensitivity_vr=vr_pooled - vr_mean,
        n_samples=n,
    )
