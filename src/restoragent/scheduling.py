"""Plan construction from agendas, plus the consistency-measurement suite."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .knowledge import KnowledgeBase, retrieve
from .rng import Stream


class Unschedulable(ValueError):
    """No feasible plan exists under the banned-first constraint."""


def _schedulable(agenda, banned_first) -> tuple:
    """(agenda set, banned firsts within it), or Unschedulable when the
    agenda is empty or every task in it is banned from going first."""
    agenda_set = frozenset(agenda)
    if not agenda_set:
        raise Unschedulable("empty agenda")
    banned = frozenset(banned_first) & agenda_set
    if banned >= agenda_set:
        raise Unschedulable("banned_first covers the whole agenda")
    return agenda_set, banned


class ExperienceScheduler:
    """Deterministic scheduler grounded in a knowledge base.

    Exact-match records beat pairwise precedence rules beat the
    lexicographic default; the output never depends on the presentation
    order of the agenda.  The records are indexed by task set when the
    scheduler is built, and a plan is a function of the KB, the agenda and
    the banned firsts, so each is memoised per (agenda, banned & agenda):
    the KB must not be mutated once the scheduler is built.
    """

    def __init__(self, kb: KnowledgeBase | None = None):
        self.kb = kb or KnowledgeBase()
        # Task set -> its exact-match record orders, best first.  The sort is
        # stable, so orders tied on (total_fail, order) keep their KB order,
        # and the first one whose head is not banned is the min of the
        # feasible records.
        self._orders = {}
        for record in sorted(self.kb.records, key=lambda r: (r.total_fail, r.order)):
            self._orders.setdefault(record.tasks, []).append(record.order)
        self._plans = {}  # (agenda, banned & agenda) -> plan

    def schedule(self, agenda, banned_first=frozenset(), rng=None):
        agenda_set, banned = _schedulable(agenda, banned_first)
        key = (agenda_set, banned)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plan(agenda_set, banned)
            if len(plan) != len(agenda_set) or frozenset(plan) != agenda_set:
                raise RuntimeError(
                    f"plan {tuple(map(str, plan))} is not a permutation of its agenda")
            self._plans[key] = plan
        return plan

    def _plan(self, agenda_set, banned):
        for order in self._orders.get(agenda_set, ()):
            if order[0] not in banned:
                return order

        strict = [(r.before, r.after, r.margin)
                  for r in retrieve(self.kb, agenda_set).rules if not r.indifferent]
        # Permutations of the name-sorted agenda come in name order and only a
        # strictly smaller margin replaces the best, so ties go to the first
        # plan by name.  Margins are >= 0, so no later plan beats one that
        # violates nothing: the scan stops there.  Each plan's margin is summed
        # from 0 over the strict rules in rule order, so float ties stay ties.
        tasks = sorted(agenda_set)
        best, best_margin = None, math.inf
        for plan in itertools.permutations(tasks):
            if plan[0] in banned:
                continue
            position = {task: i for i, task in enumerate(plan)}
            margin = sum(m for before, after, m in strict if position[before] > position[after])
            if not margin:
                return plan
            if margin < best_margin:
                best, best_margin = plan, margin
        return best


class RandomScheduler:
    """Uniform random permutation baseline (feasible firsts only)."""

    def schedule(self, agenda, banned_first=frozenset(), rng=None):
        if rng is None:
            raise ValueError("RandomScheduler.schedule requires an rng substream")
        agenda_set, banned = _schedulable(agenda, banned_first)
        eligible = sorted(agenda_set - banned)
        first = eligible[int(rng.integers(len(eligible)))]
        rest = sorted(agenda_set - {first})
        rng.shuffle(rest)
        return (first, *rest)


def reschedule(scheduler, plan, attempts, rng=None):
    """New plan over the same tasks whose head avoids all prior attempts.  A
    scheduler whose plan starts with an attempted task is a bug, which would
    make the search retry that task for ever."""
    tasks = frozenset(plan)
    attempts = frozenset(attempts)
    if not attempts <= tasks:
        raise Unschedulable("attempts must be a subset of the plan's tasks")
    if attempts >= tasks:
        raise Unschedulable("every task has already been attempted")
    new_plan = scheduler.schedule(tuple(plan), banned_first=attempts, rng=rng)
    if new_plan[0] in attempts:
        raise RuntimeError(f"plan {tuple(map(str, new_plan))} starts with "
                           f"{str(new_plan[0])!r}, which was already attempted")
    return new_plan


@dataclass(frozen=True)
class ConsistencyReport:
    entropy_bits: float
    variation_ratio: float
    sensitivity_entropy: float
    sensitivity_vr: float
    n_samples: int


def entropy_bits(counts) -> float:
    total = sum(counts)
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
    if n_per_presentation < 1:
        raise ValueError("n_per_presentation must be >= 1")
    agenda_set = frozenset(agenda)
    presentations = list(itertools.permutations(sorted(agenda_set)))
    streams = [Stream(seed, "consistency", i) for i in range(len(presentations))]
    per_presentation = [
        Counter(
            tuple(scheduler.schedule(presentation, rng=stream.child(j)))
            for j in range(n_per_presentation)
        )
        for presentation, stream in zip(presentations, streams)
    ]
    pooled = sum(per_presentation, Counter())  # keys in first-occurrence order
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
