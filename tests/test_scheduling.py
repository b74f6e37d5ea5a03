import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from restoragent.core import DEGRADATION_FOR, Degradation, TaskKind, builtin_combinations
from restoragent.envsim import reference_tabular_env
from restoragent.explore import ExplorationConfig, explore_and_build_kb
from restoragent.knowledge import ExperienceRecord, KnowledgeBase, distill, reference_kb
from restoragent import rng as rng_module
from restoragent.rng import Stream, substream
from restoragent.scheduling import (
    ExperienceScheduler,
    RandomScheduler,
    Unschedulable,
    entropy_bits,
    measure_consistency,
    reschedule,
    variation_ratio,
)

T = TaskKind


class PresentationEchoScheduler:
    """Returns the agenda exactly as presented; maximally order-sensitive."""

    def schedule(self, agenda, banned_first=frozenset(), rng=None):
        return tuple(agenda)


def test_experience_schedule_prefers_lower_total_fail():
    scheduler = ExperienceScheduler(reference_kb())
    assert scheduler.schedule({T.DERAINING, T.DEHAZING}) == (T.DERAINING, T.DEHAZING)


def test_experience_schedule_tie_breaks_lexicographically():
    scheduler = ExperienceScheduler(reference_kb())
    plan = scheduler.schedule({T.DENOISING, T.JPEG_ARTIFACT_REMOVAL})
    assert plan == (T.DENOISING, T.JPEG_ARTIFACT_REMOVAL)


def test_experience_schedule_banned_first_forces_other_order():
    scheduler = ExperienceScheduler(reference_kb())
    plan = scheduler.schedule({T.DERAINING, T.DEHAZING}, banned_first={T.DERAINING})
    assert plan == (T.DEHAZING, T.DERAINING)


def test_experience_schedule_rules_fallback():
    # no exact record for this 3-task agenda; pairwise rules order it
    scheduler = ExperienceScheduler(reference_kb())
    agenda = {T.DERAINING, T.DEHAZING, T.SUPER_RESOLUTION}
    plan = scheduler.schedule(agenda)
    assert set(plan) == agenda
    assert plan.index(T.DERAINING) < plan.index(T.DEHAZING)
    assert plan.index(T.DERAINING) < plan.index(T.SUPER_RESOLUTION)


def test_experience_schedule_empty_kb_sorts_by_name():
    agenda = (T.SUPER_RESOLUTION, T.DERAINING, T.DEHAZING)
    assert ExperienceScheduler().schedule(agenda) == (T.DEHAZING, T.DERAINING, T.SUPER_RESOLUTION)


def test_experience_schedule_rules_banned_first():
    # no exact record for this agenda, so the pairwise rules score every plan
    scheduler = ExperienceScheduler(reference_kb())
    agenda = {T.DERAINING, T.DEHAZING, T.SUPER_RESOLUTION}
    plan = scheduler.schedule(agenda, banned_first={T.DERAINING})
    assert plan == (T.DEHAZING, T.DERAINING, T.SUPER_RESOLUTION)
    # with no rules every allowed plan ties, and the name-first one wins
    plan = ExperienceScheduler().schedule(agenda, banned_first={T.DEHAZING})
    assert plan == (T.DERAINING, T.DEHAZING, T.SUPER_RESOLUTION)


def test_experience_schedule_published_preferred_orders():
    scheduler = ExperienceScheduler(reference_kb())
    expected = {
        frozenset({T.DENOISING, T.BRIGHTENING}): (T.DENOISING, T.BRIGHTENING),
        frozenset({T.DEFOCUS_DEBLURRING, T.DEHAZING}): (T.DEFOCUS_DEBLURRING, T.DEHAZING),
        frozenset({T.JPEG_ARTIFACT_REMOVAL, T.DEFOCUS_DEBLURRING}): (
            T.JPEG_ARTIFACT_REMOVAL, T.DEFOCUS_DEBLURRING),
        frozenset({T.MOTION_DEBLURRING, T.BRIGHTENING}): (T.MOTION_DEBLURRING, T.BRIGHTENING),
        frozenset({T.MOTION_DEBLURRING, T.SUPER_RESOLUTION}): (
            T.MOTION_DEBLURRING, T.SUPER_RESOLUTION),
        frozenset({T.DERAINING, T.DEHAZING}): (T.DERAINING, T.DEHAZING),
        frozenset({T.DERAINING, T.SUPER_RESOLUTION}): (T.DERAINING, T.SUPER_RESOLUTION),
    }
    for agenda, plan in expected.items():
        assert scheduler.schedule(agenda) == plan


def test_experience_schedule_presentation_invariance():
    scheduler = ExperienceScheduler(reference_kb())
    agenda = (T.DEHAZING, T.DERAINING, T.DENOISING)
    plans = {scheduler.schedule(p) for p in itertools.permutations(agenda)}
    assert len(plans) == 1


def test_experience_schedule_unschedulable():
    scheduler = ExperienceScheduler(reference_kb())
    with pytest.raises(Unschedulable):
        scheduler.schedule({T.DERAINING}, banned_first={T.DERAINING})
    with pytest.raises(Unschedulable):
        scheduler.schedule(set())


def test_a_record_order_missing_a_task_is_a_program_error():
    record = ExperienceRecord(
        frozenset({Degradation.RAIN, Degradation.HAZE}),
        (T.DEHAZING,),
        {T.DERAINING: 0.1, T.DEHAZING: 0.2},
        0.15,
        100,
    )
    scheduler = ExperienceScheduler(KnowledgeBase([record]))
    for _ in range(2):  # the bad plan is not memoised either
        with pytest.raises(RuntimeError, match="not a permutation of its agenda"):
            scheduler.schedule({T.DERAINING, T.DEHAZING})


tasks_strategy = st.sets(st.sampled_from(list(TaskKind)), min_size=1, max_size=5)


@given(agenda=tasks_strategy)
@settings(max_examples=100)
def test_schedule_is_permutation_of_agenda(agenda):
    scheduler = ExperienceScheduler(reference_kb())
    plan = scheduler.schedule(agenda)
    assert sorted(plan, key=lambda t: t.value) == sorted(agenda, key=lambda t: t.value)


def test_random_schedule_singleton_and_determinism():
    assert RandomScheduler().schedule({T.DERAINING}, rng=substream(0, 1)) == (T.DERAINING,)
    a = RandomScheduler().schedule(set(TaskKind), rng=substream(0, 2))
    b = RandomScheduler().schedule(set(TaskKind), rng=substream(0, 2))
    assert a == b


def test_random_schedule_uniform_two_tasks():
    agenda = {T.DERAINING, T.DEHAZING}
    n = 10_000
    first_derain = sum(
        RandomScheduler().schedule(agenda, rng=substream(1, i))[0] is T.DERAINING for i in range(n)
    )
    sigma = math.sqrt(0.25 / n)
    assert abs(first_derain / n - 0.5) <= 3 * sigma


def test_reschedule_contract():
    scheduler = ExperienceScheduler(reference_kb())
    plan = (T.DERAINING, T.DEHAZING)
    assert reschedule(scheduler, plan, {T.DERAINING}) == (T.DEHAZING, T.DERAINING)
    with pytest.raises(Unschedulable):
        reschedule(scheduler, plan, {T.DERAINING, T.DEHAZING})
    with pytest.raises(Unschedulable):
        reschedule(scheduler, plan, {T.BRIGHTENING})


def test_reschedule_rejects_a_plan_that_starts_with_an_attempted_task():
    """A scheduler that ignores ``banned_first`` would make the search retry
    its first task for ever, so reschedule raises instead."""
    plan = (T.DERAINING, T.DEHAZING)
    with pytest.raises(RuntimeError, match="starts with 'deraining', which was already attempted"):
        reschedule(PresentationEchoScheduler(), plan, {T.DERAINING})


def test_random_reschedule_with_one_eligible_task_builds_no_substream(monkeypatch):
    """integers(1) and a one-task shuffle take no draw, so they are skipped
    and the stream's substream is never built; the plan is unchanged."""
    built = []
    original = rng_module.substream

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(rng_module, "substream", counted)
    plan = (T.DERAINING, T.DEHAZING)
    for seed in range(20):
        stream = Stream(seed, "workflow", 0).child("reschedule", 0)
        assert reschedule(RandomScheduler(), plan, {T.DERAINING}, stream) == (T.DEHAZING, T.DERAINING)
    assert built == []
    # Two eligible tasks still take their draws.
    RandomScheduler().schedule(plan, rng=Stream(0, "workflow", 0).child("schedule", 0))
    assert len(built) == 1


def test_reschedule_respects_kb_preferences():
    scheduler = ExperienceScheduler(reference_kb())
    plan = (T.DEHAZING, T.DERAINING, T.SUPER_RESOLUTION)
    new = reschedule(scheduler, plan, {T.DEHAZING})
    assert new[0] is not T.DEHAZING
    assert new[0] is T.DERAINING  # derain precedes both others in the rules


def test_consistency_deterministic_scheduler_all_zero():
    report = measure_consistency(ExperienceScheduler(reference_kb()),
                                 {T.DERAINING, T.DEHAZING}, 10)
    assert report.entropy_bits == 0.0
    assert report.variation_ratio == 0.0
    assert report.sensitivity_entropy == 0.0
    assert report.sensitivity_vr == 0.0
    assert report.n_samples == 20


def test_consistency_presentation_echo_closed_form():
    report = measure_consistency(PresentationEchoScheduler(),
                                 {T.DERAINING, T.DEHAZING}, 30)
    assert report.entropy_bits == pytest.approx(1.0)
    assert report.variation_ratio == pytest.approx(0.5)
    assert report.sensitivity_entropy == pytest.approx(1.0)
    assert report.sensitivity_vr == pytest.approx(0.5)


def test_consistency_uniform_random_two_tasks():
    report = measure_consistency(RandomScheduler(), {T.DERAINING, T.DEHAZING}, 5000)
    sigma = math.sqrt(0.25 / report.n_samples)
    assert report.entropy_bits == pytest.approx(1.0, abs=0.01)
    assert abs(report.variation_ratio - 0.5) <= 3 * sigma + 0.01
    assert abs(report.sensitivity_entropy) < 0.01
    assert abs(report.sensitivity_vr) < 0.05


def test_consistency_single_sample_zero_entropy():
    report = measure_consistency(RandomScheduler(), {T.DERAINING}, 1)
    assert report.entropy_bits == 0.0


def test_entropy_helpers():
    assert entropy_bits([10]) == 0.0
    assert entropy_bits([5, 5, 5, 5]) == pytest.approx(2.0)
    assert variation_ratio([10]) == 0.0
    assert variation_ratio([5, 5]) == pytest.approx(0.5)


def test_entropy_bounded_by_permutation_count():
    report = measure_consistency(RandomScheduler(),
                                 {T.DERAINING, T.DEHAZING, T.DENOISING}, 50)
    assert report.entropy_bits <= math.log2(math.factorial(3)) + 1e-9


def test_memoised_plans_equal_a_fresh_schedulers_for_every_small_agenda():
    kb = reference_kb()
    memoising = ExperienceScheduler(kb)
    tasks = sorted(TaskKind, key=lambda t: t.value)
    for size in (1, 2, 3):
        for agenda in itertools.combinations(tasks, size):
            outside = next(t for t in tasks if t not in agenda)
            for n_banned in range(size + 1):
                for banned in map(frozenset, itertools.combinations(agenda, n_banned)):
                    if banned == frozenset(agenda):
                        for _ in range(2):
                            with pytest.raises(Unschedulable):
                                memoising.schedule(agenda, banned)
                        continue
                    fresh = ExperienceScheduler(kb).schedule(agenda, banned)
                    assert memoising.schedule(agenda, banned) == fresh
                    # Same key: presentation order and banned tasks outside the agenda don't count.
                    assert memoising.schedule(agenda[::-1], banned | {outside}) == fresh


def _synthetic_kb():
    """Records of 2 and 3 tasks, listed out of name order.  With deraining
    banned, two rain + haze + noise orders tie on total_fail (the rates are
    binary fractions, so the means tie exactly) and names break the tie."""
    rates = {
        (T.DENOISING, T.DERAINING, T.DEHAZING): (0.125, 0.25, 0.375),
        (T.DEHAZING, T.DERAINING, T.DENOISING): (0.375, 0.25, 0.125),
        (T.DERAINING, T.DEHAZING, T.DENOISING): (0.25, 0.25, 0.5),
        (T.DERAINING, T.DENOISING, T.DEHAZING): (0.0625, 0.125, 0.1875),
        (T.DERAINING, T.DEHAZING): (0.125, 0.25),
        (T.DEHAZING, T.DERAINING): (0.5, 0.25),
        (T.SUPER_RESOLUTION, T.DERAINING): (0.375, 0.0),
        (T.DERAINING, T.SUPER_RESOLUTION): (0.0, 0.375),
    }
    records = []
    for order, fails in rates.items():
        per_task = dict(zip(order, fails))
        combination = frozenset(DEGRADATION_FOR[t] for t in order)
        records.append(ExperienceRecord(combination, order, per_task, sum(fails) / len(fails), 10))
    assert records[0].total_fail == records[1].total_fail
    return KnowledgeBase(records, distill(records))


def _record_then_rule_plan(kb, agenda, banned):
    """From scratch: the feasible exact-match record least by (total_fail,
    task names), else the rule-scored plan."""
    feasible = [r for r in kb.records
                if frozenset(r.per_task_fail) == frozenset(agenda) and r.order[0] not in banned]
    if feasible:
        return min(feasible, key=lambda r: (r.total_fail, tuple(t.value for t in r.order))).order
    return _margin_then_names_plan(agenda, banned, kb.rules)


@pytest.mark.parametrize("kb", ["reference", "explored", "synthetic"])
def test_indexed_records_plan_as_a_scan_of_the_kb_for_every_small_agenda(kb):
    if kb == "reference":
        kb = reference_kb()
    elif kb == "explored":
        # Groups B and C have no calibration rows, so each of their orders
        # records a total_fail of 0 and names break every tie.
        config = ExplorationConfig(combinations=builtin_combinations(),
                                   samples_per_combination=1, trials_per_sample=4, seed=5)
        kb = explore_and_build_kb(reference_tabular_env(), config)
        assert any(len(r.order) == 3 for r in kb.records)
    else:
        kb = _synthetic_kb()
    scheduler = ExperienceScheduler(kb)
    tasks = sorted(TaskKind, key=lambda t: t.value)
    hits = 0
    for size in (1, 2, 3):
        for agenda in itertools.combinations(tasks, size):
            for n_banned in range(size):
                for banned in map(frozenset, itertools.combinations(agenda, n_banned)):
                    want = _record_then_rule_plan(kb, agenda, banned)
                    assert scheduler.schedule(agenda[::-1], banned) == want
                    hits += any(r.order == want for r in kb.records)
    assert hits


def _margin_then_names_plan(agenda, banned, rules):
    """Reference rule-scored plan: the permutation with the least violated
    strict margin, ties broken by the tuple of task names."""

    def key(plan):
        position = {task: i for i, task in enumerate(plan)}
        margin = sum(r.margin for r in rules
                     if not r.indifferent and r.before in position and r.after in position
                     and position[r.before] > position[r.after])
        return margin, tuple(t.value for t in plan)

    return min((plan for plan in itertools.permutations(agenda) if plan[0] not in banned),
               key=key)


def test_margin_only_plan_equals_the_margin_then_names_min_for_every_small_agenda():
    import random

    from restoragent.knowledge import PrecedenceRule

    draw = random.Random(13)
    tasks = list(TaskKind)
    for size in (1, 2, 3, 4):
        for agenda in itertools.combinations(tasks, size):
            # A few margins from a coarse grid, so that sums tie often; some
            # rules are indifferent or name a task outside the agenda.
            rules = [
                PrecedenceRule(*draw.sample(tasks if size == 1 or draw.random() < 0.2 else agenda, 2),
                               draw.choice((0.0, 0.25, 0.5, 0.75)), draw.random() < 0.2)
                for _ in range(draw.randrange(6))
            ]
            scheduler = ExperienceScheduler(KnowledgeBase(rules=rules))
            for n_banned in range(size):
                for banned in map(frozenset, itertools.combinations(agenda, n_banned)):
                    want = _margin_then_names_plan(agenda, banned, rules)
                    assert scheduler.schedule(draw.sample(agenda, size), banned) == want


@pytest.mark.parametrize("size, n_rule_sets", [(5, 12), (6, 3)])
def test_rule_scored_plans_of_five_and_six_tasks_equal_the_margin_then_names_min(size, n_rule_sets):
    """Every banned subset, over rule sets that are acyclic (with no banned
    head, some plan violates nothing) or hold a cycle (every plan violates
    some margin).  Margins come from {0.1, 0.2, 0.3, 0.6}, whose float sums
    depend on the order of addition, so a plan's margin must be summed in
    rule order to break ties as the reference does."""
    import random

    from restoragent.knowledge import PrecedenceRule

    draw = random.Random(29 + size)
    margins = (0.1, 0.2, 0.3, 0.6)
    for k in range(n_rule_sets):
        agenda = draw.sample(list(TaskKind), size)
        rank = {task: i for i, task in enumerate(draw.sample(agenda, size))}
        rules = []
        for _ in range(draw.randrange(4, 13)):
            before, after = draw.sample(agenda, 2)
            if k % 2 == 0 and rank[before] > rank[after]:
                before, after = after, before  # agrees with one order: acyclic
            if draw.random() < 0.15:
                rules.append(PrecedenceRule(before, after, 0.0, True))
            else:
                rules.append(PrecedenceRule(before, after, draw.choice(margins)))
        if k % 2 == 1:
            a, b, c = draw.sample(agenda, 3)
            rules += [PrecedenceRule(a, b, draw.choice(margins)),
                      PrecedenceRule(b, c, draw.choice(margins)),
                      PrecedenceRule(c, a, draw.choice(margins))]
        outside = next(t for t in TaskKind if t not in agenda)
        rules.append(PrecedenceRule(outside, agenda[0], 0.6))  # not retrieved
        draw.shuffle(rules)
        scheduler = ExperienceScheduler(KnowledgeBase(rules=rules))
        for n_banned in range(size):
            for banned in map(frozenset, itertools.combinations(agenda, n_banned)):
                want = _margin_then_names_plan(agenda, banned, rules)
                assert scheduler.schedule(draw.sample(agenda, size), banned) == want
