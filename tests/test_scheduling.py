import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from restoragent.core import TaskKind
from restoragent.knowledge import KnowledgeBase, reference_kb
from restoragent.rng import substream
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
