import math

import pytest
from hypothesis import given, settings, strategies as st

from restoragent.core import Degradation, DegradationProfile, Severity, TaskKind
from perception_metrics import EmptyInput, classification_metrics
from restoragent.perception import (
    NoiseModel,
    NoisyOracle,
    PerfectOracle,
    evaluate_agenda,
    reflect,
)
from restoragent.rng import substream


def test_perfect_oracle_is_identity():
    profile = DegradationProfile({Degradation.RAIN: Severity.HIGH})
    oracle = PerfectOracle()
    assert oracle.assess(profile, list(Degradation)) == [profile.severity(d) for d in Degradation]


def test_evaluate_agenda_threshold_rule():
    oracle = PerfectOracle()
    profile = DegradationProfile(
        {Degradation.RAIN: Severity.HIGH, Degradation.HAZE: Severity.MEDIUM,
         Degradation.NOISE: Severity.LOW}
    )
    agenda = evaluate_agenda(oracle, profile)
    assert agenda == frozenset({TaskKind.DERAINING, TaskKind.DEHAZING})
    assert evaluate_agenda(oracle, DegradationProfile()) == frozenset()


def test_forced_false_positive():
    oracle = NoisyOracle(NoiseModel(p_false={Degradation.NOISE: 1.0}))
    agenda = evaluate_agenda(oracle, DegradationProfile(), substream(0, "fp"))
    assert TaskKind.DENOISING in agenda


def test_forced_one_level_miss():
    oracle = NoisyOracle(NoiseModel(p_miss={Degradation.NOISE: 1.0}))
    profile = DegradationProfile({Degradation.NOISE: Severity.MEDIUM})
    severity = reflect(oracle, profile, TaskKind.DENOISING, substream(0, "miss"))
    assert severity is Severity.LOW
    # a miss shifts exactly one level: HIGH can only drop to MEDIUM
    profile = DegradationProfile({Degradation.NOISE: Severity.HIGH})
    assert reflect(oracle, profile, TaskKind.DENOISING, substream(0, "m2")) is Severity.MEDIUM


def test_reflect_reads_stored_severity():
    oracle = PerfectOracle()
    assert (
        reflect(oracle, DegradationProfile({Degradation.NOISE: Severity.VERY_LOW}),
                TaskKind.DENOISING)
        is Severity.VERY_LOW
    )
    assert (
        reflect(oracle, DegradationProfile({Degradation.HAZE: Severity.HIGH}),
                TaskKind.DEHAZING)
        is Severity.HIGH
    )


def test_noisy_oracle_requires_stream_and_is_reproducible():
    oracle = NoisyOracle(NoiseModel(p_miss={Degradation.NOISE: 0.5}))
    profile = DegradationProfile({Degradation.NOISE: Severity.HIGH})
    with pytest.raises(ValueError):
        oracle.assess(profile, (Degradation.NOISE,))
    a = [oracle.assess(profile, (Degradation.NOISE,), substream(1, i)) for i in range(20)]
    b = [oracle.assess(profile, (Degradation.NOISE,), substream(1, i)) for i in range(20)]
    assert a == b


def test_metrics_perfect_classifier():
    rows = [(Degradation.NOISE, True, True)] * 100
    metrics = classification_metrics(rows)[Degradation.NOISE]
    assert metrics.precision == metrics.recall == metrics.f1 == 1.0


def test_metrics_published_noise_row():
    rows = (
        [(Degradation.NOISE, True, True)] * 92
        + [(Degradation.NOISE, False, True)] * 8
        + [(Degradation.NOISE, True, False)] * 1
    )
    metrics = classification_metrics(rows)[Degradation.NOISE]
    assert round(metrics.precision, 2) == 0.99
    assert round(metrics.recall, 2) == 0.92
    assert round(metrics.f1, 2) == 0.95


def test_metrics_motion_blur_recall():
    rows = (
        [(Degradation.MOTION_BLUR, True, True)] * 52
        + [(Degradation.MOTION_BLUR, False, True)] * 48
        + [(Degradation.MOTION_BLUR, True, False)] * 7
    )
    assert classification_metrics(rows)[Degradation.MOTION_BLUR].recall == pytest.approx(0.52)


def test_metrics_zero_predictions_flagged():
    rows = [(Degradation.RAIN, False, True)] * 5
    metrics = classification_metrics(rows)[Degradation.RAIN]
    assert metrics.no_predicted_positives
    assert metrics.precision == 0.0


def test_metrics_empty_input():
    with pytest.raises(EmptyInput):
        classification_metrics([])


@given(
    tp=st.integers(1, 500), fp=st.integers(0, 500), fn=st.integers(0, 500)
)
def test_metrics_harmonic_identity(tp, fp, fn):
    rows = (
        [(Degradation.HAZE, True, True)] * tp
        + [(Degradation.HAZE, True, False)] * fp
        + [(Degradation.HAZE, False, True)] * fn
    )
    m = classification_metrics(rows)[Degradation.HAZE]
    assert 0.0 <= m.precision <= 1.0
    assert 0.0 <= m.recall <= 1.0
    assert 0.0 <= m.f1 <= 1.0
    if m.precision + m.recall > 0:
        assert math.isclose(
            m.f1, 2 * m.precision * m.recall / (m.precision + m.recall), abs_tol=1e-9
        )


def test_calibration_round_trip_monte_carlo():
    target_precision, target_recall = 0.88, 0.91
    # Half the population is positive at MEDIUM, where one miss flips
    # presence: recall = 1 - p_miss and precision = recall / (recall + p_false).
    model = NoiseModel(
        {Degradation.HAZE: 1.0 - target_recall},
        {Degradation.HAZE: target_recall * (1.0 - target_precision) / target_precision},
    )
    oracle = NoisyOracle(model)
    present = DegradationProfile({Degradation.HAZE: Severity.MEDIUM})
    absent = DegradationProfile()
    n = 10_000
    rows = []
    for i in range(n):
        truth = i % 2 == 0
        profile = present if truth else absent
        predicted = (
            oracle.assess(profile, (Degradation.HAZE,), substream(3, "cal", i))[0]
            >= Severity.MEDIUM
        )
        rows.append((Degradation.HAZE, predicted, truth))
    m = classification_metrics(rows)[Degradation.HAZE]
    sigma_recall = math.sqrt(target_recall * (1 - target_recall) / (n / 2))
    assert abs(m.recall - target_recall) <= 3 * sigma_recall
    # precision sigma via its predicted-positive denominator
    n_pred = sum(1 for _, predicted, _ in rows if predicted)
    sigma_precision = math.sqrt(target_precision * (1 - target_precision) / n_pred)
    assert abs(m.precision - target_precision) <= 3 * sigma_precision


def _one_at_a_time(oracle, profile, degradations, rng):
    """Reference assessment: one degradation at a time, the noisy oracle
    taking one ``random()`` per degradation."""
    severities = []
    for d in degradations:
        true = profile.severities.get(d, Severity.VERY_LOW)
        if isinstance(oracle, PerfectOracle):
            severities.append(true)
        elif true >= Severity.MEDIUM:
            missed = rng.random() < oracle.model.p_miss.get(d, 0.0)
            severities.append(Severity(max(true - 1, 0)) if missed else true)
        else:
            flagged = rng.random() < oracle.model.p_false.get(d, 0.0)
            severities.append(Severity.MEDIUM if flagged else true)
    return severities


_PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    stored=st.dictionaries(st.sampled_from(list(Degradation)), st.sampled_from(list(Severity))),
    p_miss=st.dictionaries(st.sampled_from(list(Degradation)), _PROBABILITY),
    p_false=st.dictionaries(st.sampled_from(list(Degradation)), _PROBABILITY),
    degradations=st.lists(st.sampled_from(list(Degradation)), max_size=10),
    noisy=st.booleans(),
    key=st.integers(0, 2**32),
)
def test_assess_over_a_sequence_equals_one_at_a_time(stored, p_miss, p_false, degradations,
                                                     noisy, key):
    oracle = NoisyOracle(NoiseModel(p_miss, p_false)) if noisy else PerfectOracle()
    profile = DegradationProfile(stored)
    swept, reference = substream(key, "sweep"), substream(key, "sweep")
    got = oracle.assess(profile, tuple(degradations), swept)
    assert got == _one_at_a_time(oracle, profile, degradations, reference)
    assert [type(s) for s in got] == [Severity] * len(degradations)
    assert swept.random() == reference.random()  # both consumed the same draws
