import copy
import json

import pytest
from hypothesis import example, given, strategies as st

from restoragent import core
from restoragent.core import (
    ALL_DEGRADATIONS,
    DEGRADATION_FOR,
    PRESENCE_THRESHOLD,
    TASK_FOR,
    Degradation,
    DegradationProfile,
    Severity,
    TaskKind,
    builtin_combinations,
    combinations_in_group,
    member_of,
)


def test_task_degradation_bijection():
    assert len(ALL_DEGRADATIONS) == 8
    for d in Degradation:
        assert DEGRADATION_FOR[TASK_FOR[d]] is d
    for t in TaskKind:
        assert TASK_FOR[DEGRADATION_FOR[t]] is t


@pytest.mark.parametrize(
    "degradation,task",
    [
        (Degradation.RAIN, TaskKind.DERAINING),
        (Degradation.LOW_RESOLUTION, TaskKind.SUPER_RESOLUTION),
        (Degradation.JPEG_ARTIFACT, TaskKind.JPEG_ARTIFACT_REMOVAL),
    ],
)
def test_task_for_examples(degradation, task):
    assert TASK_FOR[degradation] is task


def test_severity_total_order():
    levels = list(Severity)
    assert levels == sorted(levels)
    assert Severity.VERY_LOW < Severity.VERY_HIGH
    for s in Severity:
        assert not s < s
    assert Severity.VERY_HIGH.raised() is Severity.VERY_HIGH
    assert Severity.VERY_LOW.lowered() is Severity.VERY_LOW
    assert Severity.MEDIUM.raised() is Severity.HIGH
    assert Severity.from_label("Very Low") is Severity.VERY_LOW
    with pytest.raises(ValueError):
        Severity.from_label("sort of blurry")


def test_severity_steps_match_the_enum_calls_they_replace():
    for s in Severity:
        for k in range(7):
            assert s.raised(k) is Severity(min(s + k, 4))
            assert s.lowered(k) is Severity(max(s - k, 0))


def test_module_constants_are_the_members_they_name():
    for s in Severity:
        assert getattr(core, s.name) is s
    assert PRESENCE_THRESHOLD is Severity.MEDIUM
    for cls in (Degradation, TaskKind):
        for m in cls:
            assert m == m.value and hash(m) == hash(m.value)
            assert json.dumps(m) == json.dumps(m.value)
        assert [m.value for m in sorted(cls)] == sorted(m.value for m in cls)


@pytest.mark.parametrize("cls", [Degradation, TaskKind])
def test_member_of_is_the_enum_call(cls):
    for member in cls:
        assert member_of(cls, member.value) is cls(member.value)
    for value in ["no such name", "RAIN", None, 3, ["rain"], {"a": 1}]:
        with pytest.raises(ValueError) as expected:
            cls(value)
        with pytest.raises(ValueError) as got:
            member_of(cls, value)
        assert str(got.value) == str(expected.value)


def test_builtin_combinations_shape():
    combos = builtin_combinations()
    assert len(combos) == 16
    assert len(combinations_in_group("A")) == 8
    assert len(combinations_in_group("B")) == 4
    assert len(combinations_in_group("C")) == 4
    for combo in combos:
        expected = 3 if combo.group == "C" else 2
        assert len(combo.degradations) == expected
        assert len(set(combo.degradations)) == expected


def test_builtin_combinations_membership():
    a_keys = [c.key for c in combinations_in_group("A")]
    assert frozenset({Degradation.RAIN, Degradation.HAZE}) in a_keys
    assert frozenset({Degradation.DEFOCUS_BLUR, Degradation.JPEG_ARTIFACT}) in a_keys
    b_keys = [c.key for c in combinations_in_group("B")]
    assert frozenset({Degradation.MOTION_BLUR, Degradation.JPEG_ARTIFACT}) in b_keys
    assert frozenset({Degradation.HAZE, Degradation.NOISE}) in b_keys
    c_keys = [c.key for c in combinations_in_group("C")]
    assert frozenset(
        {Degradation.HAZE, Degradation.MOTION_BLUR, Degradation.LOW_RESOLUTION}
    ) in c_keys


def test_profile_defaults_and_presence():
    profile = DegradationProfile()
    assert profile.severity(Degradation.RAIN) is Severity.VERY_LOW
    assert profile.present() == frozenset()
    hazy = profile.with_severity(Degradation.HAZE, Severity.MEDIUM)
    assert Degradation.HAZE in hazy.present()
    assert Degradation.HAZE not in hazy.with_severity(Degradation.HAZE, Severity.LOW).present()


def test_profile_roundtrip():
    profile = DegradationProfile(
        {Degradation.NOISE: Severity.HIGH},
        ((TaskKind.DERAINING, "t1"),),
        "sample-1",
    )
    assert profile.to_dict() == {
        "severities": {"noise": "high"},
        "history": [["deraining", "t1"]],
        "origin": "sample-1",
    }


severities = st.sampled_from(list(Severity))
degradations = st.sampled_from(list(Degradation))


@given(
    initial=st.dictionaries(degradations, severities, max_size=8),
    mutations=st.lists(st.tuples(degradations, severities), max_size=10),
)
def test_profile_copy_isolation(initial, mutations):
    original = DegradationProfile(dict(initial), (), "origin")
    snapshot = copy.deepcopy(original)
    clone = original.copy()
    for degradation, severity in mutations:
        clone.severities[degradation] = severity
        clone = clone.with_history_entry(TASK_FOR[degradation], "tool")
    assert original == snapshot


@given(st.dictionaries(degradations, severities, max_size=8))
@example({Degradation.RAIN: Severity.VERY_LOW, Degradation.HAZE: Severity.LOW})
@example({Degradation.RAIN: Severity.VERY_LOW, Degradation.HAZE: Severity.MEDIUM,
          Degradation.NOISE: Severity.LOW, Degradation.LOW_LIGHT: Severity.VERY_HIGH})
def test_present_matches_a_filter_over_every_degradation(entries):
    profile = DegradationProfile(dict(entries))
    assert profile.present() == frozenset(
        d for d in ALL_DEGRADATIONS if profile.severity(d) >= PRESENCE_THRESHOLD
    )
