"""Severity assessment (perfect and noisy oracles).  Acceptance criterion 8
computes their precision, recall and F1 in ``tests/perception_metrics.py``."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ALL_DEGRADATIONS,
    DEGRADATION_FOR,
    MEDIUM,
    PRESENCE_THRESHOLD,
    TASK_FOR,
    VERY_LOW,
    Degradation,
    DegradationProfile,
    Severity,
    TaskKind,
    check_keys,
    check_probability,
    member_of,
    read_field,
)


class PerfectOracle:
    """Reads the stored severity directly; the identity evaluator.

    Both oracles' ``assess`` take a sequence of degradations and return their
    severities in that order.
    """

    def assess(self, profile: DegradationProfile, degradations, rng=None) -> list:
        severities = profile.severities
        return [severities.get(d, VERY_LOW) for d in degradations]


@dataclass
class NoiseModel:
    """Two-parameter confusion per degradation.

    p_miss: a present degradation (>= MEDIUM) is reported one level lower.
    p_false: an absent degradation is reported MEDIUM.
    """

    p_miss: dict = field(default_factory=dict)  # Degradation -> prob
    p_false: dict = field(default_factory=dict)

    def __post_init__(self):
        for table in (self.p_miss, self.p_false):
            for degradation, p in table.items():
                check_probability("probability for %s", p, degradation)

    def to_dict(self) -> dict:
        return {
            key: dict(sorted(table.items()))
            for key, table in (("p_miss", self.p_miss), ("p_false", self.p_false))
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        check_keys(data, ("p_miss", "p_false"), "evaluator")
        return cls(*[
            {member_of(Degradation, d, "evaluator.%s", key): p
             for d, p in read_field(data, key, dict, "evaluator", default={}).items()}
            for key in ("p_miss", "p_false")
        ])


class NoisyOracle:
    """Stored severity perturbed by the confusion model.

    Stateless: the same (profile, degradation) with the same rng substream
    always yields the same answer.
    """

    def __init__(self, model: NoiseModel):
        self.model = model

    def assess(self, profile: DegradationProfile, degradations, rng=None) -> list:
        """One draw per degradation, all taken in one call: ``random(n)``
        yields the same doubles as n calls of ``random()``."""
        if rng is None:
            raise ValueError("NoisyOracle.assess requires an rng substream")
        draws = rng.random(len(degradations)).tolist()
        stored = profile.severities
        p_miss, p_false = self.model.p_miss, self.model.p_false
        severities = []
        for degradation, u in zip(degradations, draws):
            true = stored.get(degradation, VERY_LOW)
            if true >= PRESENCE_THRESHOLD:
                severities.append(true.lowered() if u < p_miss.get(degradation, 0.0) else true)
            elif u < p_false.get(degradation, 0.0):
                severities.append(MEDIUM)
            else:
                severities.append(true)
        return severities


def evaluator_from_model(model: dict | None):
    """The evaluator a config's ``"evaluator"`` entry selects: the perfect
    oracle when it is missing or empty, else a noisy oracle over it."""
    if not model:
        return PerfectOracle()
    return NoisyOracle(NoiseModel.from_dict(model))


def evaluate_agenda(evaluator, profile: DegradationProfile, rng=None) -> frozenset:
    """Tasks for every degradation assessed at MEDIUM or above."""
    severities = evaluator.assess(profile, ALL_DEGRADATIONS, rng)
    return frozenset(
        TASK_FOR[d] for d, s in zip(ALL_DEGRADATIONS, severities) if s >= PRESENCE_THRESHOLD
    )


def reflect(evaluator, profile: DegradationProfile, task: TaskKind, rng=None) -> Severity:
    """Assessed residual severity of the degradation a subtask addresses."""
    return evaluator.assess(profile, (DEGRADATION_FOR[task],), rng)[0]
