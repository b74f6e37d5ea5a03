"""Severity assessment (perfect and noisy oracles) and evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ALL_DEGRADATIONS,
    PRESENCE_THRESHOLD,
    Agenda,
    Degradation,
    DegradationProfile,
    Severity,
    TaskKind,
    degradation_for,
    task_for,
)


class EmptyInput(ValueError):
    """Raised when metrics are requested over an empty prediction list."""


class PerfectOracle:
    """Reads the stored severity directly; the identity evaluator."""

    def assess(self, profile: DegradationProfile, degradation: Degradation, rng=None) -> Severity:
        return profile.severity(degradation)


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
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"probability out of range for {degradation}: {p}")

    def miss(self, degradation: Degradation) -> float:
        return self.p_miss.get(degradation, 0.0)

    def false(self, degradation: Degradation) -> float:
        return self.p_false.get(degradation, 0.0)

    @classmethod
    def from_precision_recall(
        cls,
        targets: dict,
        positive_rate: float = 0.5,
    ) -> "NoiseModel":
        """Fit p_miss/p_false so a balanced assessment population hits the
        target binary precision/recall per degradation.

        ``targets`` maps Degradation -> (precision, recall).  Assumes
        positives sit at MEDIUM severity, where a single one-level miss
        flips presence.
        """
        p_miss, p_false = {}, {}
        pi = positive_rate
        for degradation, (precision, recall) in targets.items():
            if not 0 < precision <= 1 or not 0 <= recall <= 1:
                raise ValueError(f"invalid target for {degradation}: {(precision, recall)}")
            p_miss[degradation] = 1.0 - recall
            # precision = recall*pi / (recall*pi + p_false*(1-pi))
            p_false[degradation] = min(
                1.0, recall * pi * (1.0 - precision) / (precision * (1.0 - pi))
            )
        return cls(p_miss, p_false)

    def to_dict(self) -> dict:
        return {
            "p_miss": {d.value: p for d, p in sorted(self.p_miss.items(), key=lambda kv: kv[0].value)},
            "p_false": {d.value: p for d, p in sorted(self.p_false.items(), key=lambda kv: kv[0].value)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        if not isinstance(data, dict):
            raise ValueError(f"a noise model must be a JSON object, not {data!r}")
        tables = []
        for key in ("p_miss", "p_false"):
            table = data.get(key, {})
            if not isinstance(table, dict) or not all(
                isinstance(p, (int, float)) for p in table.values()
            ):
                raise ValueError(f"{key} must map degradation names to numbers, not {table!r}")
            tables.append({Degradation(d): p for d, p in table.items()})
        return cls(*tables)


class NoisyOracle:
    """Stored severity perturbed by the confusion model.

    Stateless: the same (profile, degradation) with the same rng substream
    always yields the same answer.
    """

    def __init__(self, model: NoiseModel):
        self.model = model

    def assess(self, profile: DegradationProfile, degradation: Degradation, rng=None) -> Severity:
        if rng is None:
            raise ValueError("NoisyOracle.assess requires an rng substream")
        true = profile.severity(degradation)
        if true >= PRESENCE_THRESHOLD:
            if rng.random() < self.model.miss(degradation):
                return true.lowered()
            return true
        if rng.random() < self.model.false(degradation):
            return Severity.MEDIUM
        return true


def evaluator_from_model(model: dict | None):
    """The evaluator a config's ``"evaluator"`` entry selects: the perfect
    oracle when it is missing or empty, else a noisy oracle over it."""
    if not model:
        return PerfectOracle()
    return NoisyOracle(NoiseModel.from_dict(model))


def evaluate_agenda(evaluator, profile: DegradationProfile, rng=None) -> Agenda:
    """Tasks for every degradation assessed at MEDIUM or above."""
    agenda = set()
    for degradation in ALL_DEGRADATIONS:
        if evaluator.assess(profile, degradation, rng) >= PRESENCE_THRESHOLD:
            agenda.add(task_for(degradation))
    return frozenset(agenda)


def reflect(evaluator, profile: DegradationProfile, task: TaskKind, rng=None) -> Severity:
    """Assessed residual severity of the degradation a subtask addresses."""
    return evaluator.assess(profile, degradation_for(task), rng)


@dataclass(frozen=True)
class MetricRow:
    precision: float
    recall: float
    f1: float
    no_predicted_positives: bool = False


def classification_metrics(predictions) -> dict:
    """Binary presence metrics per degradation.

    ``predictions`` is an iterable of (degradation, predicted_present,
    truly_present).  Every reported degradation needs at least one positive
    ground-truth instance.
    """
    predictions = list(predictions)
    if not predictions:
        raise EmptyInput("no predictions given")
    counts = {}  # degradation -> [tp, fp, fn]
    for degradation, predicted, truth in predictions:
        tp, fp, fn = counts.setdefault(degradation, [0, 0, 0])
        if predicted and truth:
            tp += 1
        elif predicted and not truth:
            fp += 1
        elif truth:
            fn += 1
        counts[degradation] = [tp, fp, fn]
    result = {}
    for degradation, (tp, fp, fn) in counts.items():
        if tp + fn == 0:
            raise ValueError(f"no positive ground truth for {degradation}")
        flagged = tp + fp == 0
        precision = 0.0 if flagged else tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        result[degradation] = MetricRow(precision, recall, f1, flagged)
    return result
