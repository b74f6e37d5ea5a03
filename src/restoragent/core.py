"""Shared domain vocabulary: degradations, tasks, severities, profiles, combinations."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ordinal severity scale; comparisons follow the integer encoding."""

    VERY_LOW = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4

    @property
    def label(self) -> str:
        return _SEVERITY_LABELS[self]

    @classmethod
    def from_label(cls, text: str) -> "Severity":
        key = " ".join(text.strip().lower().rstrip(".").split())
        try:
            return _SEVERITY_BY_LABEL[key]
        except KeyError:
            raise ValueError(f"unknown severity label: {text!r}") from None

    def raised(self, levels: int = 1) -> "Severity":
        return Severity(min(self + levels, Severity.VERY_HIGH))

    def lowered(self, levels: int = 1) -> "Severity":
        return Severity(max(self - levels, Severity.VERY_LOW))


_SEVERITY_LABELS = {
    Severity.VERY_LOW: "very low",
    Severity.LOW: "low",
    Severity.MEDIUM: "medium",
    Severity.HIGH: "high",
    Severity.VERY_HIGH: "very high",
}
_SEVERITY_BY_LABEL = {v: k for k, v in _SEVERITY_LABELS.items()}

#: A degradation counts as present at this severity or above.
PRESENCE_THRESHOLD = Severity.MEDIUM


def check_probability(name: str, p) -> None:
    """Raises unless ``p`` is a real number in [0, 1]; a bool or a string is
    not one, so a config cannot smuggle either into a draw comparison."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise TypeError(f"{name} must be a number, not {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} out of range: {p}")


class Degradation(enum.Enum):
    LOW_RESOLUTION = "low resolution"
    NOISE = "noise"
    MOTION_BLUR = "motion blur"
    DEFOCUS_BLUR = "defocus blur"
    RAIN = "rain"
    HAZE = "haze"
    JPEG_ARTIFACT = "jpeg compression artifact"
    LOW_LIGHT = "low light"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value

    # Identity hash in C: Enum's own hashes the name in Python; == is identity.
    __hash__ = object.__hash__


class TaskKind(enum.Enum):
    SUPER_RESOLUTION = "super-resolution"
    DENOISING = "denoising"
    MOTION_DEBLURRING = "motion deblurring"
    DEFOCUS_DEBLURRING = "defocus deblurring"
    DERAINING = "deraining"
    DEHAZING = "dehazing"
    JPEG_ARTIFACT_REMOVAL = "jpeg compression artifact removal"
    BRIGHTENING = "brightening"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value

    # Identity hash in C: Enum's own hashes the name in Python; == is identity.
    __hash__ = object.__hash__


# Each member's value, read from a dict on the trace and sort paths: Enum's
# ``value`` is a Python-level descriptor.
DEGRADATION_VALUE = {d: d.value for d in Degradation}
TASK_VALUE = {t: t.value for t in TaskKind}

_TASK_FOR = {
    Degradation.LOW_RESOLUTION: TaskKind.SUPER_RESOLUTION,
    Degradation.NOISE: TaskKind.DENOISING,
    Degradation.MOTION_BLUR: TaskKind.MOTION_DEBLURRING,
    Degradation.DEFOCUS_BLUR: TaskKind.DEFOCUS_DEBLURRING,
    Degradation.RAIN: TaskKind.DERAINING,
    Degradation.HAZE: TaskKind.DEHAZING,
    Degradation.JPEG_ARTIFACT: TaskKind.JPEG_ARTIFACT_REMOVAL,
    Degradation.LOW_LIGHT: TaskKind.BRIGHTENING,
}
_DEGRADATION_FOR = {t: d for d, t in _TASK_FOR.items()}

#: Canonical iteration order for the eight degradations.
ALL_DEGRADATIONS = tuple(_TASK_FOR)


def task_for(degradation: Degradation) -> TaskKind:
    """The unique restoration task addressing a degradation."""
    return _TASK_FOR[degradation]


def degradation_for(task: TaskKind) -> Degradation:
    """The unique degradation addressed by a restoration task."""
    return _DEGRADATION_FOR[task]


@dataclass(slots=True)
class DegradationProfile:
    """Abstract image state: severity per degradation plus applied history.

    Entries absent from ``severities`` are VERY_LOW, so a fully clean image
    is the empty map.  All mutating-style operations return fresh instances;
    rollback relies on this value semantics.
    """

    severities: dict = field(default_factory=dict)  # Degradation -> Severity
    history: tuple = ()  # ((TaskKind, tool_id), ...)
    origin: str = ""

    def severity(self, degradation: Degradation) -> Severity:
        return self.severities.get(degradation, Severity.VERY_LOW)

    def present(self) -> frozenset:
        return frozenset(d for d, s in self.severities.items() if s >= PRESENCE_THRESHOLD)

    def copy(self) -> "DegradationProfile":
        return DegradationProfile(dict(self.severities), self.history, self.origin)

    def with_severity(self, degradation: Degradation, severity: Severity) -> "DegradationProfile":
        severities = dict(self.severities)
        if severity == Severity.VERY_LOW:
            severities.pop(degradation, None)
        else:
            severities[degradation] = severity
        return DegradationProfile(severities, self.history, self.origin)

    def with_history_entry(self, task: TaskKind, tool_id: str) -> "DegradationProfile":
        return DegradationProfile(
            dict(self.severities), self.history + ((task, tool_id),), self.origin
        )

    def tasks_in_history(self) -> tuple:
        seen = []
        for task, _ in self.history:
            if task not in seen:
                seen.append(task)
        return tuple(seen)

    def to_dict(self) -> dict:
        severities = self.severities
        return {
            "severities": {
                DEGRADATION_VALUE[d]: _SEVERITY_LABELS[severities[d]]
                for d in sorted(severities, key=DEGRADATION_VALUE.__getitem__)
                if severities[d] != Severity.VERY_LOW
            },
            "history": [[TASK_VALUE[task], tool_id] for task, tool_id in self.history],
            "origin": self.origin,
        }


@dataclass(frozen=True)
class DegradationCombination:
    """One training/testing degradation mixture, in synthesis order."""

    group: str  # "A", "B" or "C"
    degradations: tuple  # (Degradation, ...)

    @property
    def tasks(self) -> frozenset:
        return frozenset(task_for(d) for d in self.degradations)

    @property
    def key(self) -> frozenset:
        return frozenset(self.degradations)

    def label(self) -> str:
        return " + ".join(DEGRADATION_VALUE[d] for d in self.degradations)


def initial_profile(combo: DegradationCombination, index: int) -> DegradationProfile:
    """The profile a workflow run or an exploration sample starts from:
    every degradation of ``combo`` at HIGH, no history."""
    return DegradationProfile(
        {d: Severity.HIGH for d in combo.degradations}, (), f"{combo.label()}#{index}"
    )


_D = Degradation

_BUILTIN_COMBINATIONS = (
    # Group A: two degradations, seen in exploration.
    DegradationCombination("A", (_D.RAIN, _D.HAZE)),
    DegradationCombination("A", (_D.MOTION_BLUR, _D.LOW_RESOLUTION)),
    DegradationCombination("A", (_D.LOW_LIGHT, _D.NOISE)),
    DegradationCombination("A", (_D.DEFOCUS_BLUR, _D.JPEG_ARTIFACT)),
    DegradationCombination("A", (_D.NOISE, _D.JPEG_ARTIFACT)),
    DegradationCombination("A", (_D.RAIN, _D.LOW_RESOLUTION)),
    DegradationCombination("A", (_D.MOTION_BLUR, _D.LOW_LIGHT)),
    DegradationCombination("A", (_D.DEFOCUS_BLUR, _D.HAZE)),
    # Group B: two degradations, unseen mixtures.
    DegradationCombination("B", (_D.MOTION_BLUR, _D.JPEG_ARTIFACT)),
    DegradationCombination("B", (_D.HAZE, _D.NOISE)),
    DegradationCombination("B", (_D.DEFOCUS_BLUR, _D.LOW_RESOLUTION)),
    DegradationCombination("B", (_D.RAIN, _D.LOW_LIGHT)),
    # Group C: three degradations, unseen mixtures.
    DegradationCombination("C", (_D.HAZE, _D.MOTION_BLUR, _D.LOW_RESOLUTION)),
    DegradationCombination("C", (_D.RAIN, _D.NOISE, _D.LOW_RESOLUTION)),
    DegradationCombination("C", (_D.LOW_LIGHT, _D.DEFOCUS_BLUR, _D.JPEG_ARTIFACT)),
    DegradationCombination("C", (_D.MOTION_BLUR, _D.DEFOCUS_BLUR, _D.NOISE)),
)


def builtin_combinations() -> list:
    """The 16 built-in degradation combinations (8 in A, 4 in B, 4 in C)."""
    return list(_BUILTIN_COMBINATIONS)


def combinations_in_group(group: str) -> list:
    if group not in ("A", "B", "C"):
        raise ValueError(f"unknown combination group: {group!r}")
    return [c for c in _BUILTIN_COMBINATIONS if c.group == group]
