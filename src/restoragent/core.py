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
        return _SEVERITY_OF[min(self + levels, VERY_HIGH)]

    def lowered(self, levels: int = 1) -> "Severity":
        return _SEVERITY_OF[max(self - levels, VERY_LOW)]


# Hot paths read severities through module constants and dicts, never through
# the enum class: on Python 3.11 ``Severity.LOW`` goes through EnumType's
# attribute hook, and ``Severity(2)`` is a Python-level call.
VERY_LOW, LOW, MEDIUM, HIGH, VERY_HIGH = Severity
_SEVERITY_OF = {int(s): s for s in Severity}  # a dict, so a negative value raises

_SEVERITY_LABELS = {
    VERY_LOW: "very low",
    LOW: "low",
    MEDIUM: "medium",
    HIGH: "high",
    VERY_HIGH: "very high",
}
_SEVERITY_BY_LABEL = {v: k for k, v in _SEVERITY_LABELS.items()}

#: A degradation counts as present at this severity or above.
PRESENCE_THRESHOLD = MEDIUM


def check_probability(name: str, p, *args) -> None:
    """Raises unless ``p`` is a real number in [0, 1]; a bool or a string is
    not one, so a config cannot smuggle either into a draw comparison.  The
    error text names ``p`` as ``name % args``, formatted only on a raise."""
    # A float is a Real and no bool: it skips the ABC's Python-level check.
    if p.__class__ is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
        raise TypeError(f"{name % args} must be a number, not {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name % args} out of range: {p}")


class SchemaError(ValueError):
    """An input file is malformed; the message names where."""


class at_path:
    """``with at_path(where):`` turns a TypeError or ValueError of its block
    into a SchemaError naming the path ``where``; a SchemaError already names
    its path.  A class: a generator would cost each row of a config more."""

    def __init__(self, where: str):
        self.where = where

    def __enter__(self):
        return self

    def __exit__(self, kind, error, traceback):
        if isinstance(error, (TypeError, ValueError)) and not isinstance(error, SchemaError):
            raise SchemaError(f"{self.where}: {error}") from None


_MISSING = object()
_JSON_TYPE = {dict: "an object", list: "a list", str: "a string", int: "an integer",
              float: "a number", bool: "true or false", type(None): "null"}
#: Every JSON type: a legacy key's, which is not read, or a key's whose
#: reader checks the value itself.
ANY_JSON = tuple(_JSON_TYPE)


def read_field(data, key: str, types, where: str = ""):
    """``data[key]``, checked to be one of the JSON ``types``; a missing key
    or a value of another type is a SchemaError naming the path ``where.key``.
    True and false match only ``bool`` and ANY_JSON."""
    value = data.get(key, _MISSING)
    if isinstance(value, types) and (value.__class__ is not bool or types in (bool, ANY_JSON)):
        return value
    path = f"{where}.{key}" if where else key
    if value is _MISSING:
        raise SchemaError(f"{path}: missing key")
    return json_typed(value, types, path)


def json_typed(value, types, path: str):
    """``value``, checked as ``read_field`` checks a field to be one of the
    JSON ``types``; a value of another type is a SchemaError naming ``path``."""
    if isinstance(value, types) and (value.__class__ is not bool or types in (bool, ANY_JSON)):
        return value
    names = " or ".join(map(_JSON_TYPE.get, types if isinstance(types, tuple) else (types,)))
    raise SchemaError(f"{path}: expected {names}, not {value!r}")


def read_object(data, fields: dict, where: str = "", **defaults) -> list:
    """The values of the JSON object ``data`` at the path ``where``, one per
    key of ``fields`` in its order: the one way a parser reads an object.
    ``fields`` maps each key the object may hold to its JSON types, or to
    Degradation or TaskKind for a member's name; a key in ``defaults`` may be
    missing.  A SchemaError names the first problem: not an object, then an
    unknown key, then field by field a missing key or a wrong type."""
    if not isinstance(data, dict):
        raise SchemaError(f"{_where(where)}expected a JSON object, not {data!r}")
    for key in data:
        if key not in fields:
            raise SchemaError(f"{_where(where)}unknown key {key!r}")
    values = []
    for key, types in fields.items():
        if key in defaults and key not in data:
            values.append(defaults[key])
        elif types in _MEMBER_OF:  # never a truth test: bool(TaskKind) runs enum.py
            values.append(member_of(types, read_field(data, key, str, where),
                                    f"{where}.{key}" if where else key))
        else:
            values.append(read_field(data, key, types, where))
    return values


def _where(where: str) -> str:
    return f"{where}: " if where else ""


# A degradation or a task is its own name: as ``StrEnum`` members they hash,
# compare, sort, format and encode to JSON as their values, all in C.
class Degradation(enum.StrEnum):
    LOW_RESOLUTION = "low resolution"
    NOISE = "noise"
    MOTION_BLUR = "motion blur"
    DEFOCUS_BLUR = "defocus blur"
    RAIN = "rain"
    HAZE = "haze"
    JPEG_ARTIFACT = "jpeg compression artifact"
    LOW_LIGHT = "low light"


class TaskKind(enum.StrEnum):
    SUPER_RESOLUTION = "super-resolution"
    DENOISING = "denoising"
    MOTION_DEBLURRING = "motion deblurring"
    DEFOCUS_DEBLURRING = "defocus deblurring"
    DERAINING = "deraining"
    DEHAZING = "dehazing"
    JPEG_ARTIFACT_REMOVAL = "jpeg compression artifact removal"
    BRIGHTENING = "brightening"


_MEMBER_OF = {cls: {m.value: m for m in cls} for cls in (Degradation, TaskKind)}


def member_of(cls, value, where: str = ""):
    """``cls(value)`` for Degradation or TaskKind, through a dict.  A value
    that names no member is a SchemaError naming the value's path
    ``where``; without a path its text is the enum call's."""
    try:
        return _MEMBER_OF[cls][value]
    except (KeyError, TypeError):  # a TypeError: an unhashable JSON value
        raise SchemaError(f"{_where(where)}{value!r} is not a valid {cls.__qualname__}") from None


def degradations_named(names, where: str) -> tuple:
    """A combination's Degradations, in order, from a non-empty JSON list of
    names at the path ``where``; anything else, or a repeated name, is a
    SchemaError naming that path."""
    if not names or not isinstance(names, list):
        raise SchemaError(f"{where}: combination {names!r} "
                          "is not a non-empty list of degradation names")
    degradations = tuple(member_of(Degradation, n, f"{where}[{j}]") for j, n in enumerate(names))
    if len(set(degradations)) != len(degradations):
        raise SchemaError(f"{where}: combination {names!r} repeats a degradation")
    return degradations


TASK_FOR = {
    Degradation.LOW_RESOLUTION: TaskKind.SUPER_RESOLUTION,
    Degradation.NOISE: TaskKind.DENOISING,
    Degradation.MOTION_BLUR: TaskKind.MOTION_DEBLURRING,
    Degradation.DEFOCUS_BLUR: TaskKind.DEFOCUS_DEBLURRING,
    Degradation.RAIN: TaskKind.DERAINING,
    Degradation.HAZE: TaskKind.DEHAZING,
    Degradation.JPEG_ARTIFACT: TaskKind.JPEG_ARTIFACT_REMOVAL,
    Degradation.LOW_LIGHT: TaskKind.BRIGHTENING,
}
DEGRADATION_FOR = {t: d for d, t in TASK_FOR.items()}

#: Canonical iteration order for the eight degradations.
ALL_DEGRADATIONS = tuple(TASK_FOR)


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
        return self.severities.get(degradation, VERY_LOW)

    def present(self) -> frozenset:
        return frozenset(d for d, s in self.severities.items() if s >= PRESENCE_THRESHOLD)

    def copy(self) -> "DegradationProfile":
        return DegradationProfile(dict(self.severities), self.history, self.origin)

    def with_severity(self, degradation: Degradation, severity: Severity) -> "DegradationProfile":
        severities = dict(self.severities)
        if severity == VERY_LOW:
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
                d: _SEVERITY_LABELS[severities[d]]
                for d in sorted(severities)
                if severities[d] != VERY_LOW
            },
            "history": [[task, tool_id] for task, tool_id in self.history],
            "origin": self.origin,
        }


@dataclass(frozen=True)
class DegradationCombination:
    """One training/testing degradation mixture, in synthesis order."""

    group: str  # "A", "B" or "C"
    degradations: tuple  # (Degradation, ...)

    @property
    def tasks(self) -> frozenset:
        return frozenset(TASK_FOR[d] for d in self.degradations)

    @property
    def key(self) -> frozenset:
        return frozenset(self.degradations)

    def label(self) -> str:
        return " + ".join(self.degradations)


def initial_profile(combo: DegradationCombination, index: int) -> DegradationProfile:
    """The profile a workflow run or an exploration sample starts from:
    every degradation of ``combo`` at HIGH, no history."""
    return DegradationProfile(
        {d: HIGH for d in combo.degradations}, (), f"{combo.label()}#{index}"
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
