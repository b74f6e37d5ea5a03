"""Exploration statistics, rule distillation, and knowledge-base persistence."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_DOWN, Decimal

from .core import Degradation, TaskKind, task_for
from .envsim import TabularCalibration, reference_calibration

#: Total-fail differences at or below this count as "no significant effect".
EPSILON_TIE = 0.005
_TIE_GUARD = 1e-12  # absorbs float noise in probability arithmetic


class InconsistentTrial(ValueError):
    """A trial's success flags do not cover its combination's tasks."""


class SchemaError(ValueError):
    """A persisted knowledge-base document is malformed."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass(frozen=True)
class ExperienceRecord:
    """Aggregated fail statistics for one (combination, order)."""

    combination: frozenset  # of Degradation
    order: tuple  # (TaskKind, ...)
    per_task_fail: dict  # TaskKind -> fraction
    total_fail: float
    n_trials: int

    @property
    def tasks(self) -> frozenset:
        return frozenset(self.per_task_fail)


@dataclass(frozen=True)
class PrecedenceRule:
    before: TaskKind
    after: TaskKind
    margin: float  # total-fail difference; 0 for indifferent rules
    indifferent: bool = False
    support: tuple = ()  # source combinations, as frozensets of Degradation


@dataclass
class KnowledgeBase:
    records: list = field(default_factory=list)
    rules: list = field(default_factory=list)
    provenance: str = ""

    def exact_records(self, agenda) -> list:
        agenda = frozenset(agenda)
        return [r for r in self.records if r.tasks == agenda]


def display_percent(fraction: float) -> int:
    """Integer percent under round-half-down, robust to float noise."""
    percent = Decimal(repr(fraction * 100)).quantize(Decimal("1e-9"))
    return int(percent.quantize(Decimal("1"), rounding=ROUND_HALF_DOWN))


def aggregate(trials) -> list:
    """Group (combination, order, flags) trials into ExperienceRecords.

    ``trials`` yields tuples (combination: frozenset of Degradation,
    order: tuple of TaskKind, flags: dict TaskKind -> success bool).
    """
    groups = {}
    for combination, order, flags in trials:
        combination = frozenset(combination)
        order = tuple(order)
        expected = frozenset(task_for(d) for d in combination)
        if frozenset(flags) != expected or frozenset(order) != expected:
            raise InconsistentTrial(
                f"flags/order {sorted(t.value for t in flags)} do not match "
                f"combination {sorted(d.value for d in combination)}"
            )
        fails, count = groups.setdefault((combination, order), ({t: 0 for t in order}, [0]))
        for task, ok in flags.items():
            if not ok:
                fails[task] += 1
        count[0] += 1
    records = []
    for (combination, order), (fails, count) in sorted(
        groups.items(),
        key=lambda kv: ([d.value for d in sorted(kv[0][0], key=lambda d: d.value)],
                        [t.value for t in kv[0][1]]),
    ):
        n = count[0]
        per_task = {task: fails[task] / n for task in order}
        total = sum(per_task.values()) / len(per_task)
        records.append(ExperienceRecord(combination, order, per_task, total, n))
    return records


def _pair_totals(records):
    """Mean total_fail per (x-before-y) relative order, per combination.

    For combinations of more than two tasks, totals marginalize over the
    positions of the remaining tasks.
    """
    out = {}  # (combination, x, y) -> [totals...]
    for record in records:
        for x, y in itertools.combinations(record.order, 2):
            out.setdefault((record.combination, x, y), []).append(record.total_fail)
    return {key: sum(v) / len(v) for key, v in out.items()}


def distill(records, epsilon_tie: float = EPSILON_TIE) -> list:
    """Deterministic pairwise precedence extraction from experience records."""
    if not records:
        return []
    totals = _pair_totals(records)
    rules = []
    seen = set()
    for (combination, x, y), forward in sorted(
        totals.items(),
        key=lambda kv: ([d.value for d in sorted(kv[0][0], key=lambda d: d.value)],
                        kv[0][1].value, kv[0][2].value),
    ):
        pair = (combination, frozenset((x, y)))
        if pair in seen:
            continue
        backward = totals.get((combination, y, x))
        if backward is None:
            continue  # single relative order observed; nothing to compare
        seen.add(pair)
        margin = abs(forward - backward)
        if margin <= epsilon_tie + _TIE_GUARD:
            before, after = sorted((x, y), key=lambda t: t.value)
            rules.append(PrecedenceRule(before, after, 0.0, True, (combination,)))
        elif forward < backward:
            rules.append(PrecedenceRule(x, y, margin, False, (combination,)))
        else:
            rules.append(PrecedenceRule(y, x, margin, False, (combination,)))
    return rules


@dataclass(frozen=True)
class Retrieval:
    rules: tuple
    records: tuple


def retrieve(kb: KnowledgeBase, agenda) -> Retrieval:
    """Rules covered by the agenda plus exact-match records.

    Pure in (kb, agenda-as-set): invariant under agenda presentation order.
    """
    agenda = frozenset(agenda)
    rules = tuple(r for r in kb.rules if r.before in agenda and r.after in agenda)
    records = tuple(kb.exact_records(agenda))
    return Retrieval(rules, records)


def reference_records(n_trials: int = 100, calibration: TabularCalibration | None = None) -> list:
    """Exact ExperienceRecords carrying the published calibration rates."""
    calibration = calibration or reference_calibration()
    records = []
    for combination in sorted(
        calibration.entries, key=lambda k: sorted(d.value for d in k)
    ):
        for stats in calibration.entries[combination]:
            per_task = {task_for(d): p for d, p in stats.fail.items()}
            total = sum(per_task.values()) / len(per_task)
            records.append(
                ExperienceRecord(frozenset(combination), stats.order, per_task, total, n_trials)
            )
    return records


def reference_kb(n_trials: int = 100) -> KnowledgeBase:
    """Knowledge base distilled directly from the published calibration."""
    records = reference_records(n_trials)
    return KnowledgeBase(records, distill(records), "built-in calibration statistics")


# --- rendering and persistence ---------------------------------------------


def render_experience_text(records) -> str:
    """Per-combination experience lines in the standard phrasing used for
    knowledge-base documents and scheduler prompts."""
    by_combo = {}
    for record in records:
        by_combo.setdefault(record.combination, []).append(record)
    lines = []
    for combination in sorted(by_combo, key=lambda k: sorted(d.value for d in k)):
        degradations = sorted(d.value for d in combination)
        parts = []
        for record in by_combo[combination]:
            order_text = " and then ".join(t.value for t in record.order)
            rates = [
                f"'{display_percent(record.per_task_fail[task_for(Degradation(d))])}%'"
                for d in degradations
            ]
            parts.append(
                f"when conducting first {order_text}, the fail rates of addressing "
                f"{degradations} are [{', '.join(rates)}] respectively, and the total "
                f"fail rate is {display_percent(record.total_fail)}%"
            )
        lines.append(
            f"To address {'+'.join(degradations)} in the image, " + "; ".join(parts) + "."
        )
    return "\n".join(lines)


KB_VERSION = 1


def kb_to_dict(kb: KnowledgeBase) -> dict:
    return {
        "version": KB_VERSION,
        "records": [
            {
                "combination": sorted(d.value for d in r.combination),
                "order": [t.value for t in r.order],
                "per_task_fail": {t.value: p for t, p in sorted(
                    r.per_task_fail.items(), key=lambda kv: kv[0].value)},
                "total_fail": r.total_fail,
                "n_trials": r.n_trials,
            }
            for r in kb.records
        ],
        "rules": [
            {
                "before": r.before.value,
                "after": r.after.value,
                "margin": r.margin,
                "indifferent": r.indifferent,
                "support": [sorted(d.value for d in combo) for combo in r.support],
            }
            for r in kb.rules
        ],
        "provenance": kb.provenance,
    }


def kb_from_dict(data: dict) -> KnowledgeBase:
    from .core import Degradation

    if not isinstance(data, dict):
        raise SchemaError("$", "document is not a JSON object")
    records = []
    for i, row in enumerate(_expect(data, "records", list)):
        path = f"records[{i}]"
        try:
            combination = frozenset(Degradation(d) for d in _expect(row, "combination", list, path))
            order = tuple(TaskKind(t) for t in _expect(row, "order", list, path))
            per_task = {
                TaskKind(t): float(p)
                for t, p in _expect(row, "per_task_fail", dict, path).items()
            }
            records.append(
                ExperienceRecord(
                    combination,
                    order,
                    per_task,
                    float(_expect(row, "total_fail", (int, float), path)),
                    int(_expect(row, "n_trials", int, path)),
                )
            )
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(path, str(exc)) from None
    rules = []
    for i, row in enumerate(_expect(data, "rules", list)):
        path = f"rules[{i}]"
        try:
            rules.append(
                PrecedenceRule(
                    TaskKind(_expect(row, "before", str, path)),
                    TaskKind(_expect(row, "after", str, path)),
                    float(_expect(row, "margin", (int, float), path)),
                    bool(row.get("indifferent", False)),
                    tuple(
                        frozenset(Degradation(d) for d in combo)
                        for combo in row.get("support", [])
                    ),
                )
            )
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(path, str(exc)) from None
    return KnowledgeBase(records, rules, data.get("provenance", ""))


def _expect(container, key, types, parent="$"):
    if not isinstance(container, dict) or key not in container:
        raise SchemaError(f"{parent}.{key}", "missing field")
    value = container[key]
    if not isinstance(value, types):
        raise SchemaError(f"{parent}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def save_kb(kb: KnowledgeBase, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kb_to_dict(kb), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_kb(path) -> KnowledgeBase:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read knowledge base at {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return kb_from_dict(data)
