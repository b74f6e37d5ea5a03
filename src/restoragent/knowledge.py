"""Exploration statistics, rule distillation, and knowledge-base persistence."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_DOWN, Decimal
from functools import cached_property
from typing import NamedTuple

from .core import (
    TASK_FOR,
    SchemaError,
    TaskKind,
    at_path,
    check_probability,
    degradations_named,
    member_of,
    read_object,
)
from .envsim import reference_calibration

#: Total-fail differences at or below this count as "no significant effect".
EPSILON_TIE = 0.005
_TIE_GUARD = 1e-12  # absorbs float noise in probability arithmetic


class InconsistentTrial(ValueError):
    """A trial or record with an empty combination, an order that is not a
    permutation of its tasks, or flags or fail rates that name other tasks."""


@dataclass(frozen=True)
class ExperienceRecord:
    """Aggregated fail statistics for one (combination, order); an immutable
    value, so its task set is built on first use and kept."""

    combination: frozenset  # of Degradation
    order: tuple  # (TaskKind, ...)
    per_task_fail: dict  # TaskKind -> fraction
    total_fail: float
    n_trials: int

    @cached_property  # stored in the instance dict, past the frozen __setattr__
    def tasks(self) -> frozenset:
        return frozenset(self.per_task_fail)


@dataclass(frozen=True)
class PrecedenceRule:
    before: TaskKind
    after: TaskKind
    margin: float  # total-fail difference; 0 for indifferent rules
    indifferent: bool = False
    support: tuple = ()  # source combinations, as frozensets of Degradation

    def __post_init__(self):
        # The scheduler's early stop takes a plan violating no margin as best.
        check_probability("margin", self.margin)


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
    order: tuple of TaskKind, flags: dict TaskKind -> success bool).  A
    (combination, order) group is checked by ``_check_shape`` when it first
    appears; every later trial's flags must name exactly its group's tasks.
    """
    groups = {}  # (combination, order) -> (tasks, fails, [count])
    for combination, order, flags in trials:
        key = (frozenset(combination), tuple(order))
        group = groups.get(key)
        if group is None:
            combination, order = key
            tasks = _check_shape(combination, order, flags)
            group = groups[key] = (tasks, {t: 0 for t in order}, [0])
        elif flags.keys() != group[0]:
            raise _mismatch(flags, key[0])
        _, fails, count = group
        for task, ok in flags.items():
            if not ok:
                fails[task] += 1
        count[0] += 1
    records = []
    for (combination, order), (_, fails, count) in sorted(
        groups.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1])
    ):
        n = count[0]
        per_task = {task: fails[task] / n for task in order}
        total = sum(per_task.values()) / len(per_task)
        records.append(ExperienceRecord(combination, order, per_task, total, n))
    return records


def _check_shape(combination: frozenset, order: tuple, task_keys: dict) -> frozenset:
    """The tasks of ``combination``, once ``order`` is checked to run each of
    them exactly once and ``task_keys`` (a trial's flags or a record's fail
    rates) to name exactly them; else an InconsistentTrial."""
    if not combination:
        raise InconsistentTrial("empty combination")
    tasks = frozenset(TASK_FOR[d] for d in combination)
    if len(order) != len(tasks) or frozenset(order) != tasks:
        raise _mismatch(order, combination)
    if task_keys.keys() != tasks:
        raise _mismatch(task_keys, combination)
    return tasks


def _mismatch(tasks, combination) -> InconsistentTrial:
    return InconsistentTrial(
        f"flags/order {sorted(map(str, tasks))} do not match "
        f"combination {sorted(map(str, combination))}"
    )


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


def distill(records) -> list:
    """Deterministic pairwise precedence extraction from experience records."""
    totals = _pair_totals(records)
    rules = []
    for (combination, x, y), forward in sorted(
        totals.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1], kv[0][2])
    ):
        backward = totals.get((combination, y, x))
        if y < x or backward is None:
            continue  # each pair once, x first by name, and only with both orders observed
        margin = abs(forward - backward)
        if margin <= EPSILON_TIE + _TIE_GUARD:
            rules.append(PrecedenceRule(x, y, 0.0, True, (combination,)))
        elif forward < backward:
            rules.append(PrecedenceRule(x, y, margin, False, (combination,)))
        else:
            rules.append(PrecedenceRule(y, x, margin, False, (combination,)))
    return rules


class Retrieval(NamedTuple):
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


def reference_records() -> list:
    """Exact ExperienceRecords carrying the published calibration rates,
    each counted as 100 trials."""
    calibration = reference_calibration()
    records = []
    for combination in sorted(calibration.entries, key=sorted):
        for stats in calibration.entries[combination]:
            per_task = {TASK_FOR[d]: p for d, p in stats.fail.items()}
            total = sum(per_task.values()) / len(per_task)
            records.append(
                ExperienceRecord(frozenset(combination), stats.order, per_task, total, 100)
            )
    return records


def reference_kb() -> KnowledgeBase:
    """Knowledge base distilled directly from the published calibration."""
    records = reference_records()
    return KnowledgeBase(records, distill(records), "built-in calibration statistics")


# --- rendering and persistence ---------------------------------------------


def render_experience_text(records) -> str:
    """Per-combination experience lines in the standard phrasing used for
    knowledge-base documents."""
    by_combo = {}
    for record in records:
        by_combo.setdefault(record.combination, []).append(record)
    lines = []
    for combination in sorted(by_combo, key=sorted):
        degradations = sorted(combination)
        names = list(map(str, degradations))
        parts = []
        for record in by_combo[combination]:
            order_text = " and then ".join(record.order)
            rates = [f"'{display_percent(record.per_task_fail[TASK_FOR[d]])}%'"
                     for d in degradations]
            parts.append(
                f"when conducting first {order_text}, the fail rates of addressing "
                f"{names} are [{', '.join(rates)}] respectively, and the total "
                f"fail rate is {display_percent(record.total_fail)}%"
            )
        lines.append(
            f"To address {'+'.join(names)} in the image, " + "; ".join(parts) + "."
        )
    return "\n".join(lines)


KB_VERSION = 1


def kb_to_dict(kb: KnowledgeBase) -> dict:
    return {
        "version": KB_VERSION,
        "records": [
            {
                "combination": sorted(r.combination),
                "order": list(r.order),
                "per_task_fail": dict(sorted(r.per_task_fail.items())),
                "total_fail": r.total_fail,
                "n_trials": r.n_trials,
            }
            for r in kb.records
        ],
        "rules": [
            {
                "before": r.before,
                "after": r.after,
                "margin": r.margin,
                "indifferent": r.indifferent,
                "support": [sorted(combo) for combo in r.support],
            }
            for r in kb.rules
        ],
        "provenance": kb.provenance,
    }


def kb_from_dict(data) -> KnowledgeBase:
    """The knowledge base a document holds; a key nothing reads, or a second
    record for one (combination, order), is a SchemaError."""
    version, record_rows, rule_rows, provenance = read_object(
        data, {"version": int, "records": list, "rules": list, "provenance": str},
        provenance="")
    if version != KB_VERSION:
        raise SchemaError(f"version: expected {KB_VERSION}, not {version!r}")
    records = [_record_from_dict(row, f"records[{i}]") for i, row in enumerate(record_rows)]
    first = {}
    for i, record in enumerate(records):
        j = first.setdefault((record.combination, record.order), i)
        if j != i:
            raise SchemaError(f"records[{i}]: repeats the combination and order of records[{j}]")
    rules = [_rule_from_dict(row, f"rules[{i}]") for i, row in enumerate(rule_rows)]
    return KnowledgeBase(records, rules, provenance)


def _record_from_dict(row, path: str) -> ExperienceRecord:
    """The record of the KB row at ``path``; each error names ``path``."""
    combination, order, rates, total_fail, n_trials = read_object(
        row, {"combination": list, "order": list, "per_task_fail": dict,
              "total_fail": (int, float), "n_trials": int}, path)
    with at_path(path):
        degradations = degradations_named(combination, f"{path}.combination")
        tasks = tuple(member_of(TaskKind, t, f"{path}.order[{j}]") for j, t in enumerate(order))
        rate_tasks = [member_of(TaskKind, t, f"{path}.per_task_fail") for t in rates]
        for task, p in rates.items():
            check_probability("per_task_fail[%r]", p, task)
        if n_trials < 1:
            raise ValueError(f"n_trials must be an integer >= 1, not {n_trials!r}")
        record = ExperienceRecord(
            frozenset(degradations), tasks,
            {task: float(p) for task, p in zip(rate_tasks, rates.values())},
            float(total_fail), n_trials)
        _check_shape(record.combination, record.order, record.per_task_fail)
        if not abs(record.total_fail - sum(record.per_task_fail.values()) / len(rates)) <= 1e-9:
            raise ValueError(f"total_fail {record.total_fail} is not the mean of per_task_fail")
    return record


def _rule_from_dict(row, path: str) -> PrecedenceRule:
    """The rule of the KB row at ``path``; each error names ``path``."""
    before, after, margin, indifferent, support = read_object(
        row, {"before": TaskKind, "after": TaskKind, "margin": (int, float),
              "indifferent": bool, "support": list}, path, indifferent=False, support=[])
    with at_path(path):
        rule = PrecedenceRule(before, after, float(margin), indifferent, tuple(
            frozenset(degradations_named(combo, f"{path}.support[{k}]"))
            for k, combo in enumerate(support)))
        if before == after or (indifferent and rule.margin):
            raise ValueError(f"{str(before)!r} before {str(after)!r} with margin {rule.margin}: "
                             "a rule needs two tasks, and margin 0 if indifferent")
        for combo in rule.support:
            if not {before, after} <= {TASK_FOR[d] for d in combo}:
                raise ValueError(f"support {sorted(map(str, combo))} lacks the degradation "
                                 f"of {str(before)!r} or {str(after)!r}")
    return rule


def save_kb(kb: KnowledgeBase, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kb_to_dict(kb), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_kb(path) -> KnowledgeBase:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
    return kb_from_dict(data)
