"""``verify``: a run's report and trace files, checked against one declared
schema, and each value they print that follows from others, rederived."""

from __future__ import annotations

import json

from .core import (
    ANY_JSON,
    PRESENCE_THRESHOLD,
    Degradation,
    SchemaError,
    Severity,
    TaskKind,
    json_typed,
    member_of,
    read_object,
)
from .harness import RUN_MODES, report_cells

_SEVERITY_OF = {s.label: s for s in Severity}
_RATES = dict.fromkeys(("success_rate", "mean_invocations", "mean_rollbacks"), float)
#: The (status, verdict) pairs a node may hold.  A succeeded node has no
#: verdict only in an error trace, whose search stopped below it.
VERDICTS = {("failure", "rejected"), ("failure", "kept-best-effort"),
            ("success", "accepted"), ("success", "subtree-failed")}
#: Every object of a report or a trace file, each key once with its type: a
#: JSON type; TaskKind or Degradation for a member's name; a frozenset of the
#: strings allowed; ``[t]`` for a list of t; ``(t, u)`` for a pair; ``{k: t}``
#: for an object of keys k and values t; or the name of an object here.
SCHEMA = {
    "report": {"mode": frozenset(RUN_MODES), "seed": int, "runs_per_combination": int,
               "groups": {str: "group"}, "combinations": {str: "combination"}},
    "group": _RATES,
    "combination": {"group": str, "runs": int, **_RATES},
    "trace": {"combination": str, "mode": frozenset(RUN_MODES), "run": int,
              "status": frozenset({"success", "compromise", "error"}), "error": str,
              "agenda": [TaskKind], "counters": "counters", "tree": ["node"], "final": "final",
              "true_success": bool},
    "counters": dict.fromkeys(("rollbacks", "reschedules", "compromises", "invocations", "nodes"),
                              int),
    "final": {"severities": {Degradation: frozenset(_SEVERITY_OF)},
              "history": [(TaskKind, str)], "origin": str},
    "node": {"plan": [TaskKind], "subtask": TaskKind, "tools_tried": [str], "invocations": int,
             "status": frozenset({"success", "failure"}),
             "verdict": frozenset(verdict for _, verdict in VERDICTS), "children": ["node"]},
}
OPTIONAL = {"trace": ("error",), "node": ("verdict", "children")}  # keys an object may lack
_ABSENT = object()


def trace_file(label: str) -> str:
    """The name of the file in ``traces/`` that holds one combination's traces."""
    return label.replace(" ", "_").replace("+", "-") + ".json"


def mismatches(report_name: str, report: dict, files: dict) -> list:
    """The MISMATCH lines of a run's report and its trace files (name -> bytes)."""
    try:
        _check(report, "report", "")
    except SchemaError as exc:
        return [f"{report_name}: {exc}"]
    group_of = {label: cell["group"] for label, cell in report["combinations"].items()}
    names = {trace_file(label): label for label in group_of}
    lines = [f"{name}: no report label names this trace file" for name in sorted(files)
             if name not in names]
    loaded = {}
    for name, label in sorted(names.items()):
        try:
            traces = loaded[label] = json_typed(json.loads(files[name]), list, name)
        except KeyError:
            lines.append(f"{name}: no such trace file")
            continue
        except ValueError as exc:  # not JSON, or a SchemaError
            lines.append(f"{name}: {exc}")
            continue
        for i, trace in enumerate(traces):
            try:
                _check(trace, "trace", "")
            except SchemaError as exc:
                found = [str(exc)]
                loaded.pop(label, None)  # report_cells reads well-typed traces only
            else:
                found = _trace_mismatches(trace, i, label, report["mode"])
            lines += (f"{name}[{i}]: {line}" for line in found)
        if len(traces) != report["runs_per_combination"]:
            lines.append(f"{name}: {len(traces)} traces, but runs_per_combination is "
                         f"{report['runs_per_combination']}")
    for section, cells in report_cells(loaded, group_of).items():
        printed = report[section]
        lines += (f"{section}.{key}: report {printed.get(key)} != traces {cells.get(key)}"
                  for key in sorted({*cells, *printed}) if printed.get(key) != cells.get(key))
    return lines


def _check(value, spec, path: str):
    """Raises a SchemaError naming the first part of ``value``, by its path
    below ``path``, that does not have the type ``spec`` declares."""
    if isinstance(spec, str):
        fields = SCHEMA[spec]
        absent = dict.fromkeys(OPTIONAL.get(spec, ()), _ABSENT)
        values = read_object(value, dict.fromkeys(fields, ANY_JSON), path, **absent)
        for (key, field), item in zip(fields.items(), values):
            if item is not _ABSENT:
                _check(item, field, f"{path}.{key}" if path else key)
        return
    kind = spec.__class__
    json_typed(value, {list: list, tuple: list, dict: dict, frozenset: str,
                       type(TaskKind): str}.get(kind, spec), path)
    if kind is tuple and len(value) != len(spec):
        raise SchemaError(f"{path}: expected {len(spec)} items, not {value!r}")
    if kind is list or kind is tuple:
        for i, item in enumerate(value):
            _check(item, spec[i if kind is tuple else 0], f"{path}[{i}]")
    elif kind is dict:
        ((keys, field),) = spec.items()
        for key, item in value.items():
            _check(key, keys, path)
            _check(item, field, f"{path}.{key}")
    elif kind is frozenset and value not in spec:
        raise SchemaError(f"{path}: {value!r} is not one of {sorted(spec)}")
    elif spec in (TaskKind, Degradation):
        member_of(spec, value, path)


def _trace_mismatches(trace: dict, run: int, label: str, mode: str) -> list:
    """What a well-typed trace, ``run`` of ``label``, gets wrong, one line each."""
    counters, final, status, agenda = map(trace.get, ("counters", "final", "status", "agenda"))
    nodes = [(node, None) for node in trace["tree"]]
    for node, _ in nodes:  # appending while iterating: every node, after its parent
        nodes += [(child, node) for child in node.get("children", ())]
    present = [d for d, s in final["severities"].items() if _SEVERITY_OF[s] >= PRESENCE_THRESHOLD]
    in_tree = sum(node["invocations"] for node, _ in nodes)
    # A search's last top-level node is accepted only if its last round
    # succeeded, and a straight-line run that kept a best effort compromised.
    top = [node.get("verdict") for node in trace["tree"]]
    clean = not top or top[-1] == "accepted" and "kept-best-effort" not in top
    origin = f"{label}#{run}"
    rules = [
        (trace["combination"] == label,
         f"combination {trace['combination']!r} is not this file's label {label!r}"),
        (trace["mode"] == mode, f"mode {trace['mode']!r} is not the report's {mode!r}"),
        (trace["run"] == run, f"run {trace['run']!r} is not its index"),
        (final["origin"] == origin, f"final.origin {final['origin']!r} is not {origin!r}"),
        (("error" in trace) == (status == "error"),
         f"status {status!r} but error {trace.get('error')!r}"),
        (status == "error" or (status == "success") == clean,
         f"status {status!r} but top-level verdicts {top}"),
        (trace["true_success"] is not bool(present), f"true_success {trace['true_success']} "
         f"but final holds {present or 'nothing'} at medium or above"),
        (counters["reschedules"] == counters["rollbacks"],
         f"counters.reschedules {counters['reschedules']} != rollbacks {counters['rollbacks']}"),
        (counters["invocations"] == in_tree,
         f"counters.invocations {counters['invocations']} != {in_tree} over its tree"),
    ]
    for node, parent in nodes:
        subtask, plan, verdict = node["subtask"], node["plan"], node.get("verdict")
        # A plan orders each of its tasks once, and a child's the tasks its parent leaves.
        rest = sorted(set(parent["plan"]) - {parent["subtask"]} if parent else set(plan))
        # Likewise a subtree failed exactly when its last node was not accepted.
        below = [child.get("verdict") for child in node.get("children", ())][-1:]
        rules += [
            (node["invocations"] == len(node["tools_tried"]), f"node {subtask!r} has "
             f"invocations {node['invocations']} but tools_tried {node['tools_tried']}"),
            (plan[:1] == [subtask], f"node {subtask!r} is not the head of its plan {plan}"),
            ((node["status"], verdict) in VERDICTS
             and (verdict == "subtree-failed") == (below not in ([], ["accepted"]))
             or (node["status"], verdict, status) == ("success", None, "error"),
             f"node {subtask!r} has status {node['status']!r} but verdict {verdict!r}"),
            (set(plan) <= set(agenda), f"node {subtask!r} plans {plan} off the agenda {agenda}"),
            (sorted(plan) == rest, f"node {subtask!r} plans {plan}, not an order of {rest}"),
        ]
    return [message for holds, message in rules if not holds]
