"""``verify`` against its declared schema: one tampered leaf of every kind
the schema declares, and the rules that derive a value from others."""

import json

import pytest

from restoragent import verify
from restoragent.cli import main
from restoragent.core import Degradation, TaskKind
from restoragent.envsim import env_to_dict, reference_tabular_env
from test_cli import DELETE, TOOL, _edited, _invoke_main, _write_json

#: Leaf kinds whose same-type edit still verifies, with the reason and the
#: ROADMAP item that will check them.  This dict may only shrink.
UNCHECKED = {
    "report.seed": "no value in the files follows from the seed; item 10 replays the runs",
    "counters.compromises": "no round boundary is written; item 4 marks each compromise round",
    "counters.nodes": "no round boundary is written; item 4 marks each compromise round",
    "final.severities{}": "only the presence threshold follows from true_success; item 10",
    "final.history[][0]": "the path that made the final profile is not written; item 10",
    "final.history[][1]": "the path that made the final profile is not written; item 10",
    "trace.error": "its text comes from the program alone; item 10",
    "node.tools_tried[]": "tool ids come from the environment config; item 10",
}


def _leaf_kinds() -> set:
    """Each leaf of SCHEMA as ``object.key``, then ``[]``, ``[i]`` or ``{}``
    for each step into a list, a pair or an object's values."""
    kinds = set()

    def walk(spec, kind):
        if isinstance(spec, list):
            walk(spec[0], f"{kind}[]")
        elif isinstance(spec, tuple):
            for i, item in enumerate(spec):
                walk(item, f"{kind}[{i}]")
        elif isinstance(spec, dict):
            walk(*spec.values(), f"{kind}{{}}")
        elif not isinstance(spec, str):  # a name is an object of its own
            kinds.add(kind)

    for name, fields in verify.SCHEMA.items():
        for key, spec in fields.items():
            walk(spec, f"{name}.{key}")
    return kinds


def _first_leaves(spec, value, kind, keys, found):
    """The first (keys, value, spec) of each leaf kind in ``value``, in
    ``found``, and of each object of SCHEMA under its name; under
    ``(name, "lacks")``, the keys some object of that name lacks."""
    if isinstance(spec, str):
        found.setdefault(spec, (keys, value, spec))
        found.setdefault((spec, "lacks"), set()).update(set(verify.SCHEMA[spec]) - set(value))
        for key, field in verify.SCHEMA[spec].items():
            if key in value:
                _first_leaves(field, value[key], f"{spec}.{key}", (*keys, key), found)
    elif isinstance(spec, (list, tuple)):
        for i, item in enumerate(value):
            step = "[]" if isinstance(spec, list) else f"[{i}]"
            _first_leaves(spec[0 if isinstance(spec, list) else i], item, kind + step,
                          (*keys, i), found)
    elif isinstance(spec, dict):
        for key, item in value.items():
            _first_leaves(*spec.values(), item, kind + "{}", (*keys, key), found)
    else:
        found.setdefault(kind, (keys, value, spec))


def _other_values(value, spec) -> list:
    """Every other value a leaf of an enumerated kind may hold, or one other
    value of the same JSON type."""
    if isinstance(spec, frozenset):
        return sorted(spec - {value})
    if spec in (TaskKind, Degradation):
        return [str(m) for m in spec if m != value]
    return [{bool: lambda: not value, int: lambda: value + 1, float: lambda: value + 0.5,
             str: lambda: value + "x"}[spec]()]


def _run(tmp_path, config, runs):
    out = tmp_path / "out"
    result = _invoke_main(main, ["run", "--config", str(config), "--runs", str(runs), "--seed",
                                 "3", "--combinations", "group-A", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def _verify(out):
    return _invoke_main(main, ["verify", "--report", str(out / "report.json"),
                               "--traces", str(out / "traces")])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A tabular run, and a run whose traces end in an error: only dehazing
    has a tool, so rain + haze raises NoTools below its dehazing node."""
    tabular = tmp_path_factory.mktemp("tabular")
    errors = tmp_path_factory.mktemp("errors")
    return [
        _run(tabular, _write_json(tabular / "env.json", env_to_dict(reference_tabular_env())), 4),
        _run(errors, _write_json(errors / "env.json", {"mode": "mechanistic", "tools": [
            {**TOOL, "id": "dehaze", "task": "dehazing"}]}), 2),
    ]


def test_every_leaf_kind_of_the_schema_is_checked_or_unchecked_by_design(outputs):
    """One instance of every leaf kind, given a value of another JSON type,
    exits 2.  Given each other value of its type (one, for a number, string
    or bool), it exits 2 every time, unless UNCHECKED names its kind: then
    at least one edit verifies, so that no entry is stale.  A same-length
    ``tools_tried`` rename is classified the same way, and each key an
    object may not lack, deleted from the object's first instance, exits 2."""
    found = {}
    for out in outputs:
        assert _verify(out).exit_code == 0
        _first_leaves("report", json.loads((out / "report.json").read_text()), "", (),
                      found.setdefault((out, "report.json"), {}))
        for path in sorted((out / "traces").glob("*.json")):
            for i, trace in enumerate(json.loads(path.read_text())):
                _first_leaves("trace", trace, "", (i,),
                              found.setdefault((out, f"traces/{path.name}"), {}))
    first, lacking = {}, set()  # kind -> (out, relpath, keys, value, spec)
    for (out, relpath), leaves in found.items():
        for kind, leaf in leaves.items():
            if isinstance(kind, tuple):
                lacking.update(f"{kind[0]}.{key}" for key in leaf)
            else:
                first.setdefault(kind, (out, relpath, *leaf))
    # A key is optional exactly when some object of the two runs lacks it.
    assert lacking == {f"{name}.{key}" for name, keys in verify.OPTIONAL.items() for key in keys}
    kinds = _leaf_kinds()
    assert set(first) == kinds | set(verify.SCHEMA)  # every declared kind is tampered with
    assert set(UNCHECKED) <= kinds

    # (kind, where, edits, whether one of them may verify)
    cases = [(kind, first[kind][:3], [5 if isinstance(first[kind][3], str) else "x"], False)
             for kind in kinds]
    cases += [(kind, first[kind][:3], _other_values(*first[kind][3:]), kind in UNCHECKED)
              for kind in kinds]
    out, relpath, keys, value, _ = first["node.tools_tried[]"]
    cases.append(("node.tools_tried[]", (out, relpath, keys),
                  [value[:-1] + chr(ord(value[-1]) + 1)], True))
    for name, fields in verify.SCHEMA.items():
        out, relpath, keys = first[name][:3]
        cases += [(f"{name}.{key}", (out, relpath, (*keys, key)), [DELETE], False)
                  for key in fields if key not in verify.OPTIONAL.get(name, ())]
    wrong = []
    for kind, (out, relpath, keys), edits, may_verify in sorted(cases, key=lambda c: c[0]):
        path = out / relpath
        original = path.read_bytes()
        verified = []
        for edit in edits:
            path.write_text(json.dumps(_edited(json.loads(original), keys, edit)), encoding="utf-8")
            if _verify(out).exit_code == 0:
                verified.append(edit)
        path.write_bytes(original)
        if bool(verified) != may_verify:
            wrong.append(f"{kind} at {relpath}{list(keys)}: {edits} verified for {verified}")
    assert wrong == []


@pytest.mark.parametrize(
    "relpath, keys, value, line",
    [
        pytest.param("report.json", ["seed"], "x", "report.json: seed: expected an integer, not 'x'",
                     id="report-seed"),
        pytest.param("traces/rain_-_haze.json", [0, "agenda"], 5,
                     "rain_-_haze.json[0]: agenda: expected a list, not 5", id="agenda"),
        pytest.param("traces/rain_-_haze.json", [0, "counters", "nodes"], "x",
                     "rain_-_haze.json[0]: counters.nodes: expected an integer, not 'x'",
                     id="counters-nodes"),
        pytest.param("traces/rain_-_haze.json", [0, "final", "origin"], 7,
                     "rain_-_haze.json[0]: final.origin: expected a string, not 7",
                     id="final-origin"),
        pytest.param("traces/rain_-_haze.json", [0, "tree", 0, "plan", 1], "bogus",
                     "rain_-_haze.json[0]: tree[0].plan[1]: 'bogus' is not a valid TaskKind",
                     id="node-plan-item"),
        pytest.param("traces/rain_-_haze.json", [0, "bogus"], 1,
                     "rain_-_haze.json[0]: unknown key 'bogus'", id="unknown-trace-key"),
        pytest.param("traces/rain_-_haze.json", [0, "status"], "bogus",
                     "rain_-_haze.json[0]: status: 'bogus' is not one of "
                     "['compromise', 'error', 'success']", id="trace-status"),
        pytest.param("traces/rain_-_haze.json", [0, "tree", 0, "children", 0, "plan"],
                     ["deraining", "dehazing"],
                     "rain_-_haze.json[0]: node 'deraining' plans ['deraining', 'dehazing'], "
                     "not an order of ['deraining']", id="child-plan-not-its-rest"),
        pytest.param("traces/rain_-_haze.json", [0, "tree", 0, "plan"], ["dehazing", "dehazing"],
                     "rain_-_haze.json[0]: node 'dehazing' plans ['dehazing', 'dehazing'], "
                     "not an order of ['dehazing']", id="plan-repeats-a-task"),
        pytest.param("traces/rain_-_haze.json", [0, "tree", 0, "children", 0, "verdict"],
                     "subtree-failed", "rain_-_haze.json[0]: node 'deraining' has status "
                     "'success' but verdict 'subtree-failed'", id="verdict-not-its-subtree"),
        pytest.param("traces/rain_-_haze.json", [0, "agenda"], ["dehazing", "denoising"],
                     "rain_-_haze.json[0]: node 'dehazing' plans ['dehazing', 'deraining'] off "
                     "the agenda ['dehazing', 'denoising']", id="plan-off-the-agenda"),
        pytest.param("traces/rain_-_haze.json", [0, "final", "history", 0],
                     ["dehazing", "tabular:dehazing", "x"],
                     "rain_-_haze.json[0]: final.history[0]: expected 2 items, not "
                     "['dehazing', 'tabular:dehazing', 'x']", id="history-entry-not-a-pair"),
        pytest.param("traces/rain_-_haze.json", [0, "final", "origin"], "rain + haze#3",
                     "rain_-_haze.json[0]: final.origin 'rain + haze#3' is not "
                     "'rain + haze#0'", id="origin-of-another-run"),
        pytest.param("traces/rain_-_haze.json", [0, "status"], "compromise",
                     "rain_-_haze.json[0]: status 'compromise' but top-level verdicts "
                     "['accepted']", id="status-not-its-verdicts"),
        pytest.param("traces/rain_-_haze.json", [0, "error"], "NoTools: none",
                     "rain_-_haze.json[0]: status 'success' but error 'NoTools: none'",
                     id="error-in-a-success-trace"),
    ],
)
def test_verify_names_the_file_index_and_path_of_a_tampered_leaf(outputs, relpath, keys,
                                                                 value, line):
    out = outputs[0]
    path = out / relpath
    original = path.read_bytes()
    path.write_text(json.dumps(_edited(json.loads(original), keys, value)), encoding="utf-8")
    try:
        result = _verify(out)
    finally:
        path.write_bytes(original)
    assert result.exit_code == 2, result.output
    assert f"MISMATCH {line}\n" in result.stderr


def test_a_label_without_its_trace_file_is_a_mismatch(outputs):
    path = outputs[0] / "traces" / "rain_-_haze.json"
    original = path.read_bytes()
    path.unlink()
    try:
        result = _verify(outputs[0])
    finally:
        path.write_bytes(original)
    assert result.exit_code == 2, result.output
    assert "MISMATCH rain_-_haze.json: no such trace file\n" in result.stderr
