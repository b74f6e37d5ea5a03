import ast
import enum
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tomllib
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from restoragent import cli, harness, knowledge
from restoragent.cli import main
from restoragent.core import (
    LOW,
    Degradation,
    DegradationCombination,
    TaskKind,
    builtin_combinations,
    combinations_in_group,
    initial_profile,
)
from restoragent.envsim import (
    Environment,
    OrderStats,
    TabularCalibration,
    default_mechanistic_env,
    env_from_dict,
    env_to_dict,
    reference_tabular_env,
)
from restoragent.execution import execute_subtask
from restoragent.explore import ExplorationConfig, explore
from restoragent.harness import (
    RUN_MODES,
    make_deps,
    parse_combinations,
    recompute_report,
    report_cells,
    run_batch,
)
from restoragent.knowledge import (
    ExperienceRecord,
    KnowledgeBase,
    aggregate,
    kb_from_dict,
    kb_to_dict,
    load_kb,
    reference_kb,
)
from restoragent.perception import NoiseModel, PerfectOracle
from restoragent.rng import Stream
from restoragent.scheduling import ExperienceScheduler

DELETE = object()
TOOL = {"id": "a", "task": "denoising", "outcome": {"full": 1.0, "partial": 0.0, "none": 0.0}}


def _edited(data, keys, value):
    """A deep copy of ``data`` with the item at ``keys`` set to ``value``,
    or deleted when ``value`` is DELETE."""
    data = json.loads(json.dumps(data))
    target = data
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return data


def _kb(keys, value):
    return _edited(kb_to_dict(reference_kb()), keys, value)


def _tabular(keys, value):
    return _edited(env_to_dict(reference_tabular_env()), keys, value)


def _mechanistic(keys, value):
    return _edited(env_to_dict(default_mechanistic_env(0)), keys, value)


CALIBRATION = env_to_dict(reference_tabular_env())["calibration"]
KB_RECORDS = kb_to_dict(reference_kb())["records"]  # records[4] is deraining -> dehazing
TUPLE = {"combination": ["rain", "haze"], "order": ["deraining", "dehazing"],
         "flags": {"deraining": True, "dehazing": True}}
MECHANISTIC_TOOLS = env_to_dict(default_mechanistic_env(0))["tools"]  # one or more per task
RULE = {"task": "denoising", "condition": {"kind": "task-in-history", "task": "deraining"},
        "effect": {"kind": "fail-boost", "delta": 0.5}}


def _invoke_main(main, argv):
    """``main(argv)`` with stdout and stderr captured: its exit status, the
    two streams, both of them (stdout first), and the SystemExit of a
    non-zero status."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main(argv)
        except SystemExit as raised:
            exception = raised if raised.code else None
    out, err = stdout.getvalue(), stderr.getvalue()
    return SimpleNamespace(exit_code=exception.code if exception else 0, stdout=out, stderr=err,
                           output=out + err, exception=exception)


@pytest.fixture
def runner():
    return SimpleNamespace(invoke=_invoke_main)


def _write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.fixture
def env_config(tmp_path):
    return _write_json(tmp_path / "env.json", env_to_dict(reference_tabular_env()))


def test_explore_then_summarize_pipeline(runner, tmp_path):
    config = _write_json(
        tmp_path / "explore.json",
        {
            "environment": "reference-tabular",
            "combinations": [["rain", "haze"]],
            "samples_per_combination": 2,
            "trials_per_sample": 3,
            "seed": 1,
        },
    )
    tuples = tmp_path / "tuples.jsonl"
    result = runner.invoke(main, ["explore", "--config", str(config), "--out", str(tuples)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(l) for l in tuples.read_text().splitlines()]
    assert len(lines) == 12  # 2 permutations x 2 samples x 3 trials
    assert all(sorted(row["combination"]) == ["haze", "rain"] for row in lines)
    assert "To address haze+rain in the image" in result.output

    kb_path = tmp_path / "kb.json"
    result = runner.invoke(main, ["summarize", "--tuples", str(tuples), "--out", str(kb_path)])
    assert result.exit_code == 0, result.output
    kb = load_kb(kb_path)
    assert len(kb.records) == 2
    assert {r.order for r in kb.records} == {
        (TaskKind.DEHAZING, TaskKind.DERAINING),
        (TaskKind.DERAINING, TaskKind.DEHAZING),
    }


def test_explore_and_summarize_print_plain_names(runner, tmp_path):
    """A member's repr is ``<TaskKind.X: 'x'>``; the experience text formats
    lists of names, which must read as the names alone."""
    config = _write_json(tmp_path / "explore.json", {
        "combinations": "group-C", "samples_per_combination": 1, "trials_per_sample": 2})
    tuples = tmp_path / "tuples.jsonl"
    explored = runner.invoke(main, ["explore", "--config", str(config), "--out", str(tuples)])
    summarized = runner.invoke(
        main, ["summarize", "--tuples", str(tuples), "--out", str(tmp_path / "kb.json")])
    for result in (explored, summarized):
        assert result.exit_code == 0, result.output
        assert "the fail rates of addressing ['haze', 'low resolution', 'motion blur']" in (
            result.output)
        assert "<TaskKind" not in result.output and "<Degradation" not in result.output


RAIN_HAZE = DegradationCombination("A", (Degradation.RAIN, Degradation.HAZE))
_T, _D = TaskKind, Degradation


def _twice_in_a_calibration():
    calibration = TabularCalibration()
    for _ in range(2):
        calibration.add(OrderStats((_T.DERAINING,), {_D.RAIN: 0.1}))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: aggregate([(RAIN_HAZE.key, (_T.DERAINING,), {_T.DERAINING: True})]),
                     "flags/order ['deraining'] do not match combination ['haze', 'rain']",
                     id="aggregate-mismatch"),
        pytest.param(lambda: OrderStats((_T.DERAINING, _T.DERAINING), {_D.RAIN: 0.1}),
                     "order ['deraining', 'deraining'] is empty or repeats a task",
                     id="order-stats-repeat"),
        pytest.param(lambda: OrderStats((_T.DERAINING,), {_D.HAZE: 0.1}),
                     "fail rates of order ['deraining'] must name exactly its degradations",
                     id="order-stats-fail-rates"),
        pytest.param(_twice_in_a_calibration, "order ['deraining'] is given twice",
                     id="order-stats-twice"),
        pytest.param(lambda: explore(Environment("mechanistic"), ExplorationConfig(
                         combinations=[RAIN_HAZE], samples_per_combination=1,
                         trials_per_sample=1)),
                     "no tools for 'deraining'", id="missing-tools"),
        pytest.param(lambda: execute_subtask(_T.DEHAZING, initial_profile(RAIN_HAZE, 0), {},
                                             PerfectOracle(), LOW, Stream(0)),
                     "no tools registered for 'dehazing'", id="no-tools"),
        pytest.param(lambda: ExperienceScheduler(KnowledgeBase([ExperienceRecord(
                         RAIN_HAZE.key, (_T.DEHAZING,), {_T.DERAINING: 0.1, _T.DEHAZING: 0.2},
                         0.15, 100)])).schedule({_T.DERAINING, _T.DEHAZING}),
                     "plan ('dehazing',) is not a permutation of its agenda",
                     id="scheduler-bad-record"),
        pytest.param(lambda: kb_from_dict({"version": 1, "records": [], "rules": [
                         {"before": "deraining", "after": "dehazing", "margin": 0.1,
                          "support": [["noise", "haze"]]}]}),
                     "rules[0]: support ['haze', 'noise'] lacks the degradation of "
                     "'deraining' or 'dehazing'", id="kb-rule-support"),
    ],
)
def test_an_error_names_tasks_and_degradations_plainly(call, message):
    with pytest.raises(Exception) as raised:
        call()
    assert str(raised.value) == message


def test_run_writes_report_traces_and_timings(runner, tmp_path, env_config):
    kb_path = tmp_path / "kb.json"
    from restoragent.knowledge import save_kb

    save_kb(reference_kb(), kb_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["run", "--config", str(env_config), "--kb", str(kb_path), "--runs", "2",
         "--seed", "3", "--combinations", "group-A", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "full"
    assert report["seed"] == 3
    assert set(report["groups"]) == {"A"}
    assert len(report["combinations"]) == 8
    assert len(list((out / "traces").glob("*.json"))) == 8
    assert "mean_wall_clock_s" in json.loads((out / "timings.json").read_text())
    assert "success rate" in result.output


def test_run_report_is_deterministic(runner, tmp_path, env_config):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["run", "--config", str(env_config), "--runs", "2", "--seed", "5",
             "--combinations", "group-A", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        outputs.append(out)
    a, b = outputs
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    for trace in sorted((a / "traces").glob("*.json")):
        assert trace.read_bytes() == (b / "traces" / trace.name).read_bytes()


@pytest.mark.parametrize(
    "relpath, keys, value",
    [
        pytest.param("report.json", ["combinations", "rain + haze", "success_rate"], 0.123,
                     id="combination-cell"),
        pytest.param("report.json", ["combinations", "rain + haze", "runs"], 3,
                     id="combination-runs"),
        pytest.param("report.json", ["combinations", "rain + haze", "group"], "Z",
                     id="combination-group"),
        pytest.param("report.json", ["groups", "A", "success_rate"], 0.123, id="group-cell"),
        pytest.param("traces/rain_-_haze.json", [0, "counters", "invocations"], 99,
                     id="trace-invocations"),
        pytest.param("traces/rain_-_haze.json", [0, "tree", 0, "invocations"], 99,
                     id="tree-node-invocations"),
        pytest.param("traces/rain_-_haze.json", [0, "tree"], DELETE, id="trace-without-tree"),
        pytest.param("traces/rain_-_haze.json", [0, "true_success"], DELETE,
                     id="trace-without-success-flag"),
        pytest.param("traces/rain_-_haze.json", [], '{"x": 1}', id="trace-file-not-a-list"),
        pytest.param("traces/rain_-_haze.json", [], "not json", id="trace-file-not-json"),
        pytest.param(("traces/rain_-_haze.json", "traces/aa_tampered.json"),
                     [0, "counters", "rollbacks"], 99, id="tampered-copy-under-another-name"),
        pytest.param("traces/rain_-_haze.json", [1, "combination"], "haze + rain",
                     id="trace-combination-not-its-file-label"),
        pytest.param("report.json", ["combinations", "rain + haze"], 5,
                     id="combination-cell-not-an-object"),
        pytest.param("report.json", ["combinations"], [], id="combinations-not-an-object"),
        pytest.param("report.json", ["groups"], [], id="groups-not-an-object"),
    ],
)
def test_verify_accepts_then_rejects_tampered_report(
    runner, tmp_path, env_config, relpath, keys, value
):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["run", "--config", str(env_config), "--runs", "2", "--seed", "0",
         "--combinations", "group-A", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main, ["verify", "--report", str(out / "report.json"), "--traces", str(out / "traces")]
    )
    assert result.exit_code == 0, result.output
    assert "report verified" in result.output

    # A pair of paths edits a copy of the first file written to the second.
    source, target = relpath if isinstance(relpath, tuple) else (relpath, relpath)
    if keys:
        value = json.dumps(_edited(json.loads((out / source).read_text()), keys, value))
    (out / target).write_text(value, encoding="utf-8")
    result = runner.invoke(
        main, ["verify", "--report", str(out / "report.json"), "--traces", str(out / "traces")]
    )
    assert result.exit_code == 2, result.output
    assert "MISMATCH" in result.output


def test_verify_rejects_a_node_whose_tools_tried_disagree_with_its_invocations(
    runner, tmp_path, env_config
):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["run", "--config", str(env_config), "--runs", "2", "--seed", "0",
         "--combinations", "group-A", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    path = out / "traces" / "rain_-_haze.json"
    traces = json.loads(path.read_text())
    node = traces[0]["tree"][0]
    node["tools_tried"].append("made-up-tool")  # invocations and every total stay as they were
    path.write_text(json.dumps(traces), encoding="utf-8")
    result = runner.invoke(
        main, ["verify", "--report", str(out / "report.json"), "--traces", str(out / "traces")]
    )
    assert result.exit_code == 2, result.output
    assert "MISMATCH" in result.output
    assert "tools_tried" in result.output


@pytest.mark.parametrize(
    "keys, value, line",
    [
        pytest.param([1, "true_success"], "yes", "true_success 'yes' is not of type bool",
                     id="success-flag-a-string"),
        pytest.param([1, "counters", "invocations"], True,
                     "counters.invocations True is not of type int", id="invocations-a-bool"),
        pytest.param([1, "counters", "rollbacks"], 0.0,
                     "counters.rollbacks 0.0 is not of type int", id="rollbacks-a-float"),
    ],
)
def test_verify_names_the_trace_whose_counted_field_has_the_wrong_type(
    runner, tmp_path, env_config, keys, value, line
):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["run", "--config", str(env_config), "--runs", "2", "--seed", "0",
         "--combinations", "group-A", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    path = out / "traces" / "rain_-_haze.json"
    path.write_text(json.dumps(_edited(json.loads(path.read_text()), keys, value)), encoding="utf-8")
    result = runner.invoke(
        main, ["verify", "--report", str(out / "report.json"), "--traces", str(out / "traces")]
    )
    assert result.exit_code == 2, result.output
    assert (f"MISMATCH rain_-_haze.json: malformed trace file: ValueError: trace 1: {line}\n"
            in result.output)


@pytest.mark.parametrize(
    "relpath, keys, value, line",
    [
        pytest.param("traces/rain_-_haze.json", [1, "mode"], "no-rollback",
                     "rain_-_haze.json[1]: mode 'no-rollback' is not the report's 'full'",
                     id="trace-mode"),
        pytest.param("traces/rain_-_haze.json", [1, "run"], 0,
                     "rain_-_haze.json[1]: run 0 is not its index", id="trace-run"),
        pytest.param("report.json", ["mode"], "no-rollback",
                     "rain_-_haze.json[0]: mode 'full' is not the report's 'no-rollback'",
                     id="report-mode"),
        pytest.param("report.json", ["runs_per_combination"], 3,
                     "rain_-_haze.json: 2 traces, but runs_per_combination is 3",
                     id="report-runs-per-combination"),
    ],
)
def test_verify_names_the_file_whose_mode_run_or_trace_count_is_wrong(
    runner, tmp_path, env_config, relpath, keys, value, line
):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["run", "--config", str(env_config), "--runs", "2", "--seed", "0",
         "--combinations", "group-A", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    verify = ["verify", "--report", str(out / "report.json"), "--traces", str(out / "traces")]
    assert runner.invoke(main, verify).exit_code == 0
    path = out / relpath
    path.write_text(json.dumps(_edited(json.loads(path.read_text()), keys, value)), encoding="utf-8")
    result = runner.invoke(main, verify)
    assert result.exit_code == 2, result.output
    assert f"MISMATCH {line}\n" in result.stderr


def test_a_bug_in_report_cells_is_not_a_mismatch(runner, tmp_path, env_config, monkeypatch):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["run", "--config", str(env_config), "--runs", "2", "--seed", "0",
         "--combinations", "group-A", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output

    def buggy(*args):
        raise KeyError("bug inside report_cells")

    monkeypatch.setattr(cli, "report_cells", buggy)
    result = runner.invoke(
        main, ["verify", "--report", str(out / "report.json"), "--traces", str(out / "traces")]
    )
    _assert_internal_error(result, "KeyError: 'bug inside report_cells'")
    assert "MISMATCH" not in result.output


@pytest.mark.parametrize(
    "command, config, exit_code",
    [
        pytest.param("run", [], 1, id="run-config-not-an-object"),
        pytest.param("explore", {"environment": {"tools": []}}, 1, id="explore-env-without-mode"),
        pytest.param("explore", {"evaluator": [0.1]}, 1, id="explore-evaluator-not-an-object"),
        pytest.param("explore", {"environment": {"mode": "mechanistic", "tools": [TOOL]}}, 1,
                     id="explore-env-without-tools-for-a-task"),
        pytest.param("explore", {"evaluator": None}, 0, id="explore-null-evaluator-is-perfect"),
        pytest.param("run", {**env_to_dict(reference_tabular_env()),
                             "evaluator": {"p_miss": {"rain": 2.0}}}, 1,
                     id="run-p-miss-out-of-range"),
        pytest.param("run", {**env_to_dict(reference_tabular_env()),
                             "evaluator": {"p_miss": {"rain": "high"}}}, 1,
                     id="run-p-miss-not-a-number"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "fail", "haze"], "0.3"), 1,
                     id="run-calibration-fail-a-string"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "fail", "haze"], 1.7), 1,
                     id="run-calibration-fail-out-of-range"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "fail", "haze"], True), 1,
                     id="run-calibration-fail-a-bool"),
        pytest.param("run", {**env_to_dict(reference_tabular_env()),
                             "evaluator": {"p_miss": {"rain": True}}}, 1,
                     id="run-p-miss-a-bool"),
        pytest.param("run", {**env_to_dict(reference_tabular_env()),
                             "evaluator": {"p_false": {"rain": True}}}, 1,
                     id="run-p-false-a-bool"),
        pytest.param("run", {"mode": "mechanistic", "tools": [{**TOOL, "outcome": {
                         "full": True, "partial": 0, "none": 0}}]}, 1,
                     id="run-outcome-a-bool"),
        pytest.param("run", {"mode": "mechanistic", "tools": [TOOL], "rules": [{
                         "task": "denoising",
                         "condition": {"kind": "task-in-history", "task": "deraining"},
                         "effect": {"kind": "fail-boost", "delta": True}}]}, 1,
                     id="run-fail-boost-delta-a-bool"),
        pytest.param("run", {"mode": "mechanistic", "tools": [TOOL], "rules": [{
                         "task": "denoising",
                         "condition": {"kind": "task-in-history", "task": "deraining"},
                         "effect": {"kind": "side-effect", "degradation": "rain", "p": True}}]},
                     1, id="run-side-effect-p-a-bool"),
        pytest.param("run", {"mode": "mechanistic", "tools": 5}, 1, id="run-tools-not-a-list"),
        pytest.param("run", {"mode": "mechanistic", "tools": [
                         {**TOOL, "id": "x", "task": "deraining"},
                         {**TOOL, "id": "x", "task": "dehazing"}]}, 1,
                     id="run-tool-id-repeated"),
        pytest.param("run", _tabular(["calibration", "orders", 4], {"order": [], "fail": {}}), 1,
                     id="run-calibration-order-empty"),
        pytest.param("run", _tabular(["calibration", "orders", 4], {
                         "order": ["deraining", "deraining"], "fail": {"rain": 0.05}}), 1,
                     id="run-calibration-order-repeats-a-task"),
        pytest.param("run", _tabular(["calibration", "orders", 4, "fail"],
                                     {"rain": 0.1, "noise": 0.9}), 1,
                     id="run-calibration-fail-names-other-degradations"),
        pytest.param("run", _tabular(["calibration", "orders", 5], CALIBRATION["orders"][4]), 1,
                     id="run-calibration-order-given-twice"),
        pytest.param("run", _tabular(["rules"], [RULE]), 1, id="run-tabular-with-rules"),
        pytest.param("run", _tabular(["tools"], MECHANISTIC_TOOLS), 1, id="run-tabular-with-tools"),
        pytest.param("explore", {"environment": _tabular(["tools"], MECHANISTIC_TOOLS)}, 1,
                     id="explore-tabular-env-with-tools"),
        pytest.param("run", {"mode": "mechanistic", "tools": [TOOL], "calibration": CALIBRATION},
                     1, id="run-mechanistic-with-calibration"),
        pytest.param("run", {"mode": "mechanistic", "tools": [{**TOOL, "outcome": {
                         "full": "1", "partial": 0, "none": 0}}]}, 1,
                     id="run-outcome-not-a-number"),
        pytest.param("run", {"mode": "mechanistic", "tools": [TOOL], "rules": [{
                         "task": "denoising",
                         "condition": {"kind": "task-in-history", "task": "deraining"},
                         "effect": {"kind": "fail-boost", "delta": "big"}}]}, 1,
                     id="run-fail-boost-delta-not-a-number"),
        pytest.param("explore", {"samples_per_combination": "3"}, 1,
                     id="explore-samples-not-a-number"),
        pytest.param("explore", {"combinations": [[]]}, 1, id="explore-empty-combination"),
        pytest.param("explore", {"combinations": [["rain", "rain"]]}, 1,
                     id="explore-repeated-degradation"),
        pytest.param("explore", {"success_threshold": 1}, 1,
                     id="explore-threshold-not-a-string"),
        pytest.param("explore", {"seed": "abc"}, 1, id="explore-seed-a-string"),
        pytest.param("explore", {"seed": None}, 1, id="explore-seed-null"),
        pytest.param("explore", {"seed": 1.5}, 1, id="explore-seed-not-an-integer"),
        pytest.param("explore", {"seed": True}, 1, id="explore-seed-a-bool"),
        pytest.param("explore", {"samples_per_combination": 2.5}, 1,
                     id="explore-samples-not-an-integer"),
        pytest.param("explore", {"samples_per_combination": True}, 1,
                     id="explore-samples-a-bool"),
        pytest.param("explore", {"trials_per_sample": 1.5}, 1,
                     id="explore-trials-not-an-integer"),
        pytest.param("explore", {"trials_per_sample": True}, 1, id="explore-trials-a-bool"),
        pytest.param("run", {"mode": "mechanistic", "tools": [TOOL], "rules": [{
                         "task": "denoising",
                         "condition": {"kind": "degradation-present", "degradation": "rain",
                                       "min_severity": 3},
                         "effect": {"kind": "fail-boost", "delta": 0.1}}]}, 1,
                     id="run-min-severity-not-a-string"),
        pytest.param("summarize", [{"combination": ["rain", "haze"],
                                    "order": ["deraining", "dehazing"],
                                    "flags": {"deraining": True}}], 1,
                     id="summarize-flags-miss-a-task"),
        pytest.param("summarize", [{"combination": ["rain", "haze"],
                                    "order": ["deraining", "deraining", "dehazing"],
                                    "flags": {"deraining": True, "dehazing": True}}], 1,
                     id="summarize-order-repeats-a-task"),
        pytest.param("summarize", [[1, 2]], 1, id="summarize-row-not-an-object"),
        pytest.param("summarize", [{"combination": [], "order": [], "flags": {}}], 1,
                     id="summarize-empty-combination"),
        pytest.param("summarize", [{"combination": ["rain", "rain", "haze"],
                                    "order": ["deraining", "dehazing"],
                                    "flags": {"deraining": True, "dehazing": True}}], 1,
                     id="summarize-combination-repeats-a-degradation"),
        pytest.param("summarize", [{"combination": ["rain"], "order": ["deraining"],
                                    "flags": [1]}], 1,
                     id="summarize-flags-not-an-object"),
        pytest.param("run --kb", _kb(["records", 0, "per_task_fail", "dehazing"], None), 1,
                     id="run-kb-fail-rate-null"),
        pytest.param("consistency --kb", _kb(["records", 0, "per_task_fail", "dehazing"], None),
                     1, id="consistency-kb-fail-rate-null"),
        pytest.param("run --kb", _kb(["records", 5, "order"], ["dehazing"]), 1,
                     id="run-kb-order-short-of-its-combination"),
        pytest.param("run --kb", _kb(["records", 0, "per_task_fail", "dehazing"], 1.5), 1,
                     id="run-kb-fail-rate-above-one"),
        pytest.param("run --kb", _kb(["records", 0, "combination"],
                                     ["defocus blur", "haze", "haze"]), 1,
                     id="run-kb-combination-repeats-a-degradation"),
        pytest.param("run --kb", _kb(["records", 0, "n_trials"], 0), 1,
                     id="run-kb-no-trials"),
        pytest.param("run --kb", _kb(["records", 0, "n_trials"], True), 1,
                     id="run-kb-trials-a-bool"),
        pytest.param("run --kb", _kb(["records", 0, "total_fail"], 0.19), 1,
                     id="run-kb-total-fail-not-the-mean"),
        pytest.param("run --kb", _kb(["rules", 0, "after"], "defocus deblurring"), 1,
                     id="run-kb-rule-before-itself"),
        pytest.param("run --kb", _kb(["rules", 0, "margin"], -0.02), 1,
                     id="run-kb-negative-margin"),
        pytest.param("run --kb", _kb(["rules", 0, "margin"], True), 1,
                     id="run-kb-margin-a-bool"),
        pytest.param("run --kb", _kb(["rules", 0, "indifferent"], True), 1,
                     id="run-kb-indifferent-with-a-margin"),
        pytest.param("run --kb", _kb(["rules", 0, "indifferent"], "false"), 1,
                     id="run-kb-indifferent-a-string"),
        pytest.param("run --kb", _kb(["rules", 0, "support"], 5), 1,
                     id="run-kb-support-not-a-list"),
        pytest.param("run --kb", _kb(["rules", 0, "support"], [["rain"]]), 1,
                     id="run-kb-support-without-the-rule-tasks"),
        pytest.param("run --kb", _kb(["rules", 0, "support"], [["defocus blur", "haze", "haze"]]),
                     1, id="run-kb-support-repeats-a-degradation"),
        pytest.param("run --kb", _kb(["provenance"], 5), 1, id="run-kb-provenance-not-a-string"),
        pytest.param("run --kb", _kb(["version"], 99), 1, id="run-kb-unknown-version"),
        pytest.param("run --kb", _kb(["version"], DELETE), 1, id="run-kb-without-version"),
        pytest.param("run --kb", _kb(["version"], True), 1, id="run-kb-version-a-bool"),
        pytest.param("run --kb", _kb(["records"], [*KB_RECORDS, KB_RECORDS[4]]), 1,
                     id="run-kb-record-given-twice"),
        pytest.param("summarize", [_edited(TUPLE, ["flags", "deraining"], "false")], 1,
                     id="summarize-flag-a-string"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "order"],
                                     dict.fromkeys(CALIBRATION["orders"][0]["order"], 1)), 1,
                     id="run-calibration-order-an-object"),
        pytest.param("run", _mechanistic(["tools", 0, "id"], 5), 1, id="run-tool-id-not-a-string"),
        pytest.param("run", _mechanistic(["rules", 2, "effect", "levels"], True), 1,
                     id="run-side-effect-levels-a-bool"),
        pytest.param("explore", {"combinations": [{"rain": 1, "haze": 2}]}, 1,
                     id="explore-combination-an-object"),
    ],
)
def test_config_edge_cases_exit_without_traceback(
    runner, tmp_path, env_config, command, config, exit_code
):
    """``config`` is the file under test: the JSON config of ``run`` and
    ``explore``, the rows of a ``summarize`` tuples file, or a ``--kb`` file."""
    if command == "explore":
        config = {"samples_per_combination": 1, "trials_per_sample": 1, **config}
    result, _, _ = _invoke(runner, tmp_path, env_config, command, config)
    assert not isinstance(result.exception, Exception), result.exception
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert "error: bad" in result.output
        assert not (tmp_path / "out").exists()


def _invoke(runner, tmp_path, env_config, command, config):
    """(result, path, what): ``command`` run on ``config`` written to
    ``path`` as the input it names in an error as ``what``."""
    if command == "summarize":
        path = tmp_path / "tuples.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in config), encoding="utf-8")
        args, what = ["summarize", "--tuples", str(path)], "tuples file"
    elif command == "run --kb":
        path = _write_json(tmp_path / "kb.json", config)
        args = ["run", "--kb", str(path), "--config", str(env_config), "--runs", "1"]
        what = "knowledge base"
    elif command == "consistency --kb":
        path = _write_json(tmp_path / "kb.json", config)
        args, what = ["consistency", "--kb", str(path), "--n", "1"], "knowledge base"
    else:
        path = _write_json(tmp_path / "config.json", config)
        args = [command, "--config", str(path)]
        what = "environment config" if command == "run" else "explore config"
    return runner.invoke(main, [*args, "--out", str(tmp_path / "out")]), path, what


@pytest.mark.parametrize(
    "command, config, key",
    [
        pytest.param("run", _mechanistic(["rule"], [RULE]), "rule", id="run-top-level"),
        pytest.param("run", _mechanistic(["tools", 0, "weight"], 2), "weight", id="run-tool"),
        pytest.param("run", _mechanistic(["tools", 0, "outcome", "ful"], 1.0), "ful",
                     id="run-outcome"),
        pytest.param("run", _mechanistic(["rules", 0, "when"], "always"), "when", id="run-rule"),
        pytest.param("run", _mechanistic(["rules", 0, "condition", "min_severty"], "high"),
                     "min_severty", id="run-degradation-present-condition"),
        pytest.param("run", _mechanistic(["rules", 1, "condition", "degradation"], "rain"),
                     "degradation", id="run-task-in-history-condition"),
        pytest.param("run", _mechanistic(["rules", 0, "effect", "p"], 0.5), "p",
                     id="run-fail-boost-effect"),
        pytest.param("run", _mechanistic(["rules", 2, "effect", "level"], 2), "level",
                     id="run-side-effect-effect"),
        pytest.param("run", _tabular(["calibration", "order"], []), "order",
                     id="run-calibration"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "fails"], {}), "fails",
                     id="run-calibration-row"),
        pytest.param("run", {**env_to_dict(reference_tabular_env()),
                             "evaluator": {"p_mis": {"rain": 0.1}}}, "p_mis",
                     id="run-evaluator"),
        pytest.param("explore", {"trials_per_sampel": 3}, "trials_per_sampel",
                     id="explore-top-level"),
        pytest.param("explore", {"environment": _tabular(["evaluator"], {})}, "evaluator",
                     id="explore-environment"),
        pytest.param("explore", {"evaluator": {"p_fals": {}}}, "p_fals", id="explore-evaluator"),
        pytest.param("summarize", [{**TUPLE, "weight": 2}], "weight", id="summarize-row"),
        pytest.param("run --kb", _kb(["provnance"], ""), "provnance", id="run-kb-document"),
        pytest.param("run --kb", _kb(["records", 0, "n_trial"], 100), "n_trial",
                     id="run-kb-record"),
        pytest.param("run --kb", _kb(["rules", 0, "suport"], []), "suport", id="run-kb-rule"),
    ],
)
def test_an_unknown_config_key_is_a_user_error(
    runner, tmp_path, env_config, command, config, key
):
    """A misspelt optional key would otherwise load as its default."""
    result, path, what = _invoke(runner, tmp_path, env_config, command, config)
    assert not isinstance(result.exception, Exception), result.exception
    assert result.exit_code == 1, result.output
    assert f"error: bad {what} {path}: " in result.output
    assert result.output.rstrip().endswith(f"unknown key '{key}'"), result.output
    assert not (tmp_path / "out").exists()


def _noise(key, table):
    return {**env_to_dict(reference_tabular_env()), "evaluator": {key: table}}


@pytest.mark.parametrize(
    "command, config, message",
    [
        pytest.param("run", _mechanistic(["tools", 3, "task"], "denoize"),
                     "tools[3].task: 'denoize' is not a valid TaskKind", id="run-tool-task"),
        pytest.param("run", _mechanistic(["rules", 1, "task"], "deraign"),
                     "rules[1].task: 'deraign' is not a valid TaskKind", id="run-rule-task"),
        pytest.param("run", _mechanistic(["rules", 1, "condition", "task"], "sr"),
                     "rules[1].condition.task: 'sr' is not a valid TaskKind",
                     id="run-condition-task"),
        pytest.param("run", _mechanistic(["rules", 0, "condition", "degradation"], "noize"),
                     "rules[0].condition.degradation: 'noize' is not a valid Degradation",
                     id="run-condition-degradation"),
        pytest.param("run", _mechanistic(["rules", 2, "effect", "degradation"], "jpeg"),
                     "rules[2].effect.degradation: 'jpeg' is not a valid Degradation",
                     id="run-effect-degradation"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "order", 1], "dehaze"),
                     "calibration.orders[0].order[1]: 'dehaze' is not a valid TaskKind",
                     id="run-calibration-order"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "fail", "hazy"], 0.1),
                     "calibration.orders[0].fail: 'hazy' is not a valid Degradation",
                     id="run-calibration-fail"),
        pytest.param("run", _noise("p_miss", {"rane": 0.1}),
                     "evaluator.p_miss: 'rane' is not a valid Degradation", id="run-p-miss"),
        pytest.param("explore", {"evaluator": {"p_false": {"rane": 0.1}}},
                     "evaluator.p_false: 'rane' is not a valid Degradation", id="explore-p-false"),
        pytest.param("explore", {"combinations": [["rain", "haze"], ["rain", "hazy"]]},
                     "combinations[1][1]: 'hazy' is not a valid Degradation",
                     id="explore-combination"),
        pytest.param("run --kb", _kb(["records", 0, "order", 1], "dehaze"),
                     "records[0].order[1]: 'dehaze' is not a valid TaskKind", id="run-kb-order"),
        pytest.param("run --kb", _kb(["records", 0, "per_task_fail", "dehaze"], 0.1),
                     "records[0].per_task_fail: 'dehaze' is not a valid TaskKind",
                     id="run-kb-rate"),
        pytest.param("run --kb", _kb(["records", 0, "combination", 1], "hazy"),
                     "records[0].combination[1]: 'hazy' is not a valid Degradation",
                     id="run-kb-combination"),
        pytest.param("run --kb", _kb(["rules", 0, "before"], "defocus"),
                     "rules[0].before: 'defocus' is not a valid TaskKind", id="run-kb-before"),
        pytest.param("run --kb", _kb(["rules", 0, "after"], "dehaze"),
                     "rules[0].after: 'dehaze' is not a valid TaskKind", id="run-kb-after"),
        pytest.param("run --kb", _kb(["rules", 0, "support", 0, 0], "defocus"),
                     "rules[0].support[0][0]: 'defocus' is not a valid Degradation",
                     id="run-kb-support"),
        pytest.param("summarize", [TUPLE, _edited(TUPLE, ["order", 1], "dehaze")],
                     "line 2.order[1]: 'dehaze' is not a valid TaskKind", id="summarize-order"),
        pytest.param("summarize", [_edited(TUPLE, ["flags", "dehaze"], True)],
                     "line 1.flags: 'dehaze' is not a valid TaskKind", id="summarize-flag"),
        pytest.param("summarize", [_edited(TUPLE, ["combination", 0], "rane")],
                     "line 1.combination[0]: 'rane' is not a valid Degradation",
                     id="summarize-combination"),
    ],
)
def test_an_unknown_member_name_is_an_error_naming_its_path(
    runner, tmp_path, env_config, command, config, message
):
    result, path, what = _invoke(runner, tmp_path, env_config, command, config)
    assert not isinstance(result.exception, Exception), result.exception
    assert result.exit_code == 1, result.output
    assert result.output.rstrip().endswith(f"error: bad {what} {path}: {message}"), result.output
    assert not (tmp_path / "out").exists()


def _assert_internal_error(result, text):
    """Exit 70 (EX_SOFTWARE), with ``internal error:`` and the traceback of
    the exception, whose last line holds ``text``, on stderr."""
    assert result.exit_code == cli.EXIT_SOFTWARE, result.output
    assert result.stderr.startswith("internal error:\nTraceback (most recent call last):\n")
    assert result.stderr.rstrip().endswith(text), result.stderr


@pytest.mark.parametrize("error", [KeyError, AttributeError])
def test_a_bug_in_a_parser_is_not_a_user_error(runner, tmp_path, env_config, monkeypatch, error):
    """Parsers read fields through ``read_field``, so a KeyError or an
    AttributeError from one is a programming error: it exits 70 with its
    traceback, not 1 with ``error: bad ...``."""
    def buggy(*args):
        raise error("bug inside a parser")

    monkeypatch.setattr(knowledge, "_record_from_dict", buggy)
    result, _, _ = _invoke(runner, tmp_path, env_config, "run --kb", kb_to_dict(reference_kb()))
    _assert_internal_error(result, f"{error.__name__}: {error('bug inside a parser')}")
    assert "error: bad" not in result.output


def test_run_lets_an_error_in_the_planner_propagate(runner, tmp_path, env_config, monkeypatch):
    def broken_run_batch(*args):
        raise TypeError("planner bug")

    monkeypatch.setattr(cli, "run_batch", broken_run_batch)
    result = runner.invoke(
        main, ["run", "--config", str(env_config), "--out", str(tmp_path / "out")]
    )
    _assert_internal_error(result, "TypeError: planner bug")
    assert "error: bad" not in result.output


def test_a_key_error_in_a_workflow_run_exits_70(runner, tmp_path, env_config, monkeypatch):
    """A KeyError inside the planner is a bug, not a bad input file."""
    def buggy(*args, **kwargs):
        raise KeyError("bug inside run_workflow")

    monkeypatch.setattr(harness, "run_workflow", buggy)
    result = runner.invoke(main, ["run", "--config", str(env_config), "--runs", "1",
                                  "--combinations", "group-A", "--out", str(tmp_path / "out")])
    _assert_internal_error(result, "KeyError: 'bug inside run_workflow'")
    assert "error: bad" not in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["explore", "summarize"])
def test_an_error_inside_explore_or_aggregate_propagates(runner, tmp_path, monkeypatch, command):
    def buggy(*args, **kwargs):
        raise KeyError(f"bug inside {command}")

    if command == "explore":
        monkeypatch.setattr(TabularCalibration, "fail_prob", buggy)
        path = _write_json(tmp_path / "config.json",
                           {"samples_per_combination": 1, "trials_per_sample": 1})
        args = ["explore", "--config", str(path)]
    else:
        monkeypatch.setattr(cli, "aggregate", buggy)
        path = tmp_path / "tuples.jsonl"
        path.write_text(json.dumps({"combination": ["rain"], "order": ["deraining"],
                                    "flags": {"deraining": True}}) + "\n", encoding="utf-8")
        args = ["summarize", "--tuples", str(path)]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    _assert_internal_error(result, f"KeyError: 'bug inside {command}'")
    assert "error: bad" not in result.output


def test_explore_passes_only_the_keys_its_config_sets(runner, tmp_path, monkeypatch):
    passed = []

    def recording_config(**settings):
        passed.append(settings)
        return ExplorationConfig(**settings)

    monkeypatch.setattr(cli, "ExplorationConfig", recording_config)
    config = {"samples_per_combination": 1, "trials_per_sample": 1}
    path = _write_json(tmp_path / "config.json", config)
    result = runner.invoke(main, ["explore", "--config", str(path), "--out", str(tmp_path / "t")])
    assert result.exit_code == 0, result.output
    assert passed == [config]


def test_missing_config_is_user_error(runner, tmp_path):
    result = runner.invoke(
        main, ["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 1
    assert "file not found" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["explore", "--config"],
                     "restoragent explore: error: argument --config: expected one argument",
                     id="explore-option-without-a-value"),
        pytest.param(["summarize", "--tuples", "t.jsonl", "--out", "kb.json", "--bad"],
                     "restoragent: error: unrecognized arguments: --bad",
                     id="summarize-unknown-option"),
        pytest.param(["run", "--config", "env.json", "--out", "o", "--runs", "abc"],
                     "restoragent run: error: argument --runs: invalid int value: 'abc'",
                     id="run-runs-not-an-integer"),
        pytest.param(["run", "--config", "env.json", "--out", "o", "--mode", "bogus"],
                     "restoragent run: error: argument --mode: invalid choice: 'bogus'",
                     id="run-unknown-mode"),
        pytest.param(["run", "--out", "o"],
                     "restoragent run: error: the following arguments are required: --config",
                     id="run-missing-option"),
        pytest.param(["run", "--conf", "x", "--out", "o"],
                     "restoragent: error: unrecognized arguments: --conf x",
                     id="run-mistyped-option"),
        pytest.param(["consistency", "--n", "x"],
                     "restoragent consistency: error: argument --n: invalid int value: 'x'",
                     id="consistency-n-not-an-integer"),
        pytest.param(["verify", "--report", "report.json"],
                     "restoragent verify: error: the following arguments are required: --traces",
                     id="verify-missing-option"),
        pytest.param(["bogus"], "restoragent: error: argument COMMAND: invalid choice: 'bogus'",
                     id="unknown-command"),
        pytest.param(["--bogus"], "restoragent: error: unrecognized arguments: --bogus",
                     id="unknown-group-option"),
        pytest.param([], "restoragent: error: missing command", id="no-command"),
    ],
)
def test_a_usage_error_is_a_user_error(runner, args, message):
    """Exit 1 with the usage and argparse's message on stderr, not argparse's
    2, which is verify's MISMATCH status."""
    result = runner.invoke(main, args)
    assert result.exit_code == cli.EXIT_USER_ERROR, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ")
    assert message in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["run", "--config", "{env}", "--out", "{tmp}/o", "--runs", "-1"],
                     "--runs must be non-negative", id="run-negative-runs"),
        pytest.param(["run", "--config", "{env}", "--out", "{tmp}/o", "--combinations", "bogus"],
                     "unknown combination spec: 'bogus'", id="run-unknown-combinations"),
        pytest.param(["consistency", "--n", "0", "--out", "{tmp}/o"], "--n must be >= 1",
                     id="consistency-no-samples"),
        pytest.param(["verify", "--report", "{env}", "--traces", "{env}"],
                     "not a directory: {env}", id="verify-traces-a-file"),
    ],
)
def test_a_bad_flag_value_is_a_user_error(runner, tmp_path, env_config, args, message):
    """A flag value argparse accepts but the command cannot use exits 1 with
    one ``error:`` line and no usage, traceback or output."""
    paths = {"env": env_config, "tmp": tmp_path}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == cli.EXIT_USER_ERROR, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"error: {message.format(**paths)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [["run", "--out", "o"], ["run", "--help"]],
                         ids=["usage-error", "help"])
def test_the_usage_line_marks_a_required_flag(runner, args):
    """Required flags are shown without brackets, optional ones with them."""
    usage = runner.invoke(main, args).output.partition("\n\n")[0]
    assert " --config CONFIG " in usage and "[--config" not in usage
    assert "[--kb KB]" in usage


@pytest.mark.parametrize("command", [[], ["explore"], ["summarize"], ["run"], ["consistency"],
                                     ["verify"]], ids=lambda c: c[0] if c else "group")
def test_help_exits_0(runner, command):
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("usage: ")


def test_consistency_command_experience_all_zero(runner, tmp_path):
    out = tmp_path / "consistency.json"
    result = runner.invoke(
        main, ["consistency", "--scheduler", "experience", "--n", "2", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = json.loads(out.read_text())
    assert len(rows) == 16
    assert all(row["entropy_bits"] == 0.0 for row in rows.values())
    assert all(row["variation_ratio"] == 0.0 for row in rows.values())


def test_consistency_command_random_disperses(runner, tmp_path):
    out = tmp_path / "consistency.json"
    result = runner.invoke(
        main, ["consistency", "--scheduler", "random", "--n", "30", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = json.loads(out.read_text())
    assert all(row["entropy_bits"] > 0.5 for row in rows.values())


def test_make_deps_rejects_unknown_mode():
    with pytest.raises(ValueError):
        make_deps(reference_tabular_env(), reference_kb(), "turbo", PerfectOracle())


def test_parse_combinations_variants():
    assert len(parse_combinations("all")) == 16
    assert len(parse_combinations("group-B")) == 4
    assert len(parse_combinations("C")) == 4
    (combo,) = parse_combinations([["rain", "haze"]])
    assert combo.group == "A"
    (custom,) = parse_combinations([["rain", "noise"]])
    assert custom.group == "custom"
    assert set(custom.degradations) == {Degradation.RAIN, Degradation.NOISE}
    with pytest.raises(ValueError):
        parse_combinations("group-Z")


def test_imports_leave_the_process_pool_and_harness_unloaded():
    script = (
        "import sys, restoragent; assert 'restoragent.harness' not in sys.modules; "
        "import restoragent.harness; assert 'concurrent.futures.process' not in sys.modules"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_every_module_is_reached_from_the_cli():
    """A module that ``restoragent.cli`` does not import, directly or not,
    is one no command can reach.  ``import restoragent`` alone loads no
    submodule, so the package cannot reach one in the CLI's stead."""
    src = Path(cli.__file__).resolve().parents[1]
    modules = sorted(f"restoragent.{p.stem}" for p in (src / "restoragent").glob("*.py")
                     if p.stem != "__init__")
    script = (
        "import sys, restoragent; "
        "print(sorted(m for m in sys.modules if m.startswith('restoragent.'))); "
        "import restoragent.cli; "
        f"print([m for m in {modules!r} if m not in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                            capture_output=True, text=True)
    assert result.stdout.splitlines() == ["[]", "[]"]


def test_every_import_in_the_package_is_used():
    """Each name a ``restoragent`` module imports is read in that module."""
    src = Path(cli.__file__).resolve().parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


def test_the_declared_dependencies_are_what_the_package_imports():
    """``pyproject.toml``'s runtime dependencies are the top-level modules
    outside the standard library that ``restoragent`` imports: no more, so
    that a dependency the code no longer uses is dropped, and no fewer."""
    src = Path(cli.__file__).resolve().parent
    pyproject = tomllib.loads((src.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[\w.-]+", requirement)[0]
                for requirement in pyproject["project"]["dependencies"]}
    imported = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert declared == imported - set(sys.stdlib_module_names)


#: Names no ``src`` or benchmark code reads, kept on purpose.
UNREAD_BY_DESIGN = {
    "search.brute_force_oracle": "criterion 3's exhaustive oracle; to move into tests/",
}


def _defined_names(tree):
    """(name, line, is_method) of each module-level function, class and
    assignment, and of each method, in one module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno, False
            yield from ((m.name, m.lineno, True) for m in node.body
                        if isinstance(m, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node.lineno, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node.lineno, False) for t in targets if isinstance(t, ast.Name))


def test_every_name_in_the_package_is_read():
    """Each function, class, method and module-level name of ``restoragent``
    is read by the package or the benchmark: a method as an attribute, any
    other name also as a name or an import.  A name only tests read is
    surface no command reaches."""
    src = Path(cli.__file__).resolve().parent
    benchmarks = src.parents[1] / "benchmarks"
    readers = [*src.glob("*.py"), *(p for p in benchmarks.glob("*.py")
                                    if p.name != "test_helpers.py")]
    attributes, names = set(), set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    unread, exempted = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line, is_method in _defined_names(tree):
            read = name in attributes or (not is_method and name in names)
            if read or (name.startswith("__") and name.endswith("__")):
                continue
            if f"{path.stem}.{name}" in UNREAD_BY_DESIGN:
                exempted.add(f"{path.stem}.{name}")
            else:
                unread.append(f"{path.name}:{line} {name}")
    assert unread == []
    assert exempted == set(UNREAD_BY_DESIGN)  # an exemption for a name now read is stale


#: Exception classes no ``except`` or ``isinstance`` in the package names.
UNCAUGHT_BY_DESIGN = {
    "search.NondeterministicEnv": "raised by brute_force_oracle, which moves into tests/",
}


def test_every_exception_class_is_caught_in_the_package():
    """Each exception class of ``restoragent`` is named by an ``except``
    clause or an ``isinstance`` in the package, so that one failure a caller
    handles has one class, and a class no caller handles is not kept."""
    src = Path(cli.__file__).resolve().parent
    caught = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                caught.update(n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name))
    uncaught = []
    for path in sorted(p for p in src.glob("*.py") if p.stem != "__init__"):
        module = importlib.import_module(f"restoragent.{path.stem}")
        uncaught += [f"{path.stem}.{name}" for name, value in vars(module).items()
                     if isinstance(value, type) and issubclass(value, BaseException)
                     and value.__module__ == module.__name__ and name not in caught]
    assert uncaught == list(UNCAUGHT_BY_DESIGN)


def test_run_batch_parallel_matches_serial():
    """Covers the deps each worker unpickles: the tabular env with the
    experience scheduler, and the noisy oracle with the random scheduler and
    the strict policy."""
    noise = {"p_miss": {d.value: 0.1 for d in Degradation},
             "p_false": {d.value: 0.05 for d in Degradation}}
    cases = [
        (reference_tabular_env(), "full", None, "A"),
        (default_mechanistic_env(0), "no-retrieval", noise, "C"),
        (default_mechanistic_env(0), "strict-threshold", noise, "C"),
    ]
    for env, mode, model, group in cases:
        combos = [c for c in builtin_combinations() if c.group == group][:4]
        serial, serial_traces, _ = run_batch(
            env, reference_kb(), mode, combos, 2, 9, model, jobs=1
        )
        parallel, parallel_traces, _ = run_batch(
            env, reference_kb(), mode, combos, 2, 9, model, jobs=2
        )
        assert serial == parallel
        assert serial_traces == parallel_traces


def test_run_batch_makes_no_call_into_enum():
    """No Python-level function of ``enum.py`` runs inside ``run_batch``:
    members are ``StrEnum``s whose hash, compare and format are ``str``'s C
    slots, and a name becomes a member through ``core``'s lookups, never a
    ``TaskKind(name)`` call.  Covers the per-batch config round trip and every
    run, for the tabular env with the perfect oracle in every mode and the
    mechanistic env with the noisy oracle.  Blind spot: a ``Class.MEMBER``
    read goes through EnumType's attribute hook in C and raises no profile
    event."""
    noise = {"p_miss": {d.value: 0.1 for d in Degradation},
             "p_false": {d.value: 0.05 for d in Degradation}}
    cases = [(reference_tabular_env(), mode, None) for mode in RUN_MODES]
    cases += [(default_mechanistic_env(0), mode, noise) for mode in ("full", "no-retrieval")]
    combos = combinations_in_group("A") + combinations_in_group("C")
    kb = reference_kb()
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            calls.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        for env, mode, model in cases:
            run_batch(env, kb, mode, combos, 3, 17, model)
    finally:
        sys.setprofile(None)
    assert Counter(calls) == {}


def test_recompute_report_matches_run_batch():
    env = reference_tabular_env()
    combos = [c for c in builtin_combinations() if c.group == "A"][:3]
    report, traces, _ = run_batch(env, reference_kb(), "full", combos, 3, 1)
    assert recompute_report(report, traces) == report["combinations"]
    group_of = {c.label(): c.group for c in combos}
    assert report_cells(traces, group_of) == {
        "groups": report["groups"],
        "combinations": report["combinations"],
    }
    pooled = [t for combo_traces in traces.values() for t in combo_traces]
    assert report["groups"]["A"]["mean_invocations"] == (
        sum(t["counters"]["invocations"] for t in pooled) / len(pooled)
    )


@pytest.mark.parametrize(
    "command, out, work",
    [
        pytest.param("run", "file", "run_batch", id="run-out-an-existing-file"),
        pytest.param("run", "dir", "run_batch", id="run-out-holds-a-traces-file"),
        pytest.param("explore", "dir", "explore", id="explore-out-a-directory"),
        pytest.param("summarize", "dir", "aggregate", id="summarize-out-a-directory"),
        pytest.param("consistency", "file/x.json", "measure_consistency",
                     id="consistency-out-under-a-file"),
    ],
)
def test_unusable_out_path_fails_before_any_work(
    runner, tmp_path, env_config, monkeypatch, command, out, work
):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "traces").write_text("", encoding="utf-8")

    def started(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, work, started)
    tuples = tmp_path / "tuples.jsonl"
    tuples.write_text("", encoding="utf-8")
    args = {
        "run": ["run", "--config", str(env_config), "--runs", "1"],
        "explore": ["explore", "--config", str(_write_json(tmp_path / "config.json", {}))],
        "summarize": ["summarize", "--tuples", str(tuples)],
        "consistency": ["consistency", "--n", "1"],
    }[command]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / out)])
    assert not isinstance(result.exception, Exception), result.exception
    assert result.exit_code == 1, result.output
    assert "error: --out" in result.output


@pytest.mark.parametrize(
    "command, config, message",
    [
        pytest.param("run", _mechanistic(["rules", 0, "effect", "delta"], 1.5),
                     "rules[0].effect: FailBoost delta out of range: 1.5", id="run-fail-boost"),
        pytest.param("run", _mechanistic(["rules", 2, "effect", "p"], 1.5),
                     "rules[2].effect: SideEffect probability out of range: 1.5",
                     id="run-side-effect-p"),
        pytest.param("run", _mechanistic(["rules", 2, "effect", "levels"], 0),
                     "rules[2].effect: SideEffect must raise severity by at least one level",
                     id="run-side-effect-levels"),
        pytest.param("run", _mechanistic(["rules", 0, "condition", "min_severity"], "mid"),
                     "rules[0].condition: unknown severity label: 'mid'",
                     id="run-condition-severity"),
        pytest.param("run", _mechanistic(["rules", 1, "condition", "kind"], "always"),
                     "rules[1].condition: unknown condition kind: 'always'",
                     id="run-condition-kind"),
        pytest.param("run", _mechanistic(["rules", 0, "effect", "kind"], "always"),
                     "rules[0].effect: unknown effect kind: 'always'", id="run-effect-kind"),
        pytest.param("run", {"mode": "tabular"}, "tabular environment requires a calibration",
                     id="run-tabular-without-calibration"),
        pytest.param("run", _mechanistic(["tools", 3, "outcome", "full"], 0.9),
                     "tools[3]: outcome probabilities of 'denoising:weak' sum to 1.5, not 1",
                     id="run-tool-outcome-sum"),
        pytest.param("run", _tabular(["calibration", "orders", 5], CALIBRATION["orders"][4]),
                     "calibration.orders[5]: order ['deraining', 'dehazing'] is given twice",
                     id="run-calibration-order-twice"),
        pytest.param("run", _tabular(["calibration", "orders", 0, "fail", "haze"], 1.7),
                     "calibration.orders[0]: fail probability of haze out of range: 1.7",
                     id="run-calibration-fail"),
        pytest.param("run", _noise("p_miss", {"rain": 2}),
                     "evaluator: probability for rain out of range: 2", id="run-p-miss"),
        pytest.param("explore", {"evaluator": {"p_false": {"rain": "high"}}},
                     "evaluator: probability for rain must be a number, not 'high'",
                     id="explore-p-false"),
        pytest.param("explore", {"success_threshold": "mid"},
                     "success_threshold: unknown severity label: 'mid'",
                     id="explore-success-threshold"),
        pytest.param("explore", {"combinations": "group-Z"},
                     "combinations: unknown combination group: 'Z'", id="explore-combinations"),
    ],
)
def test_a_value_error_names_the_path_of_its_object(
    runner, tmp_path, env_config, command, config, message
):
    """A constructor's ValueError names the object it was read from, and a
    SchemaError that already names a path is not prefixed again."""
    if command == "explore":
        config = {"samples_per_combination": 1, "trials_per_sample": 1, **config}
    result, path, what = _invoke(runner, tmp_path, env_config, command, config)
    assert not isinstance(result.exception, Exception), result.exception
    assert result.exit_code == 1, result.output
    assert result.output.rstrip().endswith(f"error: bad {what} {path}: {message}"), result.output


@pytest.mark.parametrize(
    "environment, message",
    [
        pytest.param({"mode": "tabular", "calibration": {"orders": [
                         {"order": ["dehazing"], "fail": {"haze": 2}}]}},
                     "environment.calibration.orders[0]: fail probability of haze out of range: 2",
                     id="calibration-row"),
        pytest.param({"mode": "mechanistic", "tools": [{"id": 1}]},
                     "environment.tools[0].id: expected a string, not 1", id="tool-id"),
        pytest.param(_mechanistic(["rules", 1, "condition", "kind"], "always"),
                     "environment.rules[1].condition: unknown condition kind: 'always'",
                     id="rule-condition"),
        pytest.param({"mode": "tabular", "seeds": 1}, "environment: unknown key 'seeds'",
                     id="unknown-key"),
        pytest.param({"mode": "lookup"}, "environment: unknown environment mode: 'lookup'",
                     id="mode"),
        pytest.param("nope", "environment: unknown environment spec: 'nope'", id="spec"),
    ],
)
def test_an_embedded_environment_error_names_its_path(
    runner, tmp_path, env_config, environment, message
):
    """An explore config reads its ``environment`` at that path, so each of
    its errors names it; a ``run`` config's environment is the file's root."""
    config = {"environment": environment, "samples_per_combination": 1, "trials_per_sample": 1}
    result, path, what = _invoke(runner, tmp_path, env_config, "explore", config)
    assert result.exit_code == 1, result.output
    assert result.output == f"error: bad {what} {path}: {message}\n"


def test_a_syntax_error_in_a_tuples_file_names_its_line(runner, tmp_path):
    row = json.dumps(TUPLE)
    path = tmp_path / "tuples.jsonl"
    path.write_text(f"{row}\n{row}\n\n{row[:-1]}, 'x': 1}}\n", encoding="utf-8")
    result = runner.invoke(main, ["summarize", "--tuples", str(path), "--out", str(tmp_path / "kb")])
    assert result.exit_code == 1, result.output
    column = len(row) + 2
    assert result.output.rstrip() == (f"error: bad tuples file {path}: line 4: Expecting property "
                                      f"name enclosed in double quotes at column {column}")


#: Tables of probabilities keyed by name: the constructor that checks their
#: values names the table's object, not the key, so the matrix does not
#: descend into them.
_PROBABILITY_TABLES = {"fail", "per_task_fail", "p_miss", "p_false"}
#: The JSON types of the keys that take two; any other key takes the type of
#: its value in the documents below, an integer standing for an integer only.
_UNION_TYPES = {"environment": {str, dict}, "combinations": {str, list},
                "evaluator": {dict, type(None)}}
_SAMPLE_VALUES = (True, 5, 0.5, "x", None, [1], {})
_MECHANISTIC_DOC = {**env_to_dict(default_mechanistic_env(0)),
                    "tools": MECHANISTIC_TOOLS[:1]}  # its rules hold every kind
_TABULAR_DOC = _tabular(["calibration", "orders"], CALIBRATION["orders"][:1])
_KB_DOC = _kb(["records"], KB_RECORDS[:1])
_KB_DOC["rules"] = _KB_DOC["rules"][:1]
_NOISE_DOC = {"p_miss": {"rain": 0.1}, "p_false": {"haze": 0.05}}
_EXPLORE_DOC = {"environment": "reference-tabular", "combinations": [["rain", "haze"]],
                "samples_per_combination": 1, "trials_per_sample": 1,
                "success_threshold": "low", "seed": 1, "evaluator": None}


def _values_inside(value, keys=(), path=""):
    """(keys, path, value) of every value of each object and every item of
    each list inside ``value``, outside probability tables."""
    if isinstance(value, dict):
        items = [(k, f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(j, f"{path}[{j}]", v) for j, v in enumerate(value)]
    else:
        items = []
    for key, item_path, item in items:
        yield (*keys, key), item_path, item
        if key not in _PROBABILITY_TABLES:
            yield from _values_inside(item, (*keys, key), item_path)


def _of_another_type(key, value) -> list:
    accepted = _UNION_TYPES.get(key, {type(value), int} if type(value) is float else {type(value)})
    return [sample for sample in _SAMPLE_VALUES if type(sample) not in accepted]


@pytest.mark.parametrize(
    "command, config, root, root_path",
    [
        pytest.param("run", _MECHANISTIC_DOC, (), "", id="mechanistic-env"),
        pytest.param("run", _TABULAR_DOC, (), "", id="tabular-env"),
        pytest.param("run --kb", _KB_DOC, (), "", id="kb"),
        pytest.param("run", {**_TABULAR_DOC, "evaluator": _NOISE_DOC}, ("evaluator",),
                     "evaluator", id="noise-model"),
        pytest.param("explore", _EXPLORE_DOC, (), "", id="explore-config"),
        pytest.param("summarize", [TUPLE], (0,), "line 1", id="tuples-line"),
    ],
)
def test_a_value_of_another_json_type_is_an_error_naming_its_path(
    runner, tmp_path, env_config, command, config, root, root_path
):
    """Each value of a full document of each input kind, replaced in turn by
    one of each JSON type its key does not take, exits 1 naming its path."""
    document = config
    for key in root:
        document = document[key]
    cases = [((*root,), root_path, document)] if root else []
    cases += _values_inside(document, root, root_path)
    wrong = []
    for keys, path, value in cases:
        for sample in _of_another_type(keys[-1], value):
            result, file, what = _invoke(runner, tmp_path, env_config, command,
                                         _edited(config, keys, sample))
            if result.exit_code != 1 or f"error: bad {what} {file}: {path}: " not in result.output:
                wrong.append(f"{path} = {sample!r}: exit {result.exit_code}: {result.output}")
    assert len(cases) >= 3
    assert wrong == []


def test_the_documents_of_the_type_matrix_load(runner, tmp_path, env_config):
    env_from_dict(_MECHANISTIC_DOC)
    env_from_dict(_TABULAR_DOC)
    kb_from_dict(_KB_DOC)
    NoiseModel.from_dict(_NOISE_DOC)
    for command, config in (("explore", _EXPLORE_DOC), ("summarize", [TUPLE])):
        result, _, _ = _invoke(runner, tmp_path, env_config, command, config)
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("value", [True, None, "x", [1], {}])
def test_the_legacy_keys_take_any_json_value_and_change_nothing(value):
    for env in (reference_tabular_env(), default_mechanistic_env(0)):
        assert env_to_dict(env_from_dict({**env_to_dict(env), "seed": value})) == env_to_dict(env)
    with_total = _tabular(["calibration", "orders", 0, "stated_total_pct"], value)
    assert env_to_dict(env_from_dict(with_total)) == env_to_dict(reference_tabular_env())
