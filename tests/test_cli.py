import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from restoragent import cli
from restoragent.cli import main
from restoragent.core import Degradation, TaskKind, builtin_combinations
from restoragent.envsim import TabularCalibration, env_to_dict, reference_tabular_env
from restoragent.explore import ExplorationConfig
from restoragent.harness import (
    make_deps,
    parse_combinations,
    recompute_report,
    report_cells,
    run_batch,
)
from restoragent.knowledge import kb_to_dict, load_kb, reference_kb

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


@pytest.fixture
def runner():
    return CliRunner()


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
        pytest.param("run", {"mode": "mechanistic", "tools": 5}, 1, id="run-tools-not-a-list"),
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
        pytest.param("explore", {"success_threshold": 1}, 1,
                     id="explore-threshold-not-a-string"),
        pytest.param("explore", {"seed": "abc"}, 1, id="explore-seed-a-string"),
        pytest.param("explore", {"seed": None}, 1, id="explore-seed-null"),
        pytest.param("explore", {"seed": 1.5}, 1, id="explore-seed-not-an-integer"),
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
        pytest.param("summarize", [[1, 2]], 1, id="summarize-row-not-an-object"),
        pytest.param("summarize", [{"combination": ["rain"], "order": ["deraining"],
                                    "flags": [1]}], 1,
                     id="summarize-flags-not-an-object"),
        pytest.param("run --kb", _kb(["records", 0, "per_task_fail", "dehazing"], None), 1,
                     id="run-kb-fail-rate-null"),
        pytest.param("consistency --kb", _kb(["records", 0, "per_task_fail", "dehazing"], None),
                     1, id="consistency-kb-fail-rate-null"),
        pytest.param("run --kb", _kb(["rules", 0, "support"], 5), 1,
                     id="run-kb-support-not-a-list"),
        pytest.param("run --kb", _kb(["version"], 99), 1, id="run-kb-unknown-version"),
        pytest.param("run --kb", _kb(["version"], DELETE), 1, id="run-kb-without-version"),
    ],
)
def test_config_edge_cases_exit_without_traceback(
    runner, tmp_path, env_config, command, config, exit_code
):
    """``config`` is the file under test: the JSON config of ``run`` and
    ``explore``, the rows of a ``summarize`` tuples file, or a ``--kb`` file."""
    out = tmp_path / "out"
    if command == "explore":
        config = {"samples_per_combination": 1, "trials_per_sample": 1, **config}
    if command == "summarize":
        path = tmp_path / "tuples.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in config), encoding="utf-8")
        args = ["summarize", "--tuples", str(path)]
    elif command == "run --kb":
        kb = _write_json(tmp_path / "kb.json", config)
        args = ["run", "--kb", str(kb), "--config", str(env_config), "--runs", "1"]
    elif command == "consistency --kb":
        kb = _write_json(tmp_path / "kb.json", config)
        args = ["consistency", "--kb", str(kb), "--n", "1"]
    else:
        args = [command, "--config", str(_write_json(tmp_path / "config.json", config))]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert not isinstance(result.exception, Exception), result.exception
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert "error: bad" in result.output
        assert not out.exists()


def test_run_lets_an_error_in_the_planner_propagate(runner, tmp_path, env_config, monkeypatch):
    def broken_run_batch(*args):
        raise TypeError("planner bug")

    monkeypatch.setattr(cli, "run_batch", broken_run_batch)
    result = runner.invoke(
        main, ["run", "--config", str(env_config), "--out", str(tmp_path / "out")]
    )
    assert isinstance(result.exception, TypeError)
    assert "error: bad" not in result.output


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
    assert isinstance(result.exception, KeyError), result.output
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
        make_deps(reference_tabular_env(), reference_kb(), "turbo")


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


def test_run_batch_parallel_matches_serial():
    env = reference_tabular_env()
    combos = [c for c in builtin_combinations() if c.group == "A"][:4]
    serial, serial_traces, _ = run_batch(env, reference_kb(), "full", combos, 2, 9, jobs=1)
    parallel, parallel_traces, _ = run_batch(env, reference_kb(), "full", combos, 2, 9, jobs=2)
    assert serial == parallel
    assert serial_traces == parallel_traces


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
