import json

import pytest
from click.testing import CliRunner

from restoragent.cli import main
from restoragent.core import Degradation, TaskKind, builtin_combinations
from restoragent.envsim import env_to_dict, reference_tabular_env
from restoragent.harness import (
    make_deps,
    parse_combinations,
    recompute_report,
    report_cells,
    run_batch,
)
from restoragent.knowledge import load_kb, reference_kb


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

    path = out / relpath
    data = json.loads(path.read_text())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(data), encoding="utf-8")
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
        pytest.param("explore", {"evaluator": None}, 0, id="explore-null-evaluator-is-perfect"),
        pytest.param("run", {**env_to_dict(reference_tabular_env()),
                             "evaluator": {"p_miss": {"rain": 2.0}}}, 1,
                     id="run-p-miss-out-of-range"),
        pytest.param("run", {**env_to_dict(reference_tabular_env()),
                             "evaluator": {"p_miss": {"rain": "high"}}}, 1,
                     id="run-p-miss-not-a-number"),
    ],
)
def test_config_edge_cases_exit_without_traceback(runner, tmp_path, command, config, exit_code):
    if command == "explore":
        config = {"samples_per_combination": 1, "trials_per_sample": 1, **config}
    path = _write_json(tmp_path / "config.json", config)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(path), "--out", str(out)])
    assert not isinstance(result.exception, Exception), result.exception
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert "error: bad" in result.output
        assert not out.exists()


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
