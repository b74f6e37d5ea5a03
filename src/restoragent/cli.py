"""Command-line front end: exploration, KB building, workflow batches,
consistency studies, and report verification."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .core import Degradation, TaskKind, builtin_combinations
from .envsim import env_from_dict, reference_tabular_env
from .explore import ExplorationConfig, explore
from .harness import RUN_MODES, parse_combinations, report_cells, run_batch
from .knowledge import (
    KnowledgeBase,
    SchemaError,
    aggregate,
    display_percent,
    distill,
    kb_to_dict,
    load_kb,
    render_experience_text,
    save_kb,
)
from .perception import evaluator_from_model
from .scheduling import ExperienceScheduler, RandomScheduler, measure_consistency
from .core import Severity

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_INTERNAL_ERROR = 2


def _fail(message: str, code: int = EXIT_USER_ERROR):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: Path) -> dict:
    """A config or report file, which must hold one JSON object."""
    if not path.exists():
        _fail(f"file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        _fail(f"bad input {path}: expected a JSON object, not {type(data).__name__}")
    return data


def _dump_json(data, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _environment_from_config(config: dict):
    env_spec = config.get("environment", "reference-tabular")
    if env_spec == "reference-tabular":
        return reference_tabular_env(config.get("seed", 0))
    if isinstance(env_spec, dict):
        return env_from_dict(env_spec)
    _fail(f"unknown environment spec: {env_spec!r}")


@click.group()
def main():
    """Agentic restoration planning over a simulated degradation environment."""


@main.command("explore")
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_explore(config_path: Path, out_path: Path):
    """Run self-exploration trials; write one JSON tuple per line."""
    config = _load_json(config_path)
    try:
        env = _environment_from_config(config)
        combos = parse_combinations(config.get("combinations", "group-A"))
        exploration = ExplorationConfig(
            combinations=combos,
            samples_per_combination=config.get("samples_per_combination", 20),
            trials_per_sample=config.get("trials_per_sample", 25),
            success_threshold=Severity.from_label(config.get("success_threshold", "low")),
            seed=config.get("seed", 0),
        )
        evaluator = evaluator_from_model(config.get("evaluator"))
        trials = explore(env, exploration, evaluator)
    except (KeyError, ValueError) as exc:
        _fail(f"bad explore config {config_path}: {exc}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        for combination, order, flags in trials:
            fh.write(
                json.dumps(
                    {
                        "combination": sorted(d.value for d in combination),
                        "order": [t.value for t in order],
                        "flags": {t.value: bool(ok) for t, ok in sorted(
                            flags.items(), key=lambda kv: kv[0].value)},
                    }
                )
                + "\n"
            )
    records = aggregate(trials)
    if records:
        click.echo(render_experience_text(records))
    click.echo(f"wrote {len(trials)} trial tuples to {out_path}")


@main.command("summarize")
@click.option("--tuples", "tuples_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_summarize(tuples_path: Path, out_path: Path):
    """Aggregate trial tuples and distill precedence rules into a KB."""
    if not tuples_path.exists():
        _fail(f"file not found: {tuples_path}")
    trials = []
    try:
        with tuples_path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                trials.append(
                    (
                        frozenset(Degradation(d) for d in row["combination"]),
                        tuple(TaskKind(t) for t in row["order"]),
                        {TaskKind(t): bool(ok) for t, ok in row["flags"].items()},
                    )
                )
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        _fail(f"bad tuples file {tuples_path}: {exc}")
    records = aggregate(trials)
    kb = KnowledgeBase(records, distill(records), f"summarized from {tuples_path.name}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_kb(kb, out_path)
    if records:
        click.echo(render_experience_text(records))
    click.echo(f"knowledge base with {len(records)} records, {len(kb.rules)} rules -> {out_path}")


@main.command("run")
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True,
              help="Environment JSON (may embed an 'evaluator' noise model).")
@click.option("--kb", "kb_path", type=click.Path(path_type=Path), default=None)
@click.option("--mode", type=click.Choice(RUN_MODES), default="full")
@click.option("--runs", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--jobs", type=int, default=1)
@click.option("--combinations", "combinations_spec", default="all",
              help='"all", "group-A"/"group-B"/"group-C".')
def cmd_run(config_path, kb_path, mode, runs, seed, out_dir, jobs, combinations_spec):
    """Execute workflow batches and write traces plus a report."""
    config = _load_json(config_path)
    try:
        env = env_from_dict(config)
        evaluator_model = config.get("evaluator")
        evaluator_from_model(evaluator_model)  # validates the model before any run
    except (KeyError, ValueError) as exc:
        _fail(f"bad environment config {config_path}: {exc}")
    kb = None
    if kb_path is not None:
        try:
            kb = load_kb(kb_path)
        except (IOError, SchemaError) as exc:
            _fail(str(exc))
    try:
        combos = parse_combinations(combinations_spec)
    except ValueError as exc:
        _fail(str(exc))
    if runs < 0:
        _fail("--runs must be non-negative")
    report, traces, timings = run_batch(
        env, kb, mode, combos, runs, seed, evaluator_model, jobs
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    for label, combo_traces in traces.items():
        slug = label.replace(" ", "_").replace("+", "-")
        _dump_json(combo_traces, trace_dir / f"{slug}.json")
    _dump_json(report, out_dir / "report.json")
    _dump_json({"mean_wall_clock_s": timings}, out_dir / "timings.json")
    _print_report_table(report)
    click.echo(f"report -> {out_dir / 'report.json'}")


def _print_report_table(report: dict):
    click.echo(f"mode: {report['mode']}   runs/combination: {report['runs_per_combination']}")
    header = f"{'group':<8}{'success rate':>14}{'mean invocations':>18}{'mean rollbacks':>16}"
    click.echo(header)
    for group, stats in report["groups"].items():
        click.echo(
            f"{group:<8}{stats['success_rate']:>14.3f}"
            f"{stats['mean_invocations']:>18.2f}{stats['mean_rollbacks']:>16.2f}"
        )


@main.command("consistency")
@click.option("--scheduler", "scheduler_spec", type=click.Choice(["experience", "random"]),
              default="experience")
@click.option("--kb", "kb_path", type=click.Path(path_type=Path), default=None)
@click.option("--n", "n_per_presentation", type=int, default=60)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
def cmd_consistency(scheduler_spec, kb_path, n_per_presentation, seed, out_path):
    """Scheduling-dispersion study over the built-in combinations."""
    if n_per_presentation < 1:
        _fail("--n must be >= 1")
    if scheduler_spec == "experience":
        kb = None
        if kb_path is not None:
            try:
                kb = load_kb(kb_path)
            except (IOError, SchemaError) as exc:
                _fail(str(exc))
        else:
            from .knowledge import reference_kb

            kb = reference_kb()
        scheduler = ExperienceScheduler(kb)
    else:
        scheduler = RandomScheduler()
    rows = {}
    click.echo(
        f"{'group':<7}{'combination':<50}{'entropy':>9}{'var.ratio':>11}"
        f"{'sens(H)':>9}{'sens(VR)':>10}"
    )
    for combo in builtin_combinations():
        report = measure_consistency(scheduler, combo.tasks, n_per_presentation, seed)
        rows[combo.label()] = {
            "group": combo.group,
            "entropy_bits": report.entropy_bits,
            "variation_ratio": report.variation_ratio,
            "sensitivity_entropy": report.sensitivity_entropy,
            "sensitivity_vr": report.sensitivity_vr,
            "n_samples": report.n_samples,
        }
        click.echo(
            f"{combo.group:<7}{combo.label():<50}{report.entropy_bits:>9.3f}"
            f"{report.variation_ratio:>11.3f}{report.sensitivity_entropy:>9.3f}"
            f"{report.sensitivity_vr:>10.3f}"
        )
    if out_path is not None:
        _dump_json(rows, out_path)


@main.command("verify")
@click.option("--report", "report_path", type=click.Path(path_type=Path), required=True)
@click.option("--traces", "trace_dir", type=click.Path(path_type=Path), required=True)
def cmd_verify(report_path: Path, trace_dir: Path):
    """Recompute every report cell from the trace files and check each
    trace's invocation count against its tree; exit 2 on any mismatch."""
    report = _load_json(report_path)
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        _fail(f"not a directory: {trace_dir}")
    traces = {}
    for path in sorted(trace_dir.glob("*.json")):
        combo_traces = json.loads(path.read_text(encoding="utf-8"))
        if combo_traces:
            traces[combo_traces[0]["combination"]] = combo_traces
    # Groups come from the report, so a relabelled combination shows up as
    # a group cell the report lacks or gets wrong; str() turns a missing
    # group into a mismatch rather than an unsortable key.
    group_of = {
        label: str(cell.get("group")) for label, cell in report.get("combinations", {}).items()
    }
    rebuilt = report_cells(traces, group_of)
    mismatches = []
    for section, cells in rebuilt.items():
        printed = report.get(section, {})
        for name in sorted(set(cells) | set(printed)):
            if printed.get(name) != cells.get(name):
                mismatches.append(
                    f"{section}.{name}: report {printed.get(name)} != traces {cells.get(name)}"
                )
    for label, combo_traces in sorted(traces.items()):
        for i, trace in enumerate(combo_traces):
            counted, in_tree = trace["counters"]["invocations"], _tree_invocations(trace["tree"])
            if counted != in_tree:
                mismatches.append(
                    f"{label}[{i}]: counters.invocations {counted} != {in_tree} over its tree"
                )
    if mismatches:
        for line in mismatches:
            click.echo(f"MISMATCH {line}", err=True)
        sys.exit(EXIT_INTERNAL_ERROR)
    click.echo("report verified: every table cell and trace invocation count matches")


def _tree_invocations(nodes) -> int:
    """Tool invocations over every node of a trace tree, recursively."""
    return sum(
        node.get("invocations", 0) + _tree_invocations(node.get("children", []))
        for node in nodes
    )


if __name__ == "__main__":  # pragma: no cover
    main()
