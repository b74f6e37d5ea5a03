"""Command-line front end: exploration, KB building, workflow batches,
consistency studies, and report verification."""

from __future__ import annotations

import json
import sys
import traceback
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import click

from .core import (
    Severity,
    TaskKind,
    at_path,
    builtin_combinations,
    degradations_named,
    member_of,
    read_field,
    read_object,
)
from .envsim import env_from_dict, reference_tabular_env
from .explore import ExplorationConfig, MissingTools, explore
from .harness import RUN_MODES, parse_combinations, report_cells, run_batch
from .knowledge import (
    InconsistentTrial,
    KnowledgeBase,
    aggregate,
    distill,
    load_kb,
    reference_kb,
    render_experience_text,
    save_kb,
)
from .perception import evaluator_from_model
from .scheduling import ExperienceScheduler, RandomScheduler, measure_consistency

EXIT_USER_ERROR = 1
EXIT_MISMATCH = 2
EXIT_SOFTWARE = 70  # EX_SOFTWARE: an uncaught exception, which is a bug

#: What parsing a malformed file raises.  OSError covers a path that exists
#: but cannot be read, such as a directory; JSONDecodeError and SchemaError
#: are ValueErrors.  A KeyError or AttributeError is a bug in a parser, since
#: each reads its objects through ``read_object``, so it exits EXIT_SOFTWARE.
BAD_INPUT = (OSError, TypeError, ValueError)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_USER_ERROR)


def _load(path: Path, what: str, parse):
    """``parse(path)``, exiting with a user error when the file is missing
    or ``parse`` raises one of BAD_INPUT.  ``parse`` holds only the code
    that turns the file into the command's inputs, so that an error in
    ``explore``, ``aggregate``, ``run_batch`` or ``measure_consistency``
    still exits EXIT_SOFTWARE."""
    if not path.exists():
        _fail(f"file not found: {path}")
    try:
        return parse(path)
    except BAD_INPUT as exc:
        _fail(f"bad {what} {path}: {exc}")


def _check_out(path: Path, directory: bool = False):
    """Exit with a user error unless ``path`` can be written as a file, or
    with ``directory`` as a directory; commands call this before any work."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing == path:
        if path.is_dir() != directory:
            _fail(f"--out {path} is {'not ' if directory else ''}a directory")
    elif not existing.is_dir():
        _fail(f"--out {path}: {existing} is not a directory")


def _json_object(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, not {type(data).__name__}")
    return data


def _dump_json(data, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _trace_file(label: str) -> str:
    """The name of the file in ``traces/`` that holds one combination's traces."""
    return label.replace(" ", "_").replace("+", "-") + ".json"


class _Group(click.Group):
    """The command group.  A usage error click rejects (a bad flag value, a
    missing option, an unknown command) exits EXIT_USER_ERROR with click's
    message, not click's 2, which is ``verify``'s MISMATCH status.  Any
    other exception but click's own is a bug: it exits EXIT_SOFTWARE with
    ``internal error:`` and its traceback on stderr."""

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@contextmanager
def _exit_codes():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_USER_ERROR
        raise
    except (click.ClickException, click.exceptions.Exit, click.Abort):
        raise
    except Exception:
        click.echo(f"internal error:\n{traceback.format_exc()}", err=True, nl=False)
        sys.exit(EXIT_SOFTWARE)


@click.group(cls=_Group)
def main():
    """Agentic restoration planning over a simulated degradation environment."""


@main.command("explore")
@click.option("--config", "config_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_explore(config_path: Path, out_path: Path):
    """Run self-exploration trials; write one JSON tuple per line."""
    _check_out(out_path)
    env, config, evaluator = _load(config_path, "explore config", _explore_config)
    try:
        trials = explore(env, config, evaluator)
    except MissingTools as exc:
        _fail(f"bad explore config {config_path}: {exc}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        for combination, order, flags in trials:
            fh.write(
                json.dumps(
                    {
                        "combination": sorted(combination),
                        "order": list(order),
                        "flags": {t: bool(ok) for t, ok in sorted(flags.items())},
                    }
                )
                + "\n"
            )
    records = aggregate(trials)
    if records:
        click.echo(render_experience_text(records))
    click.echo(f"wrote {len(trials)} trial tuples to {out_path}")


def _explore_config(path: Path) -> tuple:
    """(environment, ExplorationConfig, evaluator) of an ``explore`` config.
    A key the config does not set reads as None and is not passed on, so the
    defaults live in ExplorationConfig."""
    fields = {"environment": (str, dict), "combinations": (str, list),
              "samples_per_combination": int, "trials_per_sample": int,
              "success_threshold": str, "seed": int, "evaluator": (dict, type(None))}
    settings = dict(zip(fields, read_object(_json_object(path), fields, **dict.fromkeys(fields))))
    env_spec, evaluator = settings.pop("environment"), settings.pop("evaluator")
    if env_spec in (None, "reference-tabular"):
        env = reference_tabular_env()
    elif isinstance(env_spec, dict):
        env = env_from_dict(env_spec)
    else:
        raise ValueError(f"unknown environment spec: {env_spec!r}")
    for key, parse in (("combinations", parse_combinations),
                       ("success_threshold", Severity.from_label)):
        if settings[key] is not None:
            with at_path(key):
                settings[key] = parse(settings[key])
    settings = {key: value for key, value in settings.items() if value is not None}
    return env, ExplorationConfig(**settings), evaluator_from_model(evaluator)


@main.command("summarize")
@click.option("--tuples", "tuples_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_summarize(tuples_path: Path, out_path: Path):
    """Aggregate trial tuples and distill precedence rules into a KB."""
    _check_out(out_path)
    trials = _load(tuples_path, "tuples file", _tuples_trials)
    try:
        records = aggregate(trials)
    except InconsistentTrial as exc:
        _fail(f"bad tuples file {tuples_path}: {exc}")
    kb = KnowledgeBase(records, distill(records), f"summarized from {tuples_path.name}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_kb(kb, out_path)
    if records:
        click.echo(render_experience_text(records))
    click.echo(f"knowledge base with {len(records)} records, {len(kb.rules)} rules -> {out_path}")


def _tuples_trials(path: Path) -> list:
    """The (combination, order, flags) trials of a tuples file, one JSON
    object per line; each flag must be a JSON true or false."""
    trials = []
    with path.open(encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"line {n}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: {exc.msg} at column {exc.colno}") from None
            combination, order, flags = read_object(
                row, {"combination": list, "order": list, "flags": dict}, where)
            trials.append((
                frozenset(degradations_named(combination, f"{where}.combination")),
                tuple(member_of(TaskKind, t, f"{where}.order[{j}]") for j, t in enumerate(order)),
                {member_of(TaskKind, t, f"{where}.flags"):
                 read_field(flags, t, bool, f"{where}.flags") for t in flags},
            ))
    return trials


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
    _check_out(out_dir / "traces", directory=True)
    for name in ("report.json", "timings.json"):
        _check_out(out_dir / name)
    env, evaluator_model = _load(config_path, "environment config", _environment_config)
    kb = None if kb_path is None else _load_kb(kb_path)
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
        _dump_json(combo_traces, trace_dir / _trace_file(label))
    _dump_json(report, out_dir / "report.json")
    _dump_json({"mean_wall_clock_s": timings}, out_dir / "timings.json")
    _print_report_table(report)
    click.echo(f"report -> {out_dir / 'report.json'}")


def _environment_config(path: Path) -> tuple:
    """(environment, evaluator model) of a ``run`` config: an env config that
    may also hold an ``evaluator``."""
    config = _json_object(path)
    (evaluator_model,) = read_object({"evaluator": config.pop("evaluator", None)},
                                     {"evaluator": (dict, type(None))})
    env = env_from_dict(config)
    evaluator_from_model(evaluator_model)  # validates the model before any run
    return env, evaluator_model


def _load_kb(path: Path) -> KnowledgeBase:
    return _load(path, "knowledge base", load_kb)


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
    if out_path is not None:
        _check_out(out_path)
    if scheduler_spec == "experience":
        scheduler = ExperienceScheduler(reference_kb() if kb_path is None else _load_kb(kb_path))
    else:
        scheduler = RandomScheduler()
    rows = {}
    click.echo(
        f"{'group':<7}{'combination':<50}{'entropy':>9}{'var.ratio':>11}"
        f"{'sens(H)':>9}{'sens(VR)':>10}"
    )
    for combo in builtin_combinations():
        report = measure_consistency(scheduler, combo.tasks, n_per_presentation, seed)
        rows[combo.label()] = {"group": combo.group, **asdict(report)}
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
    """Recompute every report cell from the trace file of each report label
    and check each trace's invocation count against its tree and each tree
    node's against its ``tools_tried``; exit 2 on any mismatch."""
    report = _load(report_path, "report", _json_object)
    if not trace_dir.is_dir():
        _fail(f"not a directory: {trace_dir}")
    mismatches = [
        f"{section}: not an object of objects"
        for section in ("groups", "combinations")
        if not isinstance(report.get(section), dict)
        or not all(isinstance(cell, dict) for cell in report[section].values())
    ]
    if mismatches:
        _mismatch(mismatches)
    # Groups come from the report, so a relabelled combination shows up as
    # a group cell the report lacks or gets wrong; str() turns a missing
    # group into a mismatch rather than an unsortable key.
    group_of = {label: str(cell.get("group")) for label, cell in report["combinations"].items()}
    files = {_trace_file(label): label for label in group_of}
    mismatches = [
        f"{path.name}: no report label names this trace file"
        for path in sorted(trace_dir.glob("*.json"))
        if path.name not in files
    ]
    traces = {}
    for name, label in sorted(files.items()):
        try:
            combo_traces = json.loads((trace_dir / name).read_text(encoding="utf-8"))
            for i, trace in enumerate(combo_traces):
                if trace["combination"] != label:
                    mismatches.append(f"{name}[{i}]: combination {trace['combination']!r} "
                                      f"is not this file's label {label!r}")
                nodes = list(_tree_nodes(trace["tree"]))
                for node in nodes:
                    if node["invocations"] != len(node["tools_tried"]):
                        mismatches.append(f"{name}[{i}]: node {node['subtask']!r} has invocations "
                                          f"{node['invocations']} but tools_tried "
                                          f"{node['tools_tried']}")
                counted = trace["counters"]["invocations"]
                in_tree = sum(node["invocations"] for node in nodes)
                if counted != in_tree:
                    mismatches.append(f"{name}[{i}]: counters.invocations {counted} "
                                      f"!= {in_tree} over its tree")
                # The fields report_cells reads, checked so that it cannot fail on a trace.
                for field, value, kind in (
                    ("true_success", trace["true_success"], bool),
                    ("counters.invocations", counted, int),
                    ("counters.rollbacks", trace["counters"]["rollbacks"], int),
                ):
                    if value.__class__ is not kind:
                        raise ValueError(f"trace {i}: {field} {value!r} is not of type {kind.__name__}")
            traces[label] = combo_traces
        except (*BAD_INPUT, KeyError, AttributeError) as exc:  # verify indexes traces directly
            mismatches.append(f"{name}: malformed trace file: {type(exc).__name__}: {exc}")
    for section, cells in report_cells(traces, group_of).items():
        printed = report[section]
        for name in sorted(set(cells) | set(printed)):
            if printed.get(name) != cells.get(name):
                mismatches.append(
                    f"{section}.{name}: report {printed.get(name)} != traces {cells.get(name)}"
                )
    if mismatches:
        _mismatch(mismatches)
    click.echo("report verified: every table cell and trace invocation count matches")


def _mismatch(lines):
    for line in lines:
        click.echo(f"MISMATCH {line}", err=True)
    sys.exit(EXIT_MISMATCH)


def _tree_nodes(nodes):
    """Every node of a trace tree, parents before their children."""
    for node in nodes:
        yield node
        yield from _tree_nodes(node.get("children", []))


if __name__ == "__main__":  # pragma: no cover
    main()
