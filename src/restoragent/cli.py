"""Command-line front end: exploration, KB building, workflow batches,
consistency studies, and report verification."""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

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
from .envsim import NoTools, env_from_dict, reference_tabular_env
from .explore import ExplorationConfig, explore
from .harness import RUN_MODES, parse_combinations, run_batch
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
from .verify import mismatches, trace_file

EXIT_USER_ERROR = 1
EXIT_MISMATCH = 2
EXIT_SOFTWARE = 70  # EX_SOFTWARE: an uncaught exception, which is a bug

#: What parsing a malformed file raises.  OSError covers a path that exists
#: but cannot be read, such as a directory; JSONDecodeError and SchemaError
#: are ValueErrors.  A KeyError or AttributeError is a bug in a parser, since
#: each reads its objects through ``read_object``, so it exits EXIT_SOFTWARE.
BAD_INPUT = (OSError, TypeError, ValueError)


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
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


def cmd_explore(config: Path, out: Path):
    """Run self-exploration trials; write one JSON tuple per line."""
    _check_out(out)
    env, exploration, evaluator = _load(config, "explore config", _explore_config)
    try:
        trials = explore(env, exploration, evaluator)
    except NoTools as exc:
        _fail(f"bad explore config {config}: {exc}")
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
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
        print(render_experience_text(records))
    print(f"wrote {len(trials)} trial tuples to {out}")


def _explore_config(path: Path) -> tuple:
    """(environment, ExplorationConfig, evaluator) of an ``explore`` config.
    A key the config does not set reads as None and is not passed on, so the
    defaults live in ExplorationConfig."""
    fields = {"environment": (str, dict), "combinations": (str, list),
              "samples_per_combination": int, "trials_per_sample": int,
              "success_threshold": str, "seed": int, "evaluator": (dict, type(None))}
    settings = dict(zip(fields, read_object(_json_object(path), fields, **dict.fromkeys(fields))))
    env_spec, evaluator = settings.pop("environment"), settings.pop("evaluator")
    with at_path("environment"):
        if env_spec in (None, "reference-tabular"):
            env = reference_tabular_env()
        elif isinstance(env_spec, dict):
            env = env_from_dict(env_spec, "environment")
        else:
            raise ValueError(f"unknown environment spec: {env_spec!r}")
    for key, parse in (("combinations", parse_combinations),
                       ("success_threshold", Severity.from_label)):
        if settings[key] is not None:
            with at_path(key):
                settings[key] = parse(settings[key])
    settings = {key: value for key, value in settings.items() if value is not None}
    return env, ExplorationConfig(**settings), evaluator_from_model(evaluator)


def cmd_summarize(tuples: Path, out: Path):
    """Aggregate trial tuples and distill precedence rules into a KB."""
    _check_out(out)
    trials = _load(tuples, "tuples file", _tuples_trials)
    try:
        records = aggregate(trials)
    except InconsistentTrial as exc:
        _fail(f"bad tuples file {tuples}: {exc}")
    kb = KnowledgeBase(records, distill(records), f"summarized from {tuples.name}")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_kb(kb, out)
    if records:
        print(render_experience_text(records))
    print(f"knowledge base with {len(records)} records, {len(kb.rules)} rules -> {out}")


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


def cmd_run(config, kb, mode, runs, seed, out, jobs, combinations):
    """Execute workflow batches and write traces plus a report."""
    _check_out(out / "traces", directory=True)
    for name in ("report.json", "timings.json"):
        _check_out(out / name)
    env, evaluator_model = _load(config, "environment config", _environment_config)
    knowledge_base = None if kb is None else _load_kb(kb)
    try:
        combos = parse_combinations(combinations)
    except ValueError as exc:
        _fail(str(exc))
    if runs < 0:
        _fail("--runs must be non-negative")
    report, traces, timings = run_batch(
        env, knowledge_base, mode, combos, runs, seed, evaluator_model, jobs
    )
    out.mkdir(parents=True, exist_ok=True)
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for label, combo_traces in traces.items():
        _dump_json(combo_traces, trace_dir / trace_file(label))
    _dump_json(report, out / "report.json")
    _dump_json({"mean_wall_clock_s": timings}, out / "timings.json")
    _print_report_table(report)
    print(f"report -> {out / 'report.json'}")


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
    print(f"mode: {report['mode']}   runs/combination: {report['runs_per_combination']}")
    print(f"{'group':<8}{'success rate':>14}{'mean invocations':>18}{'mean rollbacks':>16}")
    for group, stats in report["groups"].items():
        print(
            f"{group:<8}{stats['success_rate']:>14.3f}"
            f"{stats['mean_invocations']:>18.2f}{stats['mean_rollbacks']:>16.2f}"
        )


def cmd_consistency(scheduler, kb, n, seed, out):
    """Scheduling-dispersion study over the built-in combinations."""
    if n < 1:
        _fail("--n must be >= 1")
    if out is not None:
        _check_out(out)
    if scheduler == "experience":
        planner = ExperienceScheduler(reference_kb() if kb is None else _load_kb(kb))
    else:
        planner = RandomScheduler()
    rows = {}
    print(
        f"{'group':<7}{'combination':<50}{'entropy':>9}{'var.ratio':>11}"
        f"{'sens(H)':>9}{'sens(VR)':>10}"
    )
    for combo in builtin_combinations():
        report = measure_consistency(planner, combo.tasks, n, seed)
        rows[combo.label()] = {"group": combo.group, **asdict(report)}
        print(
            f"{combo.group:<7}{combo.label():<50}{report.entropy_bits:>9.3f}"
            f"{report.variation_ratio:>11.3f}{report.sensitivity_entropy:>9.3f}"
            f"{report.sensitivity_vr:>10.3f}"
        )
    if out is not None:
        _dump_json(rows, out)


def cmd_verify(report: Path, traces: Path):
    """Check a run's report and its trace files against their declared schema
    and recompute every value that follows from others, the report's cells
    included; exit 2 on any mismatch."""
    document = _load(report, "report", _json_object)
    if not traces.is_dir():
        _fail(f"not a directory: {traces}")
    files = {p.name: _load(p, "trace file", Path.read_bytes) for p in traces.glob("*.json")}
    lines = mismatches(report.name, document, files)
    if lines:
        print("\n".join(f"MISMATCH {line}" for line in lines), file=sys.stderr)
        sys.exit(EXIT_MISMATCH)
    print("report verified: every key has its declared type and every derived value matches")


_PATH = {"type": Path, "required": True}
#: Each command's handler and its options; a handler's parameters are named
#: after its flags.
COMMANDS = {
    "explore": (cmd_explore, {"--config": _PATH, "--out": _PATH}),
    "summarize": (cmd_summarize, {"--tuples": _PATH, "--out": _PATH}),
    "run": (cmd_run, {
        "--config": {**_PATH, "help": "Environment JSON (may embed an 'evaluator' noise model)."},
        "--kb": {"type": Path},
        "--mode": {"choices": RUN_MODES, "default": "full"},
        "--runs": {"type": int, "default": 100},
        "--seed": {"type": int, "default": 0},
        "--out": _PATH,
        "--jobs": {"type": int, "default": 1},
        "--combinations": {"default": "all", "help": '"all", "group-A"/"group-B"/"group-C".'},
    }),
    "consistency": (cmd_consistency, {
        "--scheduler": {"choices": ["experience", "random"], "default": "experience"},
        "--kb": {"type": Path},
        "--n": {"type": int, "default": 60},
        "--seed": {"type": int, "default": 0},
        "--out": {"type": Path},
    }),
    "verify": (cmd_verify, {"--report": _PATH, "--traces": _PATH}),
}


class _Parser(argparse.ArgumentParser):
    """A usage error exits EXIT_USER_ERROR, not argparse's 2, which is
    ``verify``'s MISMATCH status."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USER_ERROR, f"{self.prog}: error: {message}\n")


def _unrecognized(argv: list) -> list:
    """The arguments that name none of their command's flags, as argparse
    would report them; every flag takes one value.  argparse checks a
    command's required flags first, so a mistyped ``--conf`` would read as
    a missing ``--config``.  A help flag leaves argparse to print help."""
    if not argv or argv[0] not in COMMANDS:
        return []
    flags = COMMANDS[argv[0]][1]
    left, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return []
        if token in flags:
            next(tokens, None)
        elif token.partition("=")[0] not in flags:
            left.append(token)
    return left


def main(argv=None):
    """Agentic restoration planning over a simulated degradation environment.

    Any exception a command raises, other than the SystemExit of a user
    error, a mismatch or ``--help``, is a bug: it exits EXIT_SOFTWARE with
    ``internal error:`` and its traceback on stderr."""
    parser = _Parser(prog="restoragent", description=main.__doc__.partition("\n")[0],
                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (handler, options) in COMMANDS.items():
        subparser = commands.add_parser(name, help=handler.__doc__.partition(".")[0],
                                        description=handler.__doc__, allow_abbrev=False)
        for flag, settings in options.items():
            subparser.add_argument(flag, **settings)
    argv = sys.argv[1:] if argv is None else argv
    unrecognized = _unrecognized(argv)
    if unrecognized:
        parser.error(f"unrecognized arguments: {' '.join(unrecognized)}")
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    if command is None:
        parser.error("missing command")
    try:
        COMMANDS[command][0](**args)
    except Exception:
        print(f"internal error:\n{traceback.format_exc()}", file=sys.stderr, end="")
        sys.exit(EXIT_SOFTWARE)


if __name__ == "__main__":  # pragma: no cover
    main()
