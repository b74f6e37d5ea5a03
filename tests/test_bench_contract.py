"""The benchmark traces package functions by dotted name; a rename or a
wrapper that hides one must fail here rather than in a traced run."""

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_plain_function(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    assert workloads.TRACED
    for _, dotted, _ in workloads.TRACED:
        tracing.resolve(dotted)
