"""Tests of the benchmark's own helpers.  Run from the repository root:

    python3 -m pytest benchmarks -q
"""

import importlib

import numpy as np
import pytest

import metrics
import tracing
import workloads as wl


# --- span self time ---------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # parent [0, 100] > a [10, 40] > a1 [20, 30];  parent > b [50, 70]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 70]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [50, 20, 10, 20]


def test_self_time_clips_a_child_that_ends_after_its_parent():
    starts, ends, parents = [0, 80], [100, 130], [-1, 0]
    assert tracing.self_times(starts, ends, parents) == [80, 50]


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0, 10, 30], [100, 50, 60], [-1, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 50


def test_self_time_takes_charged_tracing_cost_off_the_parent():
    # parent [0, 100] > a [10, 40], b [50, 70]; each child left 5 ns outside itself
    starts, ends, parents = [0, 10, 50], [100, 40, 70], [-1, 0, 0]
    assert tracing.self_times(starts, ends, parents, [0, 5, 5]) == [40, 30, 20]
    # never below 0
    assert tracing.self_times([0, 0], [10, 10], [-1, 0], [0, 50]) == [0, 10]


def test_outside_cost_is_measured_for_spans_and_draws():
    cost = tracing.outside_cost_ns(repeats=2, calls=2000)
    assert set(cost) == {"span", tracing.DRAW_SPAN}
    assert all(value >= 0.0 for value in cost.values())


def test_tracer_records_parent_and_run_id():
    tracer = tracing.Tracer()
    tracer.run_id = 7
    outer = tracer.open(tracer.name_id("search.run_workflow"))
    inner = tracer.open(tracer.name_id("envsim.apply_tool"))
    tracer.close(inner)
    tracer.close(outer)
    assert list(tracer.parents) == [-1, 0]
    assert list(tracer.runs) == [7, 7]
    assert tracer.ends[0] >= tracer.ends[1] >= tracer.starts[1] >= tracer.starts[0]


# --- percentile rule --------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected
    if expected is not None:
        assert metrics.samples_beyond(n, expected) >= metrics.MIN_BEYOND


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert metrics.percentile(samples, 50) == 50
    assert metrics.percentile(samples, 99) == 99
    assert metrics.percentile(samples, 100) == 100
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


# --- rescaling by the calibration probe ------------------------------------


def test_rescaled_rate_and_samples_use_each_windows_probe():
    # two windows, the second measured while the probe ran twice as slow
    windows = [metrics.Window(100.0, 10, 1000, 0, 2), metrics.Window(200.0, 10, 2000, 2, 3)]
    samples = [50.0, 150.0, 300.0]
    assert metrics.rescaled_rate(windows, 100.0) == pytest.approx(1e7)
    assert metrics.rescaled_samples(windows, samples, 100.0) == [50.0, 150.0, 150.0]
    assert metrics.rescale(2.0, 400.0, 100.0) == 0.5


# --- draw-counting proxy ----------------------------------------------------


def _pair(key=(12345, 678)):
    bare = np.random.Generator(np.random.Philox(key=key))
    proxied = np.random.Generator(np.random.Philox(key=key))
    return bare, proxied


def test_counting_generator_is_bit_identical():
    bare, gen = _pair()
    tracer = tracing.Tracer()
    proxy = tracing.CountingGenerator(gen, tracer)
    calls = [
        ("random", (), {}),
        ("random", (4,), {}),
        ("integers", (1,), {}),
        ("integers", (10,), {}),
        ("integers", (0, 1000), {"size": 6}),
        ("permutation", (9,), {}),
        ("permutation", ([3, 1, 4, 1, 5],), {}),
        ("random", (), {}),
    ]
    for method, args, kwargs in calls:
        expected = getattr(bare, method)(*args, **kwargs)
        got = getattr(proxy, method)(*args, **kwargs)
        assert np.array_equal(np.asarray(got), np.asarray(expected))
        assert np.asarray(got).dtype == np.asarray(expected).dtype
    assert proxy.draws == len(calls)
    assert np.array_equal(bare.bit_generator.random_raw(8), gen.bit_generator.random_raw(8))
    assert len(tracer) == len(calls)
    assert tracer.counters["rng.draws"] == len(calls)
    assert tracer.counters["rng.generators_drawn"] == 1


# --- patching ---------------------------------------------------------------


def test_patch_covers_every_binding_site_and_restores():
    wl.load_package()
    # the package re-exports a function named ``explore`` over the submodule
    envsim, execution, explore, search = (
        importlib.import_module(f"restoragent.{name}")
        for name in ("envsim", "execution", "explore", "search"))
    original = envsim.apply_tool
    tracer = tracing.Tracer()
    with tracing.Patch() as patch:
        patch.add("restoragent.envsim.apply_tool",
                  lambda fn: tracing.span_wrapper(fn, tracer, "envsim.apply_tool"))
        for module in (envsim, execution, explore, search):
            assert module.apply_tool is not original
            assert module.apply_tool.__wrapped__ is original
    for module in (envsim, execution, explore, search):
        assert module.apply_tool is original


def test_every_traced_name_resolves_to_a_function():
    wl.load_package()
    for span, dotted, works_in in wl.TRACED:
        assert span.split(".", 1)[0] in wl.LAYERS
        assert set(works_in) <= set(wl.WORKLOADS)
        tracing.resolve(dotted)


def test_reference_digest_matches_pinned_prefix():
    pinned = wl.load_reference()["reference_digest"]
    assert pinned.startswith("614ce2daa755381a")
    assert wl.reference_digest() == pinned
