import numpy as np
import pytest

from restoragent import rng as rng_module
from restoragent.core import Degradation, DegradationProfile, Severity, TaskKind
from restoragent.envsim import Environment, ToolSpec
from restoragent.execution import ExecutionPolicy, adapters_for, execute_subtask
from restoragent.perception import PerfectOracle
from restoragent.rng import Stream, substream


def _count_substreams(monkeypatch):
    built = []
    original = rng_module.substream

    def counting(seed, *parts):
        built.append(parts)
        return original(seed, *parts)

    monkeypatch.setattr(rng_module, "substream", counting)
    return built


def _draws(source):
    return [
        source.random(),
        int(source.integers(7)),
        source.permutation(5).tolist(),
        source.random(),
        int(source.integers(1000)),
    ]


def test_stream_never_drawn_from_builds_no_generator(monkeypatch):
    built = _count_substreams(monkeypatch)
    root = Stream(3, "workflow")
    root.child("evaluate").child("x", 1)
    root.child("reflect", 0)
    assert built == []


def test_generator_is_built_once_and_reused(monkeypatch):
    built = _count_substreams(monkeypatch)
    stream = Stream(3, "a", 1)
    first = stream.generator()
    stream.random()
    stream.integers(4)
    stream.permutation(3)
    assert stream.generator() is first
    assert built == [("a", 1)]


def test_stream_draws_match_substream():
    assert _draws(Stream(11, "x", 2)) == _draws(substream(11, "x", 2))


def test_interleaved_child_streams_match_substreams():
    root = Stream(5, "workflow", "run", 9)
    a, b = root.child("invoke", 0), root.child("invoke", 1)
    ref_a = substream(5, "workflow", "run", 9, "invoke", 0)
    ref_b = substream(5, "workflow", "run", 9, "invoke", 1)
    got, want = [], []
    for _ in range(4):
        got += [a.random(), int(b.integers(10)), b.permutation(4).tolist(), a.random()]
        want += [ref_a.random(), int(ref_b.integers(10)), ref_b.permutation(4).tolist(),
                 ref_a.random()]
    assert got == want


def test_one_element_permutation_takes_no_draw():
    gen = substream(2, "p")
    assert gen.permutation(1).tolist() == [0]
    assert _draws(gen) == _draws(substream(2, "p"))


def test_single_tool_subtask_builds_no_tool_order_generator(monkeypatch):
    built = _count_substreams(monkeypatch)
    env = Environment("mechanistic", [ToolSpec("dn", TaskKind.DENOISING, 1.0, 0.0, 0.0)], [])
    outcome = execute_subtask(
        TaskKind.DENOISING,
        DegradationProfile({Degradation.NOISE: Severity.HIGH}),
        adapters_for(env),
        PerfectOracle(),
        ExecutionPolicy(),
        Stream(0, "subtask"),
    )
    assert outcome.tools_tried == ["dn"]
    assert not any("tool-order" in parts for parts in built)


# Reference checks: every draw below is compared with a freshly built numpy
# generator under the same key, never with another handle of this module.

def _reference(seed, *parts):
    return np.random.Generator(np.random.Philox(key=rng_module.stream_key(seed, *parts)))


def _parts_with_key(halves_high):
    """Key parts whose stream key has ``halves_high`` halves >= 2**63; with
    exactly one, numpy converts the key tuple through float64."""
    for i in range(1000):
        k0, k1 = rng_module.stream_key(7, "branch", i)
        if (k0 >> 63) + (k1 >> 63) == halves_high:
            return ("branch", i)
    raise AssertionError(f"no key with {halves_high} high halves")


@pytest.mark.parametrize(
    "halves_high, dtype",
    [
        pytest.param(0, np.int64, id="both-halves-low"),
        pytest.param(1, np.float64, id="one-half-high-float64"),
        pytest.param(2, np.uint64, id="both-halves-high"),
    ],
)
def test_draws_match_a_fresh_numpy_generator_on_every_key_conversion(halves_high, dtype):
    parts = _parts_with_key(halves_high)
    assert np.asarray(rng_module.stream_key(7, *parts)).dtype == dtype
    want = _draws(_reference(7, *parts)) + [_reference(7, *parts).random(3).tolist()]
    assert _draws(substream(7, *parts)) + [substream(7, *parts).random(3).tolist()] == want
    assert _draws(Stream(7, *parts)) + [Stream(7, *parts).random(3).tolist()] == want


def test_random_with_size_matches_a_fresh_numpy_generator():
    stream, ref = Stream(4, "size"), _reference(4, "size")
    assert stream.random(3).tolist() == ref.random(3).tolist()
    assert stream.random() == ref.random()
    assert stream.random((2, 2)).tolist() == ref.random((2, 2)).tolist()


def test_three_interleaved_streams_match_fresh_numpy_generators():
    root = Stream(6, "workflow")
    handles = [root.child("a"), substream(6, "workflow", "b"), root.child("c")]
    refs = [_reference(6, "workflow", name) for name in "abc"]
    got, want = [], []
    for step in range(5):
        for handle, ref in zip(handles, refs):
            for source, out in ((handle, got), (ref, want)):
                out.append(int(source.integers(10 + step)))  # leaves half a word buffered
                out.append(source.random())
                out.append(source.permutation(4).tolist())
                out.append(source.random(2).tolist())
    assert got == want


def test_stream_drawn_again_after_another_stream_was_dropped():
    a, ref_a = substream(8, "a"), _reference(8, "a")
    got, want = [a.random(), int(a.integers(9))], [ref_a.random(), int(ref_a.integers(9))]
    b = substream(8, "b")
    assert b.random(2).tolist() == _reference(8, "b").random(2).tolist()
    del b  # dropped while it holds the shared state
    got += [a.random(), int(a.integers(9))]
    want += [ref_a.random(), int(ref_a.integers(9))]
    c, ref_c = Stream(8, "c"), _reference(8, "c")
    assert [c.random(), c.permutation(5).tolist()] == [ref_c.random(), ref_c.permutation(5).tolist()]
    got += [a.random(3).tolist(), a.permutation(6).tolist()]
    want += [ref_a.random(3).tolist(), ref_a.permutation(6).tolist()]
    del c
    got.append(a.random())
    want.append(ref_a.random())
    assert got == want
