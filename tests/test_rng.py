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
