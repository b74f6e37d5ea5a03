import ctypes
import enum
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restoragent import rng as rng_module
from restoragent.core import (
    Degradation,
    DegradationProfile,
    Severity,
    TaskKind,
    builtin_combinations,
)
from restoragent.envsim import Environment, ToolSpec, reference_tabular_env
from restoragent.execution import adapters_for, execute_subtask
from restoragent.harness import run_batch
from restoragent.perception import PerfectOracle
from restoragent.rng import Stream, stream_key, substream
from restoragent.scheduling import RandomScheduler


def _count_substreams(monkeypatch):
    built = []
    original = rng_module.substream

    def counting(seed, *parts):
        built.append(parts)
        return original(seed, *parts)

    monkeypatch.setattr(rng_module, "substream", counting)
    return built


def _shuffled(source, n):
    items = list(range(n))
    source.shuffle(items)
    return items


def _draws(source):
    return [
        source.random(),
        int(source.integers(7)),
        _shuffled(source, 5),
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
    stream.shuffle([0, 1, 2])
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
        got += [a.random(), int(b.integers(10)), _shuffled(b, 4), a.random()]
        want += [ref_a.random(), int(ref_b.integers(10)), _shuffled(ref_b, 4), ref_a.random()]
    assert got == want


def test_one_element_permutation_takes_no_draw():
    gen, items = substream(2, "p"), ["x"]
    gen.shuffle(items)
    assert items == ["x"]
    assert _draws(gen) == _draws(substream(2, "p"))


# numpy takes no draw for integers(1) or a shuffle of at most one item, so a
# Stream answers them itself.

def test_integers_of_one_builds_no_substream(monkeypatch):
    built = _count_substreams(monkeypatch)
    for stream in (Stream(4, "a"), Stream(4, "a").child("b", 2)):
        assert stream.integers(1) == 0
        assert stream._generator is None
    assert built == []


@pytest.mark.parametrize("items", [[], ["x"]], ids=["empty", "one-item"])
def test_a_shuffle_of_at_most_one_item_builds_no_substream(monkeypatch, items):
    built = _count_substreams(monkeypatch)
    for stream in (Stream(4, "a"), Stream(4, "a").child("b", 2)):
        shuffled = list(items)
        stream.shuffle(shuffled)
        assert shuffled == items
        assert stream._generator is None
    assert built == []


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    calls=st.lists(st.one_of(st.tuples(st.just("integers"), st.integers(1, 50)),
                             st.tuples(st.just("shuffle"), st.integers(0, 6)),
                             st.tuples(st.just("random"), st.just(0))), max_size=12),
)
def test_draws_around_the_no_draw_calls_match_substream(seed, calls):
    """integers(n) for n >= 2 and shuffles of two or more items draw as
    ``substream`` does, whatever integers(1) and short shuffles come between."""
    stream, reference = Stream(seed, "a").child(2), substream(seed, "a", 2)
    for name, n in calls:
        if name == "integers":
            assert int(stream.integers(n)) == int(reference.integers(n))
        elif name == "shuffle":
            assert _shuffled(stream, n) == _shuffled(reference, n)
        else:
            assert stream.random() == reference.random()


@pytest.mark.parametrize("agenda, banned, plan", [
    ((TaskKind.DERAINING,), set(), (TaskKind.DERAINING,)),
    ((TaskKind.DERAINING, TaskKind.DEHAZING), {TaskKind.DERAINING}, (TaskKind.DEHAZING, TaskKind.DERAINING)),
], ids=["no-rest", "one-task-rest"])
def test_random_schedule_of_one_eligible_task_builds_no_substream(monkeypatch, agenda, banned, plan):
    built = _count_substreams(monkeypatch)
    stream = Stream(0, "workflow", 0).child("schedule", 0)
    assert RandomScheduler().schedule(agenda, banned_first=banned, rng=stream) == plan
    assert built == [] and stream._generator is None


def test_single_tool_subtask_builds_no_tool_order_generator(monkeypatch):
    built = _count_substreams(monkeypatch)
    env = Environment("mechanistic", [ToolSpec("dn", TaskKind.DENOISING, 1.0, 0.0, 0.0)], [])
    outcome = execute_subtask(
        TaskKind.DENOISING,
        DegradationProfile({Degradation.NOISE: Severity.HIGH}),
        adapters_for(env),
        PerfectOracle(),
        Severity.LOW,
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


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize(
    "halves_high", [0, 1, 2], ids=["both-halves-low", "straddling", "both-halves-high"])
@pytest.mark.parametrize("make", [substream, Stream], ids=["substream", "Stream"])
def test_random_of_n_equals_n_random_calls_on_one_stream(make, halves_high, n):
    """``explore`` on a tabular env and ``NoisyOracle.assess`` take n doubles
    as one ``random(n)``; both handles of the key go on from the same point."""
    parts = _parts_with_key(halves_high)
    at_once, one_by_one = make(7, *parts), make(7, *parts)
    assert at_once.random(n).tolist() == [one_by_one.random() for _ in range(n)]
    assert at_once.random() == one_by_one.random()


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
                out.append(_shuffled(source, 4))
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
    assert [c.random(), _shuffled(c, 5)] == [ref_c.random(), _shuffled(ref_c, 5)]
    got += [a.random(3).tolist(), _shuffled(a, 6)]
    want += [ref_a.random(3).tolist(), _shuffled(ref_a, 6)]
    del c
    got.append(a.random())
    want.append(ref_a.random())
    assert got == want


# Key loading: for a key whose halves straddle 2**63, the key the shared Philox
# holds after a draw equals numpy's own tuple conversion of it.

def _numpy_converted_key(key):
    with np.errstate(invalid="ignore"):  # a half that rounds up to 2**64
        return np.asarray(key).astype(np.uint64).tolist()


def _loaded_key(key):
    with np.errstate(invalid="ignore"):
        rng_module.Substream(key).random()
    return rng_module._PHILOX.state["state"]["key"].tolist()


_LOW_HALF = st.integers(0, 2**63 - 1) | st.integers(2**63 - 2**11, 2**63 - 1)
_HIGH_HALF = st.integers(2**63, 2**64 - 1) | st.integers(2**64 - 2**12, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(low=_LOW_HALF, high=_HIGH_HALF, high_first=st.booleans())
@example(low=2**63 - 1, high=2**63, high_first=False)
@example(low=2**63 - 1, high=2**63, high_first=True)
@example(low=0, high=2**64 - 1, high_first=True)
@example(low=2**63 - 1, high=2**64 - 1, high_first=False)
@example(low=5, high=2**64 - 2**10, high_first=True)  # the first half rounding up to 2**64
@example(low=5, high=2**64 - 2**10 - 1, high_first=True)  # the last rounding down
def test_a_straddling_key_loads_as_numpy_converts_it(low, high, high_first):
    key = (high, low) if high_first else (low, high)
    assert np.asarray(key).dtype == np.float64
    assert _loaded_key(key) == _numpy_converted_key(key)


@settings(max_examples=300, deadline=None)
@given(k0=_LOW_HALF | _HIGH_HALF, k1=_LOW_HALF | _HIGH_HALF, n=st.integers(1, 8))
@example(k0=5, k1=2**64 - 2**10, n=3)  # a half rounding up to 2**64
def test_shuffle_draws_as_numpy_permutation_does(k0, k1, n):
    with np.errstate(invalid="ignore"):
        stream, ref = rng_module.Substream((k0, k1)), np.random.Generator(np.random.Philox(key=(k0, k1)))
        assert _shuffled(stream, n) == ref.permutation(n).tolist()
        assert stream.random() == ref.random()


# Key loading through numpy's C state struct, its self-check and its fallback.

def _interleaved_draws():
    root = Stream(9, "load")
    handles = [root.child("a"), substream(9, "load", "b"), root.child("c"), root.child("d")]
    out = []
    for _ in range(3):
        for handle in handles:
            # A shuffle takes 32-bit draws unfiltered, so on a fresh load it
            # would take the half word that the last handle left buffered.
            out += [_shuffled(handle, 6), *_draws(handle)]
            while not rng_module._PHILOX.state["has_uint32"]:
                out.append(int(handle.integers(10)))
    return out


def test_the_dict_setter_fallback_draws_as_the_struct_path(monkeypatch):
    by_struct = _interleaved_draws()
    monkeypatch.setattr(rng_module, "_load_key", rng_module._load_through_dict)
    assert _interleaved_draws() == by_struct


def test_the_struct_self_check_passes_on_this_numpy():
    # Falling back to the dict setter would keep every draw but lose the speed.
    assert rng_module._load_key is not rng_module._load_through_dict
    assert rng_module._struct_loader(np.random.Philox()) is not None


def test_the_struct_self_check_rejects_a_layout_numpy_does_not_have(monkeypatch):
    fields = dict(rng_module._PhiloxState._fields_)

    class Swapped(ctypes.Structure):  # has_uint32 and uinteger trade places
        _fields_ = [(name, fields[name])
                    for name in ("ctr", "key", "buffer_pos", "buffer", "uinteger", "has_uint32")]

    monkeypatch.setattr(rng_module, "_PhiloxState", Swapped)
    assert rng_module._struct_loader(np.random.Philox()) is None


# Key derivation: every key below is compared with a from-scratch blake2b of
# the whole path, written here independently of ``rng``.

def _scratch_key(seed, *parts):
    h = hashlib.blake2b(digest_size=16)
    h.update(seed.to_bytes(16, "little", signed=True))
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + part.to_bytes(16, "little", signed=True))
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b"\x00")
        else:
            raise TypeError(part)
    digest = h.digest()
    return int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")


_INT128 = st.integers(-(2**127), 2**127 - 1)
_PARTS = st.one_of(
    st.integers(-3, 3),
    _INT128,
    st.sampled_from(["", "invoke", "é✓", "a\x00b"]),
    st.text(max_size=6),
)
# Each step keeps some prefix of the previous path's parts and appends new ones.
_STEPS = st.lists(
    st.tuples(st.sampled_from([0, 1]), st.integers(0, 12), st.lists(_PARTS, max_size=5)),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(seeds=st.lists(_INT128, min_size=2, max_size=2), steps=_STEPS)
def test_interleaved_paths_match_a_from_scratch_hash(seeds, steps):
    parts = []
    for seed_index, keep, extra in steps:
        parts = parts[:keep] + extra
        assert stream_key(seeds[seed_index], *parts) == _scratch_key(seeds[seed_index], *parts)


def test_float_after_equal_int_still_raises():
    stream_key(3, "run", 1)
    with pytest.raises(TypeError):
        stream_key(3, "run", 1.0)
    with pytest.raises(TypeError):
        stream_key(3, "run", 1.0, "x")


@pytest.mark.parametrize(
    "bad, error", [(object(), TypeError), (2.5, TypeError), (2**127, OverflowError)]
)
def test_a_failing_part_leaves_later_keys_correct(bad, error):
    assert stream_key(4, "a", "b", "c") == _scratch_key(4, "a", "b", "c")
    with pytest.raises(error):
        stream_key(4, "a", "b", bad, "d")
    assert stream_key(4, "a", "b", "d") == _scratch_key(4, "a", "b", "d")
    with pytest.raises(error):
        stream_key(4, "a", bad)
    assert stream_key(4, "a", "b", "c") == _scratch_key(4, "a", "b", "c")
    assert stream_key(4, "a") == _scratch_key(4, "a")


def test_an_overflowing_seed_leaves_later_keys_correct():
    assert stream_key(5, "x") == _scratch_key(5, "x")
    with pytest.raises(OverflowError):
        stream_key(2**127, "x")
    assert stream_key(5, "x", "y") == _scratch_key(5, "x", "y")


@pytest.mark.parametrize("seed", [1.5, 1.0, "7", None])
def test_a_non_integer_seed_raises(seed):
    with pytest.raises(TypeError):
        stream_key(seed, "x")
    with pytest.raises(TypeError):
        Stream(seed, "x")


@pytest.mark.parametrize("runs", [1, 0])
def test_run_batch_rejects_a_fractional_seed(runs):
    combos = builtin_combinations()[:1]
    with pytest.raises(TypeError):
        run_batch(reference_tabular_env(), None, "full", combos, runs, 1.9)


@pytest.mark.parametrize(
    "part",
    [0, 1, 255, 256, -1, -7, 2**100, True, False, "", "invoke", "é✓",
     *Degradation, *TaskKind, *Severity],
)
def test_cached_encoding_equals_the_uncached_one(part):
    """An int or a str part keys a stream as the from-scratch encoding does,
    before and after its first use fills the cache; a bool or an enum member
    is refused, and only str parts are cached."""
    if part.__class__ in (int, str):
        rng_module._encoded.pop(part, None)
        assert stream_key(3, part) == _scratch_key(3, part)  # fills the cache for a str
        assert stream_key(3, part) == _scratch_key(3, part)
    else:
        with pytest.raises(TypeError, match="unsupported substream key part"):
            rng_module._encode(part)
    assert all(key.__class__ is str for key in rng_module._encoded)


@pytest.mark.parametrize("part", [True, Severity.LOW, TaskKind.DENOISING], ids=repr)
def test_a_bool_or_an_enum_member_is_not_a_key_part(part):
    """Not even right after its equal int or str value was encoded at the
    same position, and not through a ``Stream`` either."""
    value = part.value if isinstance(part, enum.Enum) else int(part)
    assert stream_key(3, "run", value) == _scratch_key(3, "run", value)
    with pytest.raises(TypeError, match="unsupported substream key part"):
        stream_key(3, "run", part)
    with pytest.raises(TypeError, match="unsupported substream key part"):
        Stream(3, "run").child(part).random()


# Streams that hash on from their parent's state: every key below is compared
# with the from-scratch blake2b of the stream's whole path.

def _scratch_generator(seed, *parts):
    return np.random.Generator(np.random.Philox(key=_scratch_key(seed, *parts)))


_DRAW_OPS = (
    lambda source: source.random(),
    lambda source: int(source.integers(7)),
    lambda source: _shuffled(source, 5),
    lambda source: source.random(2).tolist(),
)


@settings(max_examples=150, deadline=None)
@given(seed=_INT128, root_parts=st.lists(_PARTS, max_size=4), data=st.data())
def test_a_random_tree_of_children_draws_as_from_scratch_keys(seed, root_parts, data):
    streams, paths = [Stream(seed, *root_parts)], [tuple(root_parts)]
    # Each new stream is the child of an earlier one, picked by index.
    for pick, parts in data.draw(st.lists(st.tuples(st.integers(0, 99), st.lists(_PARTS, max_size=3)),
                                          max_size=12)):
        parent = pick % len(streams)
        streams.append(streams[parent].child(*parts))
        paths.append(paths[parent] + tuple(parts))
    # Draws interleave in a random order; a stream never picked is never drawn.
    steps = data.draw(st.lists(st.tuples(st.integers(0, len(streams) - 1), st.sampled_from(_DRAW_OPS)),
                               max_size=40))
    references = {}
    for index, op in steps:
        if index not in references:
            references[index] = _scratch_generator(seed, *paths[index])
        assert op(streams[index]) == op(references[index])


def test_an_unencodable_child_part_caches_no_state_and_spares_its_relatives():
    parent = Stream(12, "tree").child("p", 1)
    bad = parent.child("ok", 2.5)
    with pytest.raises(TypeError):
        bad.random()
    with pytest.raises(TypeError):
        bad.child("x").random()  # hashes "ok" into bad's state before 2.5 fails
    assert bad._state is None and bad._generator is None
    later = parent.child("ok", 3)
    assert _draws(parent) == _draws(_scratch_generator(12, "tree", "p", 1))
    assert _draws(later) == _draws(_scratch_generator(12, "tree", "p", 1, "ok", 3))


def test_a_stream_part_must_come_first_and_share_the_seed():
    stream = Stream(3, "a").child(1)
    assert stream_key(3, stream, "b") == _scratch_key(3, "a", 1, "b")
    with pytest.raises(ValueError):
        stream_key(4, stream, "b")
    with pytest.raises(TypeError):
        stream_key(3, "a", stream)


def test_a_first_draw_calls_generator_substream_and_stream_key_once_each(monkeypatch):
    # benchmarks/workloads.TRACED times this chain; a link it skips fails
    # ``benchmarks/run.py --trace 1`` as unmeasured.
    calls = []
    for owner, name in ((Stream, "generator"), (rng_module, "substream"), (rng_module, "stream_key")):
        def counting(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    child = Stream(3, "workflow").child("invoke", 0)
    child.random()
    assert calls == ["generator", "substream", "stream_key"]
    calls.clear()
    child.random(2)
    child.integers(5)
    child.shuffle([1, 2, 3])
    assert calls == []
