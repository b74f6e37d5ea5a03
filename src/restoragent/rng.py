"""Hierarchical, collision-resistant random substreams.

One root seed plus a tuple of key parts (ints and strings) selects an
independent Philox stream, so adding trials or interleaving workers cannot
perturb existing streams.  A ``Stream`` is a lazy handle: it derives its key
and builds its substream on its first draw only, and ``generator()`` returns
that substream on every later call.

A ``Stream`` keeps its parent, its own key parts and, once a descendant needs
it, the blake2b state after its whole path.  A child's first draw passes its
parent to ``stream_key``, which hashes only the child's own parts on a copy of
that state.  Keys equal a from-scratch hash of the whole path.  Encodings of
strings are cached and those of the ints 0-255 come from a table built at
import; other ints, which grow with run and trial indices, are encoded anew.

Philox is counter-based, so a fresh stream is only a key with counter 0.  One
process-wide Philox is re-keyed per stream: a fresh key is written into
numpy's C state through a ``ctypes`` view that passed a self-check at import
(else through the ``state`` dict), and a displaced stream's state is saved
only while that stream is still referenced.  Draws, and ``shuffle`` as
``permutation``, equal those of ``Generator(Philox(key=stream_key(...)))`` bit
for bit.  The shared Philox makes draws single-threaded; ``run_batch``
parallelises with processes.

Quirk kept for bit-compatibility: numpy converts a key tuple through float64
when exactly one half is >= 2**63, keeping 53 significant bits per half (see
``_philox_key``).
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import struct
import weakref

import numpy as np

_ZEROS = (0, 0, 0, 0)
_TWO_64 = float(1 << 64)
_HALVES = struct.Struct("<QQ")

_PHILOX = np.random.Philox(key=(0, 0))
_GENERATOR = np.random.Generator(_PHILOX)
_owner = None  # weak reference to the substream whose state _PHILOX holds


# str part -> encoding.  Ints, whose number grows with run and trial
# indices, are not cached; the table holds the encodings of 0-255.
_encoded = {}
_SMALL_INTS = tuple(b"i" + n.to_bytes(16, "little", signed=True) for n in range(256))


def _encode(part) -> bytes:
    """A key part is an int or a str; a bool or an enum member is neither."""
    if part.__class__ is int:
        if 0 <= part < 256:
            return _SMALL_INTS[part]
        return b"i" + part.to_bytes(16, "little", signed=True)
    if part.__class__ is not str:
        raise TypeError(f"unsupported substream key part: {part!r}")
    encoded = _encoded.get(part)
    if encoded is None:
        encoded = _encoded[part] = b"s" + part.encode("utf-8") + b"\x00"
    return encoded


def stream_key(seed: int, *parts) -> tuple:
    """128-bit Philox key derived from the seed and key parts.  A ``Stream`` as
    the first part stands for its whole path: hashing goes on from its state."""
    seed = operator.index(seed)
    if parts and parts[0].__class__ is Stream:
        parent, parts = parts[0], parts[1:]
        if parent.seed != seed:
            raise ValueError(f"seed {seed} does not match {parent!r}")
        h = (parent._state or parent._hash()).copy()
    else:
        h = hashlib.blake2b(seed.to_bytes(16, "little", signed=True), digest_size=16)
    for part in parts:
        h.update(_encode(part))
    return _HALVES.unpack(h.digest())


def _philox_key(key: tuple) -> tuple:
    """The key numpy's ``Philox(key=key)`` loads for a pair of 64-bit halves."""
    k0, k1 = key
    if (k0 >> 63) == (k1 >> 63):
        return key  # numpy converts these exactly
    # numpy goes through float64 here: int(float(half)) is the same correctly
    # rounded value, unless a half rounds up to 2**64, whose cast depends on the platform.
    f0, f1 = float(k0), float(k1)
    if f0 == _TWO_64 or f1 == _TWO_64:
        return tuple(np.asarray(key).astype(np.uint64).tolist())
    return int(f0), int(f1)


def _load_through_dict(key: tuple):
    _PHILOX.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": _philox_key(key)},
                     "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


class _PhiloxState(ctypes.Structure):  # numpy's C philox_state, viewed in place
    _fields_ = [("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)), ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int), ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


def _struct_loader(philox):
    """A key loader writing into ``philox``'s C state, or None if it fails a self-check."""
    try:
        view = _PhiloxState.from_address(philox.ctypes.state_address)
        view.owner = philox  # keeps the struct alive as long as the view
        ctr, words = view.ctr.contents, view.key.contents
        philox.state = {"bit_generator": "Philox", "state": {"counter": (1, 2, 3, 4), "key": (5, 6)},
                        "buffer": (7, 8, 9, 10), "buffer_pos": 2, "has_uint32": 1, "uinteger": 11}
        read = (ctr[:], words[:], view.buffer[:], view.buffer_pos, view.has_uint32, view.uinteger)
        if read != ([1, 2, 3, 4], [5, 6], [7, 8, 9, 10], 2, 1, 11):
            return None  # and write nothing through a view that misreads

        def load(key: tuple):
            words[0], words[1] = _philox_key(key)
            ctr[:] = _ZEROS
            view.buffer_pos, view.has_uint32, view.uinteger = 4, 0, 0

        gen = np.random.Generator(philox)
        for key in ((1, 2), (3, 2**63 + 5)):  # the second straddles 2**63
            load(key)
            # Raw 32-bit draws first, which a has_uint32 left set would change.
            draws = [(g.integers(2**32, size=3, dtype=np.uint32).tolist(), g.random())
                     for g in (gen, np.random.Generator(np.random.Philox(key=key)))]
            if draws[0] != draws[1]:
                return None
        return load
    except Exception:  # any failure over a foreign layout means the dict setter
        return None


_load_key = _struct_loader(_PHILOX) or _load_through_dict


class Substream:
    """One keyed stream drawn through the shared Philox."""

    __slots__ = ("_key", "_state", "__weakref__")

    def __init__(self, key: tuple):
        self._key = key
        self._state = None  # set only when another stream displaces this one

    def _shared(self) -> np.random.Generator:
        """The shared generator, holding this stream's state."""
        global _owner
        holder = _owner() if _owner is not None else None
        if holder is not self:
            if holder is not None:
                holder._state = _PHILOX.state
            if self._state is None:
                _load_key(self._key)
            else:
                _PHILOX.state = self._state
            _owner = weakref.ref(self)
        return _GENERATOR

    def random(self, size=None):
        return self._shared().random(size)

    def integers(self, high):
        return self._shared().integers(high)

    def shuffle(self, items: list):
        self._shared().shuffle(items)


def substream(seed: int, *parts) -> Substream:
    """Independent stream for (seed, parts)."""
    return Substream(stream_key(seed, *parts))


class Stream:
    """A substream handle that can spawn child streams by key extension.

    Draws go through ``random``, ``integers`` and ``shuffle``, which
    behave exactly like the same calls on ``substream(seed, *parts)`` over
    the parts of the stream's whole path.
    """

    __slots__ = ("seed", "_parent", "_own", "_state", "_generator")

    def __init__(self, seed: int, *parts):
        self.seed = operator.index(seed)
        self._parent = None
        self._own = parts
        self._state = None  # blake2b state after the whole path, once needed
        self._generator = None

    def child(self, *parts) -> "Stream":
        # The parent checked the seed, so the child skips __init__.
        stream = Stream.__new__(Stream)
        stream.seed = self.seed
        stream._parent = self
        stream._own = parts
        stream._state = stream._generator = None
        return stream

    def _hash(self):
        """The blake2b state after this stream's whole path, built once."""
        if self._state is None:
            parent = self._parent
            h = (hashlib.blake2b(self.seed.to_bytes(16, "little", signed=True), digest_size=16)
                 if parent is None else parent._hash().copy())
            for part in self._own:
                h.update(_encode(part))
            self._state = h  # only once every part has encoded
        return self._state

    def generator(self) -> Substream:
        """The stream's substream, built on the first call."""
        if self._generator is None:
            parent = self._parent
            self._generator = (substream(self.seed, *self._own) if parent is None
                               else substream(self.seed, parent, *self._own))
        return self._generator

    # A built substream (always truthy) is called directly; only the first
    # draw goes through generator().  numpy takes no draw for integers(1) or
    # a shuffle of at most one item, so neither builds the substream.
    def random(self, size=None):
        return (self._generator or self.generator()).random(size)

    def integers(self, high):
        if high == 1:
            return 0
        return (self._generator or self.generator()).integers(high)

    def shuffle(self, items: list):
        if len(items) > 1:
            (self._generator or self.generator()).shuffle(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts, stream = (), self
        while stream is not None:
            parts, stream = stream._own + parts, stream._parent
        return f"Stream(seed={self.seed}, parts={parts!r})"
