"""Hierarchical, collision-resistant random substreams.

One root seed plus an arbitrary tuple of key parts (ints, strings, enums)
deterministically selects an independent Philox stream.  Streams keyed
differently never share draws, so adding trials or interleaving workers
cannot perturb existing streams.

A ``Stream`` is a lazy handle: it builds its substream on its first draw and
``generator()`` returns that same substream on every later call, so streams
that are keyed but never drawn from cost no key derivation at all.

``stream_key`` keeps the last key's path and the blake2b state after each of
its elements, so it hashes only the parts that a new path does not share with
it.  Keys equal a from-scratch hash of the whole path, and the memo's memory
is bounded by the path depth.  The encoding of each enum member and string
part is cached; plain ints, which grow with run and trial indices, are not.

Philox is counter-based, so a fresh stream is only a key with counter 0.
One process-wide Philox is therefore re-keyed per stream instead of building
a numpy generator for each: a substream holds its own Philox state and loads
it into the shared Philox when it draws after another stream did, saving the
displaced stream's state only while that stream is still referenced.  Draws
equal those of ``Generator(Philox(key=stream_key(...)))`` bit for bit.  The
shared Philox and the key memo make key derivation and draws single-threaded:
neither may run concurrently in two threads.  ``run_batch`` parallelises with
processes, each of which has its own.

Quirk kept for bit-compatibility: numpy converts a key tuple with
``np.asarray(key).astype(np.uint64)``, and when exactly one half is >= 2**63
that array is float64, so such a key keeps only 53 significant bits per half.
``int(float(half))`` gives the same correctly rounded value without numpy,
except for a half that rounds up to 2**64, whose cast depends on the platform
and so still goes through numpy.
"""

from __future__ import annotations

import enum
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


# (class, part) -> encoding, for every part but plain ints, whose number
# grows with run and trial indices.  The class keeps 1, True and
# Severity.LOW apart.
_encoded = {}


def _encode(part) -> bytes:
    if part.__class__ is int:
        return b"i" + part.to_bytes(16, "little", signed=True)
    key = (part.__class__, part)
    encoded = _encoded.get(key)
    if encoded is None:
        encoded = _encoded[key] = _encode_part(part)
    return encoded


def _encode_part(part) -> bytes:
    if isinstance(part, enum.Enum):
        part = part.value
    if isinstance(part, bool):
        part = int(part)
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, str):
        return b"s" + part.encode("utf-8") + b"\x00"
    raise TypeError(f"unsupported substream key part: {part!r}")


# (seed, *parts) of the last key derived, and the blake2b state after each
# element of that path.  Replaced as one tuple, only once a whole path encoded.
_memo = ((), ())


def stream_key(seed: int, *parts) -> tuple:
    """128-bit Philox key derived from the seed and key parts.

    Only the parts after the longest prefix shared with the last call's path
    are hashed; a prefix part counts as shared when it has the same type and
    compares equal, so it has the same encoding.
    """
    global _memo
    path = (operator.index(seed), *parts)
    last_path, last_states = _memo
    n = 0
    for old, new in zip(last_path, path):
        if old.__class__ is not new.__class__ or old != new:
            break
        n += 1
    if n:
        states = last_states[:n]
        h = states[-1]
    else:
        h = hashlib.blake2b(path[0].to_bytes(16, "little", signed=True), digest_size=16)
        states = [h]
        n = 1
    for part in path[n:]:
        h = h.copy()
        h.update(_encode(part))
        states.append(h)
    _memo = (path, states)
    return _HALVES.unpack(h.digest())


def _philox_key(key: tuple) -> tuple:
    """The key numpy's ``Philox(key=key)`` loads for a pair of 64-bit halves."""
    k0, k1 = key
    if (k0 >> 63) == (k1 >> 63):
        return key  # numpy converts these exactly
    # numpy goes through float64 here: int(float(half)) is the same correctly
    # rounded value, unless a half rounds up to 2**64.
    f0, f1 = float(k0), float(k1)
    if f0 == _TWO_64 or f1 == _TWO_64:
        return tuple(np.asarray(key).astype(np.uint64).tolist())
    return int(f0), int(f1)


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
            _PHILOX.state = self._state or {
                "bit_generator": "Philox",
                "state": {"counter": _ZEROS, "key": _philox_key(self._key)},
                "buffer": _ZEROS,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            _owner = weakref.ref(self)
        return _GENERATOR

    def random(self, size=None):
        return self._shared().random(size)

    def integers(self, high):
        return self._shared().integers(high)

    def permutation(self, n):
        return self._shared().permutation(n)


def substream(seed: int, *parts) -> Substream:
    """Independent stream for (seed, parts)."""
    return Substream(stream_key(seed, *parts))


class Stream:
    """A substream handle that can spawn child streams by key extension.

    Draws go through ``random``, ``integers`` and ``permutation``, which
    behave exactly like the same calls on ``substream(seed, *parts)``.
    """

    __slots__ = ("seed", "parts", "_generator")

    def __init__(self, seed: int, *parts):
        self.seed = operator.index(seed)
        self.parts = parts
        self._generator = None

    def child(self, *parts) -> "Stream":
        # The parent checked the seed, so the child skips __init__.
        stream = Stream.__new__(Stream)
        stream.seed = self.seed
        stream.parts = self.parts + parts
        stream._generator = None
        return stream

    def generator(self) -> Substream:
        """The stream's substream, built on the first call."""
        if self._generator is None:
            self._generator = substream(self.seed, *self.parts)
        return self._generator

    # A built substream (always truthy) is called directly; only the first
    # draw goes through generator().
    def random(self, size=None):
        return (self._generator or self.generator()).random(size)

    def integers(self, high):
        return (self._generator or self.generator()).integers(high)

    def permutation(self, n):
        return (self._generator or self.generator()).permutation(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(seed={self.seed}, parts={self.parts!r})"
