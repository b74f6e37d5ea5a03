"""Hierarchical, collision-resistant random substreams.

One root seed plus an arbitrary tuple of key parts (ints, strings, enums)
deterministically selects an independent Philox stream.  Streams keyed
differently never share draws, so adding trials or interleaving workers
cannot perturb existing streams.

A ``Stream`` is a lazy handle: it builds its substream on its first draw and
``generator()`` returns that same substream on every later call, so streams
that are keyed but never drawn from cost no key derivation at all.

Philox is counter-based, so a fresh stream is only a key with counter 0.
One process-wide Philox is therefore re-keyed per stream instead of building
a numpy generator for each: a substream holds its own Philox state and loads
it into the shared Philox when it draws after another stream did, saving the
displaced stream's state only while that stream is still referenced.  Draws
equal those of ``Generator(Philox(key=stream_key(...)))`` bit for bit.  The
shared Philox makes concurrent draws from different threads unsafe;
``run_batch`` parallelises with processes, each of which has its own.

Quirk kept for bit-compatibility: numpy converts a key tuple with
``np.asarray(key).astype(np.uint64)``, and when exactly one half is >= 2**63
that array is float64, so such a key keeps only 53 significant bits per half.
"""

from __future__ import annotations

import enum
import hashlib
import weakref

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS = (0, 0, 0, 0)

_PHILOX = np.random.Philox(key=(0, 0))
_GENERATOR = np.random.Generator(_PHILOX)
_owner = None  # weak reference to the substream whose state _PHILOX holds


def _encode(part) -> bytes:
    if isinstance(part, enum.Enum):
        part = part.value
    if isinstance(part, bool):
        part = int(part)
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, str):
        return b"s" + part.encode("utf-8") + b"\x00"
    raise TypeError(f"unsupported substream key part: {part!r}")


def stream_key(seed: int, *parts) -> tuple:
    """128-bit Philox key derived from the seed and key parts."""
    h = hashlib.blake2b(digest_size=16)
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for part in parts:
        h.update(_encode(part))
    digest = h.digest()
    return (
        int.from_bytes(digest[:8], "little") & _MASK64,
        int.from_bytes(digest[8:], "little") & _MASK64,
    )


class Substream:
    """One keyed stream drawn through the shared Philox."""

    __slots__ = ("_state", "__weakref__")

    def __init__(self, key: tuple):
        if (key[0] >> 63) != (key[1] >> 63):
            # numpy's tuple conversion goes through float64 here; the other
            # cases convert exactly, so the ints are used as they are.
            key = tuple(np.asarray(key).astype(np.uint64).tolist())
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": key},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _shared(self) -> np.random.Generator:
        """The shared generator, holding this stream's state."""
        global _owner
        holder = _owner() if _owner is not None else None
        if holder is not self:
            if holder is not None:
                holder._state = _PHILOX.state
            _PHILOX.state = self._state
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
        self.seed = int(seed)
        self.parts = parts
        self._generator = None

    def child(self, *parts) -> "Stream":
        return Stream(self.seed, *self.parts, *parts)

    def generator(self) -> Substream:
        """The stream's substream, built on the first call."""
        if self._generator is None:
            self._generator = substream(self.seed, *self.parts)
        return self._generator

    def random(self, size=None):
        return self.generator().random(size)

    def integers(self, high):
        return self.generator().integers(high)

    def permutation(self, n):
        return self.generator().permutation(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(seed={self.seed}, parts={self.parts!r})"
