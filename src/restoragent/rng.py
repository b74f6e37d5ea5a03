"""Hierarchical, collision-resistant random substreams.

One root seed plus an arbitrary tuple of key parts (ints, strings, enums)
deterministically selects an independent Philox stream.  Streams keyed
differently never share draws, so adding trials or interleaving workers
cannot perturb existing streams.

A ``Stream`` is a lazy handle: it builds its Philox generator on its first
draw and ``generator()`` returns that same generator on every later call, so
streams that are keyed but never drawn from cost no key derivation at all.
"""

from __future__ import annotations

import enum
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


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


def substream(seed: int, *parts) -> np.random.Generator:
    """Independent generator for (seed, parts)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *parts)))


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

    def generator(self) -> np.random.Generator:
        """The stream's generator, built on the first call."""
        if self._generator is None:
            self._generator = substream(self.seed, *self.parts)
        return self._generator

    def random(self) -> float:
        return self.generator().random()

    def integers(self, high):
        return self.generator().integers(high)

    def permutation(self, n):
        return self.generator().permutation(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(seed={self.seed}, parts={self.parts!r})"
