"""Reproducible random streams.

Randomness flows through :class:`RngSpec`, a (seed, stream id) pair backed
by numpy's counter-based Philox generator.  The pair fully determines the
output, so results never depend on thread count or call interleaving;
independent sub-tasks (the four sub-run generators, per-seed Monte Carlo
repetitions, per-step shuffles) each get their own derived stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _is_count

__all__ = ["RngSpec"]

_MASK64 = (1 << 64) - 1

# Draws per block where a large array is filled in blocks, and per piece of a
# Monte-Carlo chunk (256 KiB of words): there 2**14 was slower, 2**16 held more.
_DRAW_BLOCK = 1 << 15

# Defined by the first _key_sequence call.  Its base class lives in
# numpy.random, which `import chshkit` must not load: that costs a CLI
# process 10-20 ms and about 6 MB, and `estimate` never draws.
_KeySequence = None


def _key_sequence(seed: int, stream: int):
    """Philox's seed source for the key [seed, stream], at counter 0.

    ``Philox(key=...)`` first builds a ``SeedSequence`` from OS entropy
    and then discards it; handed this instead, Philox asks it for its
    two-word key and gets exactly the same state, without that cost.
    """
    global _KeySequence
    if _KeySequence is None:
        from numpy.random.bit_generator import ISeedSequence

        class _KeySequence(ISeedSequence):
            def __init__(self, key: np.ndarray) -> None:
                self.key = key

            def generate_state(self, n_words, dtype=np.uint32):
                return self.key

            def __reduce__(self):
                # A pickled generator carries its seed source; rebuild it
                # through this module so a fresh process can load it.
                return _key_sequence, (int(self.key[0]), int(self.key[1]))

    return _KeySequence(np.array([seed, stream], dtype=np.uint64))


def _splitmix64(x: int) -> int:
    """One splitmix64 round; standard 64-bit mixing constants."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngSpec:
    """A named random stream: equal (seed, stream) means equal output.

    ``seed`` and ``stream`` must be integers (numpy's included, bools
    not); each is reduced modulo 2**64, so ``RngSpec(-1)`` is
    ``RngSpec(2**64 - 1)`` and ``RngSpec(2**64 + 5)`` is ``RngSpec(5)``.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (_is_count(self.seed) and _is_count(self.stream)):
            raise ValueError(
                f"seed and stream must be integers, got {self.seed!r} and {self.stream!r}"
            )
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def generator(self) -> np.random.Generator:
        """A fresh generator; repeated calls restart the same stream."""
        return np.random.Generator(np.random.Philox(_key_sequence(self.seed, self.stream)))

    def derive(self, index: int) -> RngSpec:
        """A child stream for sub-task ``index``, same seed.

        The child id mixes (stream, index) through splitmix64 so nested
        derivations do not collide for any realistic workload.  ``index``
        must be an integer, as ``seed`` is, and is reduced the same way.
        """
        if not _is_count(index):
            raise ValueError(f"index must be an integer, got {index!r}")
        child = object.__new__(RngSpec)
        # Both values are already reduced to 64 bits: skip __post_init__.
        object.__setattr__(child, "seed", self.seed)
        # _splitmix64 reduces its argument mod 2**64, and with it the index.
        object.__setattr__(child, "stream", _splitmix64(_splitmix64(self.stream) ^ int(index)))
        return child
