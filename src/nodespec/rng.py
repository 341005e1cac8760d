"""Pinned pseudo-random primitives for cross-platform reproducible splits.

Data splits must be identical across runs, platforms, and reimplementations,
so they cannot depend on numpy's generator internals. The split stream is a
SplitMix64 sequence (Steele, Lea & Flood, "Fast Splittable Pseudorandom
Number Generators", OOPSLA 2014) feeding a downward Fisher-Yates shuffle;
both algorithms are short enough to pin here exactly.

SplitMix64 is counter-based: its state after k steps is ``seed + k * gamma``
mod 2**64 and output k is a fixed mixing function of that state alone. So
the stream is evaluated in closed form as one uint64 array, and wrapping
uint64 array arithmetic is exactly the mod-2**64 arithmetic of the sequential
definition: the outputs are the same numbers, in the same order. Only the
Fisher-Yates swaps stay sequential, since each reads what earlier ones moved.
"""

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of the SplitMix64 stream seeded with
    ``seed`` (taken mod 2**64), as a uint64 array.

    Every operation is on arrays, which wrap mod 2**64 without a warning;
    numpy warns when a uint64 *scalar* wraps.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(operator.index(seed) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def permutation(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) driven by a SplitMix64 stream.

    For i = n-1 down to 1, the next draw picks j = draw % (i + 1) and swaps
    items i and j. The modulo bias is below 2**-40 for any n under 2**24,
    which is negligible for node counts; the simple rule is what keeps the
    shuffle reproducible across implementations.
    """
    draws = splitmix64(seed, max(n - 1, 0))
    picks = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), picks):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)
