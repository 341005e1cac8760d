"""Host-speed probe timed beside every timed call; times in reference seconds.

The small shared virtual machines this benchmark was sized on change speed
by a third within seconds and drift for minutes, and they slow plain Python,
BLAS and memory-bound numpy loops together. A median of raw seconds then
moves with the neighbours' load, not with the program.

So a probe of fixed work runs right before every timed call and once after
the last. A call's time is reported in reference seconds:

    measured seconds * REFERENCE_S / (mean of the probes before and after)

A host that runs everything 30% slower leaves the figure where it was. A
change to the package that does its work faster lowers it, because the
probe's work belongs to the benchmark and never changes. The probe mixes
the three kinds of work the package does: interpreter-bound Python, a
streaming pass over arrays larger than L2, and a random gather as in a
sparse product. Each part is the minimum of three repeats, so one
interrupt does not move it.
"""

import time

import numpy as np

# The probe's median time on a shared Intel Xeon vCPU at 2.1 GHz (2 MiB L2),
# so one reference second is about one second there.
REFERENCE_S = 0.0065
_REPEATS = 3

_rng = np.random.default_rng(0)
_A = _rng.random(1 << 18)      # 2 MiB each, 4 MiB together: beyond L2
_B = _rng.random(1 << 18)
_GATHER = _rng.integers(0, _A.size, 1 << 18)


def _python():
    table, total = {}, 0
    for i in range(12_000):
        table[i & 63] = total
        total += table.get((i * 7) & 63, 1)
    return total


def _stream():
    return sum(float(np.dot(_A + _B, _B)) for _ in range(4))


def _gather():
    return float(_A[_GATHER].sum() + _B[_GATHER].sum())


def probe() -> float:
    """Seconds of the probe's fixed work at the host's current speed."""
    total = 0.0
    for part in (_python, _stream, _gather):
        best = float("inf")
        for _ in range(_REPEATS):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given the probes around the call."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
