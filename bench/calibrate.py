"""A fixed reference computation that measures how fast the machine is now.

On a shared host the same command sequence runs 30-50 % slower for minutes
at a time. `reference_s` times a fixed computation shaped like densop's
hot path that does not call densop: a kernel cross matrix (a thin BLAS
product into a large block, squared in place and reduced against a weight
vector), then many small array operations bound by the interpreter. A
workload's time divided by it cancels most of the machine's current speed.
"""

from __future__ import annotations

import time

import numpy as np

_D, _BLOCK, _COLS = 14, 256, 16385
_SMALL_OPS = 600
# Runs of the computation per timing, about 0.5 s on a 2-core Xeon.
REPEATS = 30


def _work(left, right, weights, cross, out) -> None:
    np.matmul(left, right, out=cross)
    np.multiply(cross, cross, out=cross)
    np.matmul(cross, weights, out=out)
    small = out[:_D]
    for _ in range(_SMALL_OPS):
        np.clip(small * 0.5 + 1.0, 0.0, 2.0).sum()


def reference_s(repeats: int = REPEATS) -> float:
    """Wall seconds of `repeats` runs of the reference computation.

    The buffers are made, touched by one untimed run and freed on every
    call, so the timing has no page faults and the caller's peak RSS only
    rises if the 34 MB block exceeds what the caller itself holds.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    args = (rng.standard_normal((_BLOCK, _D)),
            rng.standard_normal((_D, _COLS)), rng.random(_COLS),
            np.empty((_BLOCK, _COLS)), np.empty(_BLOCK))
    _work(*args)
    start = time.perf_counter()
    for _ in range(repeats):
        _work(*args)
    return time.perf_counter() - start
