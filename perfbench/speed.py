"""A fixed reference loop that measures how fast the host runs right now.

On shared hosts the CPU's speed drifts in phases of seconds to tens of
seconds: the same op took anywhere from 1.0x to 1.8x its fastest time,
and both cores speed up and slow down together.  Per-run medians of raw
wall time then spread by ~20% across runs.  The benchmark times this loop
before and after every op and rescales the op's wall time to the speed at
which the loop takes ``NOMINAL_S``; ops and loop slow down together, so
the rescaled times spread several times less.

The loop mixes the three kinds of work qpflow's layers do, about a third
of the time each: interpreted Python with dicts and strings, many small
numpy array operations, and dense complex matrix products.  It is part of
the benchmark and must not change between the commits being compared.
"""

from __future__ import annotations

import time

import numpy as np

# the loop's median wall seconds on a 2-core Intel Xeon at 2.1 GHz with
# single-threaded OpenBLAS; any fixed value works, this one keeps the
# rescaled times close to that host's wall seconds
NOMINAL_S = 0.15

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(size=(64, 64)) + 1j * _RNG.normal(size=(64, 64))
_MATRIX /= np.linalg.norm(_MATRIX, 2)
_VECTOR = _RNG.normal(size=4096)


def reference_loop() -> float:
    """Wall seconds of one pass of the fixed mixed loop."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(45_000):
        key = format(i & 1023, "010b")
        table[key] = table.get(key, 0) + i
    x = _VECTOR.copy()
    for _ in range(4_000):
        y = x.reshape(8, 2, -1).copy()
        y[:, 0, :] = 0.995 * y[:, 1, :]
        x = y.reshape(-1) * 0.999
        np.abs(x[:64]) > 0.5
    m = np.eye(64, dtype=complex)
    for _ in range(1_000):
        m = _MATRIX @ m
    return time.perf_counter() - start


class SpeedGauge:
    """Reference-loop timings taken between ops; rescales each op's wall time."""

    def __init__(self):
        self.loops = [reference_loop()]

    def after_op(self) -> float:
        """Time the loop again; return the factor that rescales the op just run."""
        self.loops.append(reference_loop())
        return 2.0 * NOMINAL_S / (self.loops[-2] + self.loops[-1])
