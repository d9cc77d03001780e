"""In-run speed calibration: how slow was this box *while* the run ran?

The 2-core sizing box is a shared VM whose speed drifts by 10-45 % for
tens of seconds to minutes at a time (a fixed pure-Python loop, alone on
the box: 20-second means 51-63 ms, minimum a steady 41 ms; see README).
Ten runs of the same code therefore spread by 10-27 % on every wall-clock
metric, whatever is measured, and one more repetition per run does not
help because a whole run sits inside one slow spell.

So every child interleaves a fixed reference computation -- ``chunk()``
below: interpreter loop, ``Fraction`` arithmetic, dict traffic, a small
``numpy`` product, nothing from ``src/`` -- with its operations, spending
about 7 % of each operation's time on it.  The run's ``speed_index`` is
the mean chunk time over ``NOMINAL_CHUNK_S`` (1.0 = the sizing box with
an idle host; 1.3 = everything took 30 % longer).  The time-valued
end-to-end metrics are divided by it ("calibrated seconds"); per-layer
numbers stay as measured, and ``harness.speed_index`` is printed beside
them, so ``measured = calibrated x speed_index`` can always be undone.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

__all__ = ["NOMINAL_CHUNK_S", "Calibrator"]

#: ``chunk()`` on the sizing box at its fastest (minimum of 1 500 chunks)
NOMINAL_CHUNK_S = 0.0066

_A = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)


def chunk() -> float:
    """One unit of reference work; returns its wall time."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(40_000):
        total += i * i % 7
        table[i & 255] = total
    f = Fraction(1, 3)
    for i in range(1_000):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, 7)
    for _ in range(30):
        (_A @ _A).sum()
    return time.perf_counter() - t0


class Calibrator:
    """Accumulates reference chunks taken between the run's operations."""

    #: share of each operation's duration spent calibrating after it
    SHARE = 0.07

    def __init__(self) -> None:
        self.seconds = 0.0
        self.chunks = 0

    def after(self, op_seconds: float) -> None:
        """Calibrate for ``SHARE`` of an operation that took ``op_seconds``
        (at least one chunk)."""
        budget = self.SHARE * op_seconds
        spent = 0.0
        while True:
            dt = chunk()
            spent += dt
            self.chunks += 1
            if spent >= budget:
                break
        self.seconds += spent

    @property
    def speed_index(self) -> float:
        return self.seconds / (self.chunks * NOMINAL_CHUNK_S)
