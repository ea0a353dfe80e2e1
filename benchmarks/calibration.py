"""Machine-speed calibration: a fixed unit of work timed next to every slice
of measured work.

On a shared host the CPU this benchmark runs on slows down by up to 2x for
seconds at a time, whatever the benchmark does.  Every time the benchmark
reports is therefore scaled by REFERENCE_NS / (time of the calibration unit
measured around it): a time is reported as it would be on a machine that
runs the calibration unit in exactly REFERENCE_NS.  The unit uses only the
standard library and numpy, never the package under test, so no change to
the package can move it.  Its two halves mirror the two kinds of work the
package does: exact Fraction arithmetic in the interpreter, and dense
complex SVDs in LAPACK.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

# One unit on an undisturbed 2-core Intel Xeon VM (Python 3.11.7, numpy
# 2.4.6, one OpenBLAS thread); any constant works, this one keeps reported
# figures close to the raw figures of that machine.
REFERENCE_NS = 3_600_000

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def _unit() -> int:
    start = perf_counter_ns()
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        f = Fraction(i, 64) - Fraction(i % 7, 3)
        acc += f if f > 0 else -f
        table[i % 97] = sorted((acc, f, Fraction(1, i)))
    np.linalg.svd(_MATRIX)
    return perf_counter_ns() - start


def calibrate(reps: int = 3) -> int:
    """Median time of ``reps`` calibration units, in ns."""
    return statistics.median(_unit() for _ in range(reps))

