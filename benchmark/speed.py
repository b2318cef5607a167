"""Machine-speed reference used to normalize every timing the benchmark reports.

Shared hosts change the speed of a core by up to 1.7x for seconds at a time,
for all code alike: on one 2-vCPU host, back-to-back runs of identical work
spread 30% between their quartiles, while their ratio to this reference
spread 10%.  So the benchmark times a fixed reference loop, which never calls
momentkit, at least every ``CALIBRATE_EVERY`` seconds of measurement.  It
multiplies each timing by ``NOMINAL_S`` over the mean of the two reference
times that bracket it.  A reported time therefore reads as the time at the
speed where the reference takes ``NOMINAL_S``.  A change to momentkit cannot
move the reference, so it moves the normalized time just as it moves the raw
one.  The report line keeps the raw figures too.

Set-up time is mostly exec, imports and file reads, which that loop does not
track.  It is normalized instead by ``START_REFERENCE``, a fresh interpreter
that only imports numpy, timed alternately with the set-up probe: set-up
reads as the time at the speed where that start-up takes ``NOMINAL_START_S``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

NOMINAL_S = 0.002
NOMINAL_START_S = 0.2
START_REFERENCE = (sys.executable, "-c", "import numpy")
CALIBRATE_EVERY = 0.5
_ITERATIONS = 3000


def _loop() -> float:
    """Interpreted arithmetic, numpy scalar indexing and small vector ops:
    the mix the Jacobi and simplex kernels spend their time in."""
    a = np.arange(16.0)
    b = np.ones((8, 8))
    x = 0.0
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        x += a[i & 15] * 0.5 - x * 1e-3
        if i % 50 == 0:
            b[i & 7] = b[i & 7] * 0.999 + a[:8] * 1e-3
            x += float(b.sum(axis=0) @ a[:8])
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Time of the reference loop: the fastest of three runs, which drops a
    run hit by an interrupt."""
    return min(_loop() for _ in range(3))
