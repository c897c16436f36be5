"""A fixed calibration kernel, timed between operations, that takes the
host's speed out of the time metrics.

The host is shared, and its speed follows the load of other machines: the
same operation runs up to twice as slow from one minute to the next, and the
kernel below slows with it.  The kernel is the benchmark's own code and never
calls ``cvsquash``, so a change to the package moves the operations' times
and leaves the kernel's alone.  Every time metric is reported at the
reference speed, the speed at which the kernel takes ``REFERENCE_S``:

    reported time = measured time * REFERENCE_S / kernel time measured alongside

The kernel comes in three parts, and a workload times the parts that look
most like its own work (``Workload.CALIBRATION``): scalar Python, small
numpy arrays, and dense LAPACK on a 320 x 320 matrix.  The host's speed
changes within a second, so each operation is scaled by the few samples
taken nearest to it.
"""

import bisect
import math
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20111011)
_SMALL = _RNG.standard_normal((6, 6))
_SMALL = _SMALL @ _SMALL.T
_MEDIUM = _RNG.standard_normal((48, 48))
_MEDIUM = _MEDIUM + _MEDIUM.T
_LARGE = _RNG.standard_normal((320, 320))
_LARGE = _LARGE + _LARGE.T


def _python():
    x = 0.0
    table = {}
    for i in range(2000):
        x += math.sin(i * 1e-3) * 1.0001
        table[i & 63] = x
    return x


def _numpy():
    for _ in range(20):
        np.linalg.eigvalsh(_SMALL)
    return np.linalg.eigh(_MEDIUM)


def _lapack():
    np.linalg.eigvalsh(_LARGE)
    return _LARGE @ _LARGE


PARTS = {"python": _python, "numpy": _numpy, "lapack": _lapack}

#: seconds each part takes at the reference speed, about its median on the
#: machine described in README.md with one BLAS thread; a fixed unit, never
#: re-measured, so that figures from different runs compare
REFERENCE_S = {"python": 3.0e-4, "numpy": 5.0e-4, "lapack": 7.0e-3}

#: least seconds between two samples of the kernel during the timed phase
INTERVAL = 0.02
#: the samples nearest in time to an operation that scale its time
NEAREST = 3


class Speedometer:
    """Samples of the kernel's time, and the scale they give to the times of
    operations measured alongside them."""

    def __init__(self, parts):
        self.parts = [PARTS[name] for name in parts]
        self.reference = sum(REFERENCE_S[name] for name in parts)
        self.at = []
        self.took = []

    def sample(self):
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def since_last(self):
        return time.perf_counter() - self.at[-1] if self.at else math.inf

    def scale(self, start=None, end=None):
        """Reference over measured kernel time: the median over the NEAREST
        samples to the middle of [start, end], or over all samples."""
        if start is None:
            return self.reference / statistics.median(self.took)
        middle = 0.5 * (start + end)
        i = bisect.bisect(self.at, middle)
        near = range(max(i - NEAREST, 0), min(i + NEAREST, len(self.at)))
        near = sorted(near, key=lambda j: abs(self.at[j] - middle))[:NEAREST]
        return self.reference / statistics.median(self.took[j] for j in near)
