"""Host speed probe.

A 2-vCPU VM (Intel Xeon at 2.1 GHz) runs at two speeds about 1.5x apart,
in phases that last from seconds to minutes, so raw wall times of the same
work move by 10-30% between runs there.  Every timed interval is therefore
bracketed by fixed kernels, and its seconds are reported divided by the
host's slowness: the geometric mean, over the kernels, of their time
against the time they take on the nominal (fast-phase) host::

    scaled = seconds / slowness around the interval

Three kernels cover what the jobs do: a pure-Python integer loop, building
a dict of tuples, and small numpy array operations.  The import probe runs
before numpy is loaded, so it uses the first two only.  On a steady host the
slowness is a constant, so scaled times compare between commits as wall
times do.  The raw wall times are printed beside them.
"""

from __future__ import annotations

import math
import time

REPEATS = 3


def _loop():
    acc = 0
    for i in range(2000):
        acc += i * i


def _dict():
    table = {}
    for i in range(400):
        table[(i, i + 1)] = i
    return sum(table.values())


def _numpy():
    import numpy as np

    a = np.arange(500.0)
    for _ in range(40):
        np.where(a[1:] > a[:-1], a[1:], a[:-1])


# kernel -> seconds on the nominal host (fast phase of the VM above)
_NOMINAL_S = {_loop: 1.0e-4, _dict: 4.5e-5, _numpy: 1.0e-4}


def _best(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):  # best of a few filters interrupts
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def slowness(with_numpy: bool = True) -> float:
    """Host slowness now: 1.0 on the nominal host, larger when slower."""
    kernels = [k for k in _NOMINAL_S if with_numpy or k is not _numpy]
    logs = [math.log(_best(k) / _NOMINAL_S[k]) for k in kernels]
    return math.exp(sum(logs) / len(logs))
