"""The dense-hull sweeps, kept as the reference for the frame of ``lattice_dp``.

Here level k stores the whole hull [k min, k max] of the sums of k moves, every
integer state of it, widened under ``hold_zero`` to hold the state where
S_k = 0, and each sweep steps the set's own coordinates.  The package stores
only the moves' own progression k a + d j.  ``tests/test_hull_reference.py``
checks that every sweep entry point gives the same floats on both, and the
same generator at every reachable state.  The sweeps run on the all-numpy
reference kernel of ``tests/kernel_reference.py``, and a lower capacity on its
``np.less`` rule, where the package negates an upper sweep.
"""

import math

import numpy as np

from sublinexp import AmbiguitySet, DiscreteDistribution, LatticeSpec
from sublinexp.counterexamples import RAMP_DOWN
from sublinexp.lattice_dp import _event_hit, _terminal_values, _weights

from kernel_reference import _sweep


def _move_bounds(minc, maxc, n):
    """(lo_k, length_k) of the sums of k moves in [minc, maxc], for k = 0..n."""
    return [(k * minc, k * (maxc - minc) + 1) for k in range(n + 1)]


def level_bounds(set_, n, hold_zero=False):
    """The hull of each level k = 0..n, which ``hold_zero`` widens by the move
    ``-origin`` to hold state ``-k * origin``, where S_k = 0."""
    minc, maxc = min(map(min, set_.coords)), max(map(max, set_.coords))
    if hold_zero:
        minc, maxc = min(minc, -set_.lattice.origin), max(maxc, -set_.lattice.origin)
    return _move_bounds(minc, maxc, n)


def _terminal(set_, n, f, normalize):
    bounds = level_bounds(set_, n)
    lo, length = bounds[n]
    return bounds, _terminal_values(set_, n, f, normalize, np.arange(lo, lo + length))


def upper_value(set_, n, f, normalize=True):
    bounds, u = _terminal(set_, n, f, normalize)
    return _sweep(set_.coords, _weights(set_), bounds, u)


def robust_records(set_, n, f, normalize=True):
    """``(value, bounds, records)``: the argmax at every hull state of levels 0..n - 1."""
    bounds, u = _terminal(set_, n, f, normalize)
    records = [np.zeros(length, np.min_scalar_type(-len(set_.generators))) for _, length in bounds[:n]]
    value = _sweep(set_.coords, _weights(set_), bounds, u, record=records)
    return value, bounds, records


def policy_value(set_, policy, n, f, normalize=True):
    """The fixed-policy sweep reading ``policy`` at every hull state; no gap test."""
    bounds, u = _terminal(set_, n, f, normalize)
    rule = [policy.level_choices(k, *bounds[k - 1]) for k in range(1, n + 1)]
    return _sweep(set_.coords, _weights(set_), bounds, u, rule)


def _final(set_, n, hit, better, from_index, hold_zero=False):
    h = n - from_index
    bounds, origin = level_bounds(set_, h, hold_zero), set_.lattice.origin
    lo, length = bounds[h]
    u = hit(np.arange(lo, lo + length) + h * origin).astype(float)
    at_zero = []

    def visit(k, values):
        at_zero.append(float(values[-k * origin - bounds[k][0]]))

    value = _sweep(set_.coords, _weights(set_), bounds, u, better, visit=visit if hold_zero else None)
    still = tuple((0,) * len(gc) for gc in set_.coords)
    value = _sweep(still, _weights(set_), [(0, 1)] * (from_index + 1), np.array([value]), better)
    return at_zero if hold_zero else value


def capacity(set_, n, event, side="UPPER"):
    better = np.greater if side == "UPPER" else np.less
    origin, step = set_.lattice.origin, set_.lattice.step
    if event.kind == "MAX_PARTIAL_ABS_GE":
        bounds = level_bounds(set_, n)
        ceil_t = math.ceil(event.threshold / step)
        for k in range(1, n + 1):
            lo, length = bounds[k]
            a, b = max(lo, 1 - ceil_t - k * origin), min(lo + length, ceil_t - k * origin)
            bounds[k] = (a, max(0, b - a))
        moves = set_.coords
    elif event.kind == "MAX_INCREMENT_ABS_GE":
        bounds = [(0, 1)] * (n + 1)
        hit = _event_hit(event.kind, event.threshold, step)
        moves = tuple(tuple(int(hit(c + origin)) for c in gc) for gc in set_.coords)
    else:
        hit = _event_hit(event.kind, event.threshold, step)
        return _final(set_, n, hit, better, event.from_index or 0)
    return _sweep(moves, _weights(set_), bounds, np.zeros(bounds[n][1]), better, absorb=1.0)


def final_abs_capacities(set_, n, t):
    hit = _event_hit("FINAL_ABS_GE", t, set_.lattice.step)
    return _final(set_, n, hit, np.greater, 0, hold_zero=True)


def heavy_lln_value(K, n):
    """The K-truncated HEAVY family as a set, every generator swept on the hull, with
    the weights 1 - 1/k and 1/k that ``heavy_lln_value`` uses."""
    gens = tuple(DiscreteDistribution((0, k), (1.0 - 1.0 / k, 1.0 / k)) for k in range(1, K + 1))
    return upper_value(AmbiguitySet(LatticeSpec(1), gens), n, RAMP_DOWN)
