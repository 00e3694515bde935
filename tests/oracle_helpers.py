"""Helpers that only the tests read: closed forms and algebra the suites check against.

The package computes none of these; they are kept here, next to the tests that
use them, as independent references and property-test tools.
"""

import math
import os
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from sublinexp.ambiguity import AmbiguitySet
from sublinexp.counterexamples import ParametricFamily
from sublinexp.errors import InputError
from sublinexp.functions import TestFunction, psi_fn
from sublinexp.lattice_dp import KernelPolicy, PathEvent, capacity
from sublinexp.reports import _atomic_write

# -- the tail surrogate ------------------------------------------------


def psi(n: int, x):
    """Closed form n * min(1, max(0, |x| - (n - 1))).

    Equals the supremum over y of ``n * [|y| >= n] - n * |y - x|`` and is
    sandwiched between ``n * [|x| >= n]`` and ``n * [|x| >= n - 1]``.
    """
    try:
        f = psi_fn(n)
    except InputError as e:
        raise InputError("BAD_LEVEL", e.message) from None
    return f(x)


def psi_grid_sup(n: int, x, y_step: float = 1e-3, y_pad: float = 1.5):
    """The defining supremum restricted to a y-grid of spacing ``y_step``.

    Only y within ``y_pad`` of x can beat the trivial candidate y = x, so
    the grid maximum reduces to two candidates: the nearest grid point to
    x itself and the nearest grid point with |y| >= n.  Both are located
    in closed form; the result is exactly the maximum a literal scan of
    the grid would return (cross-checked by brute force in the tests).
    """
    x = np.asarray(x, dtype=float)
    # candidate 1: grid point nearest x (indicator almost surely 0 there)
    y_near = np.round(x / y_step) * y_step
    val_near = n * (np.abs(y_near) >= n) - n * np.abs(y_near - x)
    # candidate 2: nearest grid point inside {|y| >= n}
    up = np.ceil(n / y_step) * y_step  # smallest grid y >= n
    y_tail = np.where(x >= 0, np.maximum(y_near, up), np.minimum(y_near, -up))
    val_tail = n - n * np.abs(y_tail - x)
    out = np.maximum(val_near, val_tail)
    return out if out.ndim else float(out)


# -- hand-written policies ----------------------------------------------


def hand_policy(n: int, entries: Mapping[Tuple[int, int], int]) -> KernelPolicy:
    """``KernelPolicy(n, levels)`` designating ``entries[(level, state)]`` at each key, -1 elsewhere,
    in the smallest signed dtype that holds the indices, as the engine's own policies are."""
    dtype = np.min_scalar_type(-max(entries.values(), default=0) - 1)
    per_level = [{} for _ in range(n)]
    for (k, state), g in entries.items():
        per_level[k - 1][state] = g
    levels = []
    for states in per_level:
        lo = min(states, default=0)
        choice = np.full(max(states, default=lo - 1) - lo + 1, -1, dtype=dtype)
        choice[[state - lo for state in states]] = list(states.values())
        levels.append((lo, choice))
    return KernelPolicy(n, tuple(levels))


def designated(policy: KernelPolicy) -> Dict[Tuple[int, int], int]:
    """``{(level, state): generator}`` at every state ``policy`` designates a generator."""
    return {
        (k, lo + policy.step * int(i)): int(choice[i])
        for k, (lo, choice) in enumerate(policy.levels, start=1)
        for i in np.flatnonzero(choice >= 0)
    }


# -- piecewise-linear algebra (used heavily by the property suites) ----


def _as_pwl_values(f: TestFunction, xs: Sequence[float]) -> np.ndarray:
    return np.asarray(f(np.asarray(xs, dtype=float)))


def pwl_add(f: TestFunction, g: TestFunction) -> TestFunction:
    """Sum of two piecewise-linear functions, again piecewise-linear."""
    if f.kind != "pwl" or g.kind != "pwl":
        raise InputError("BAD_FUNCTION", "pwl_add needs two piecewise-linear functions")
    xs = sorted(set(f.params[0]) | set(g.params[0]))
    ys = _as_pwl_values(f, xs) + _as_pwl_values(g, xs)
    return TestFunction("pwl", (tuple(xs), tuple(float(y) for y in ys)))


def pwl_scale(f: TestFunction, lam: float) -> TestFunction:
    """lam * f for a piecewise-linear f."""
    if f.kind != "pwl":
        raise InputError("BAD_FUNCTION", "pwl_scale needs a piecewise-linear function")
    xs, ys = f.params
    return TestFunction("pwl", (xs, tuple(float(lam * y) for y in ys)))


def pwl_negate(f: TestFunction) -> TestFunction:
    xs, ys = f.params
    return TestFunction("pwl", (xs, tuple(float(-y) for y in ys)))


# -- bounds and lower expectations -------------------------------------


def exponential_lower_bound(set_: AmbiguitySet, n: int, threshold: float) -> float:
    """1 - exp(-n V(|X_1| >= t)), a lower bound for the product identity rhs."""
    single = capacity(set_, 1, PathEvent("FINAL_ABS_GE", threshold), "UPPER")
    return 1.0 - math.exp(-n * single)


def family_lower_expect(family: ParametricFamily, f: TestFunction) -> float:
    """Lower expectation inf over indices <= truncation of E_j[f]."""
    return float(np.min(family.per_index_expectations(f)))


# -- report writing ----------------------------------------------------


def atomic_write_text(path, text: str) -> None:
    _atomic_write([os.fspath(path)], [text.encode("utf-8")])
