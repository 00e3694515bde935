"""Law-of-large-numbers machinery.

Truncated upper/lower means, the three-condition convergence report,
the maximal-distribution limit value, horizon sweeps of the robust DP
against that limit, and the explicit Chebyshev-style tail bound.

Verdicts about limits are always labeled as trends observed over the
computed range; limits are not computable from finitely many terms and
no asymptotic claim is ever made beyond the range.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .ambiguity import AmbiguitySet, linear_expect, sublinear_expect
from .counterexamples import ParametricFamily, check_truncation, family_expect
from .errors import InputError, check_horizon
from .functions import TestFunction, clamp, column
from .lattice_dp import DEFAULT_STATE_BUDGET, PathEvent, capacity, upper_value
from .montecarlo import _BLOCK_DRAWS

Source = Union[AmbiguitySet, ParametricFamily]

STABLE_TOL = 1e-9


# -- truncated means ---------------------------------------------------


@dataclass(frozen=True)
class TruncatedMeans:
    """Upper/lower expectations of X clamped to [-n, n]."""

    n: int
    mu_lower: float
    mu_upper: float


def truncated_means(source: Source, n: int) -> TruncatedMeans:
    check_horizon(n, "BAD_LEVEL", "truncation level")
    f = clamp(n)
    if isinstance(source, ParametricFamily):
        values = source.per_index_expectations(f)
        upper = family_expect(source, f, values).value
        lower = float(np.min(values))
    else:
        sv = sublinear_expect(source, f)
        upper, lower = sv.upper, sv.lower
    return TruncatedMeans(n, lower, upper)


def _tail_capacities(set_: AmbiguitySet, ns: Sequence[int]) -> List[Fraction]:
    """V(|X_1| >= n) for each of ``ns``, exact rationals of the float weights: per
    generator one pass over its atoms by increasing |x| for the suffix sums of their
    weights, then one bisect per n."""
    best = [Fraction(0)] * len(ns)
    for g in set_.generators:
        atoms = sorted(zip(map(abs, g.points), g.weights))
        suffix = list(accumulate((Fraction(w) for _, w in reversed(atoms)), initial=Fraction(0)))[::-1]
        mags = [x for x, _ in atoms]
        best = [max(b, suffix[bisect.bisect_left(mags, n)]) for b, n in zip(best, ns)]
    return best


def _extremes(tables: np.ndarray):
    """Per column of the ``(generators, rows)`` ``tables``, its entries at the first
    argmax and the first argmin, as :func:`sublinear_expect` picks them."""
    cols = np.arange(tables.shape[1])
    return tables[tables.argmax(0), cols].tolist(), tables[tables.argmin(0), cols].tolist()


# -- the three-condition report ----------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    n: int
    nV_tail: float
    psi_expect: float
    mu_lower_n: float
    mu_upper_n: float


@dataclass(frozen=True)
class ConditionReport:
    rows: List[ConditionRow]
    condition_i_trend: str
    mu_upper_limit: Optional[float]
    mu_lower_limit: Optional[float]
    source_description: str
    warnings: Tuple[str, ...] = field(default=())


def peng_condition_report(source: Source, n_max: int) -> ConditionReport:
    """Tabulate the three convergence conditions for n = 1..n_max.

    The condition-(i) verdict is a trend over the computed range only.
    Truncated-mean limits are reported when the last three values agree
    within 1e-9 ("detected stable"); heavy-tailed families never get a
    false stable flag at that tolerance.
    """
    check_horizon(n_max, "BAD_LEVEL", "n_max", least=2)
    warnings: List[str] = []
    rows: List[ConditionRow] = []
    if isinstance(source, ParametricFamily):
        for ns in source.blocks(range(1, n_max + 1)):
            tables = [(f, source.per_index_expectations(f)) for f in (column("clamp", ns), column("psi", ns))]
            check_truncation(source, *tables)  # at one n the clamp first
            uppers, psi_sups = (family_expect(source, *table).value for table in tables)
            cells = zip(psi_sups, tables[0][1].min(axis=1).tolist(), uppers)
            for n, (tail, arg), row in zip(ns, source.tail_capacity_fraction(ns), cells):
                if source.truncation_binding_for_tail(n, arg):
                    warnings.append(f"FAMILY_TRUNCATION_WARNING: tail sup at n={n} limited by truncation")
                rows.append(ConditionRow(n, float(n * tail), *row))
    else:  # one clamp and one psi table per generator and block of rows, each scanned once
        tails = _tail_capacities(source, range(1, n_max + 1))
        step = max(1, _BLOCK_DRAWS // max(map(len, source.coords)))
        for lo in range(1, n_max + 1, step):
            ns = range(lo, min(lo + step, n_max + 1))
            clamps, psis = (np.stack([linear_expect(g, column(kind, ns)) for g in source.generators])
                            for kind in ("clamp", "psi"))
            (uppers, lowers), (psi_sups, _) = _extremes(clamps), _extremes(psis)
            for n, *row in zip(ns, psi_sups, lowers, uppers):
                rows.append(ConditionRow(n, float(n * tails[n - 1]), *row))
    nv = np.array([r.nV_tail for r in rows])
    peak = float(np.max(nv))
    if peak == 0.0 or nv[-1] <= 0.5 * peak:
        verdict = "satisfied"
    else:
        verdict = "violated"
    trend = f"condition (i) {verdict} (observed over n <= {n_max})"
    uppers = [r.mu_upper_n for r in rows[-3:]]
    lowers = [r.mu_lower_n for r in rows[-3:]]
    mu_upper = uppers[-1] if max(uppers) - min(uppers) <= STABLE_TOL else None
    mu_lower = lowers[-1] if max(lowers) - min(lowers) <= STABLE_TOL else None
    desc = source.describe()
    return ConditionReport(rows, trend, mu_upper, mu_lower, desc, tuple(warnings))


# -- maximal distribution and sweeps -----------------------------------


def maximal_dist_value(f: TestFunction, mu_lower: float, mu_upper: float) -> float:
    """Exact max of f over [mu_lower, mu_upper] (endpoints plus interior knots)."""
    if mu_lower > mu_upper:
        raise InputError("BAD_INTERVAL", f"[{mu_lower}, {mu_upper}] is empty")
    if not f.bounded:
        raise InputError("UNBOUNDED_F", f"{f.describe()} is not a bounded kind")
    candidates = [mu_lower, mu_upper]
    candidates += [x for x in f.knots() if mu_lower < x < mu_upper]
    return float(max(float(f(x)) for x in candidates))


@dataclass(frozen=True)
class SweepRow:
    n: int
    dp_value: float
    limit_value: float
    abs_error: float


@dataclass(frozen=True)
class SweepReport:
    rows: List[SweepRow]
    set_description: str
    function_description: str


def lln_sweep(
    set_: AmbiguitySet,
    f: TestFunction,
    horizons: Sequence[int],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SweepReport:
    """Robust DP value vs. maximal-distribution prediction per horizon."""
    rows = []
    for n in horizons:
        dp = upper_value(set_, n, f, state_budget=state_budget)
        tm = truncated_means(set_, n)
        limit = maximal_dist_value(f, tm.mu_lower, tm.mu_upper)
        rows.append(SweepRow(int(n), dp, limit, abs(dp - limit)))
    return SweepReport(rows, set_.describe(), f.describe())


# -- the explicit tail bound from the truncation argument --------------


@dataclass(frozen=True)
class ChebyshevCheck:
    lhs: float
    rhs: float
    holds: bool


def chebyshev_bound_check(
    set_: AmbiguitySet,
    n: int,
    eps: float,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ChebyshevCheck:
    """V(S_n/n > mu_upper_n + eps) against n*V(|X_1|>=n) + 8/(n eps^2) E[X~^2].

    X~ is the coordinate clamped to [-n, n]; E[] is the upper
    expectation of its square over the generators.
    """
    check_horizon(n)
    if not eps > 0:  # NaN too
        raise InputError("BAD_EPS", "eps must be positive")
    mu_upper = truncated_means(set_, n).mu_upper
    event = PathEvent("FINAL_GT", n * (mu_upper + eps))
    lhs = capacity(set_, n, event, "UPPER", state_budget=state_budget)
    (tail,) = _tail_capacities(set_, [n])
    clamped_sq = max(
        float(np.add.reduce(np.minimum(np.abs(g.point_array), n) ** 2 * g.weight_array))
        for g in set_.generators
    )
    # n eps^2 underflows to 0 for eps below about 1e-162; just above, 8 / (n eps^2) is +inf.
    # An all-zero clamped square adds 0 whatever eps is, not inf * 0 = NaN.
    spread = n * eps * eps
    factor = 8.0 / spread if spread else math.inf
    rhs = float(n * tail) + (factor * clamped_sq if clamped_sq else 0.0)
    return ChebyshevCheck(lhs, rhs, lhs <= rhs + 1e-12)
