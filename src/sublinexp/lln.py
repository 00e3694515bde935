"""Law-of-large-numbers machinery.

Truncated upper/lower means, the three-condition convergence report,
the maximal-distribution limit value, horizon sweeps of the robust DP
against that limit, and the explicit Chebyshev-style tail bound.  Sets and
truncated families share one scan of the one-step expectations, :func:`_scan`.

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

from .ambiguity import AmbiguitySet, linear_expect
from .counterexamples import ParametricFamily, check_truncation
from .errors import InputError, check_horizon
from .functions import TestFunction, _real, blocks, column
from .lattice_dp import DEFAULT_STATE_BUDGET, PathEvent, capacity, upper_value

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
    """Lower and upper means of X clamped to [-n, n]: row n of :func:`peng_condition_report`."""
    check_horizon(n, "BAD_LEVEL", "truncation level")
    [([upper], [lower])] = _scan(source, [n], ("clamp",))
    return TruncatedMeans(n, lower, upper)


def _scan(source: Source, ns: Sequence[int], kinds: Sequence[str]) -> List[Tuple[list, list]]:
    """Per kind, each row's entries at its first argmax and argmin over the generators of
    ``column(kind, ns)``, as :func:`~sublinexp.ambiguity.sublinear_expect` picks them.  A block
    of rows builds one (rows x generators) table per kind: a family's per-index expectations,
    its truncation checked once (at one row the earlier kind's first), or a set's ``linear_expect``."""
    family = isinstance(source, ParametricFamily)
    out: List[Tuple[list, list]] = [([], []) for _ in kinds]
    for block in blocks(ns, source.truncation if family else max(map(len, source.coords))):
        fs = [column(kind, block) for kind in kinds]
        if family:
            tables = [source.per_index_expectations(f) for f in fs]
            check_truncation(source, *zip(fs, tables))
        else:
            tables = [np.array([linear_expect(g, f) for g in source.generators]).T for f in fs]
        rows = np.arange(len(block))
        for (sups, infs), table in zip(out, tables):
            sups += table[rows, table.argmax(1)].tolist()
            infs += table[rows, table.argmin(1)].tolist()
    return out


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

    The truncated means and E[psi_n] are one :func:`_scan` of the rows, so row n's
    means are :func:`truncated_means` at n bitwise; the tail suprema are exact.
    The condition-(i) verdict is a trend over the computed range only.
    Truncated-mean limits are reported when the last three values agree
    within 1e-9 ("detected stable"); heavy-tailed families never get a
    false stable flag at that tolerance.
    """
    check_horizon(n_max, "BAD_LEVEL", "n_max", least=2)
    ns = range(1, n_max + 1)
    (uppers, lowers), (psi_sups, _) = _scan(source, ns, ("clamp", "psi"))
    if isinstance(source, ParametricFamily):  # each tail sup with its first attaining index
        pairs = [p for block in blocks(ns, source.truncation) for p in source.tail_capacity_fraction(block)]
        tails = [tail for tail, _ in pairs]
        warnings = [f"FAMILY_TRUNCATION_WARNING: tail sup at n={n} limited by truncation"
                    for n, (_, arg) in zip(ns, pairs) if source.truncation_binding_for_tail(n, arg)]
    else:
        tails, warnings = _tail_capacities(source, ns), []
    nv = [float(n * tail) for n, tail in zip(ns, tails)]
    rows = [ConditionRow(*row) for row in zip(ns, nv, psi_sups, lowers, uppers)]
    verdict = "satisfied" if max(nv) == 0.0 or nv[-1] <= 0.5 * max(nv) else "violated"
    trend = f"condition (i) {verdict} (observed over n <= {n_max})"
    mu_upper, mu_lower = (v[-1] if max(v[-3:]) - min(v[-3:]) <= STABLE_TOL else None for v in (uppers, lowers))
    return ConditionReport(rows, trend, mu_upper, mu_lower, source.describe(), tuple(warnings))


# -- maximal distribution and sweeps -----------------------------------


def maximal_dist_value(f: TestFunction, mu_lower: float, mu_upper: float) -> float:
    """Exact max of f over [mu_lower, mu_upper] (endpoints plus interior knots)."""
    lo, hi = (_real(mu, "interval bound", "BAD_INTERVAL") for mu in (mu_lower, mu_upper))
    if not lo <= hi:  # NaN too
        raise InputError("BAD_INTERVAL", f"[{mu_lower}, {mu_upper}] is empty")
    if not f.bounded:
        raise InputError("UNBOUNDED_F", f"{f.describe()} is not a bounded kind")
    candidates = [lo, hi] + [x for x in f.knots() if lo < x < hi]
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
    if not (eps := _real(eps, "eps", "BAD_EPS")) > 0:  # NaN too
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
