"""Countably-indexed generator families and their specialized computations.

Two families are shipped:

* ``EXM3``: index 1 is the point mass at 1; index j >= 2 puts weight
  1 - 1/j^2 on 1 and weight 1/j^3 on each of j, 2j, ..., j*j.  All
  weights are exact rationals summing to one at every index.
* ``HEAVY``: index k >= 1 puts weight 1 - 1/k on 0 and 1/k on k.  Every
  generator has mean exactly 1.

A family is always used through a finite truncation index; suprema over
the countable family are therefore certified lower bounds, with
monotonicity-based warnings when the truncation is visibly binding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .ambiguity import DiscreteDistribution
from .errors import BudgetError, InputError, check_budget, check_horizon
from .functions import TestFunction, _real, abs_excess, blocks, column, piecewise_linear, psi_fn
from .lattice_dp import DEFAULT_STATE_BUDGET, _sweep

FAMILY_NAMES = ("EXM3", "HEAVY")

#: 1 ∧ (1 - x)^+, the bounded ramp certifying the HEAVY family's LLN failure
RAMP_DOWN = piecewise_linear([(0.0, 1.0), (1.0, 0.0)])

@dataclass(frozen=True)
class ParametricFamily:
    """A truncated countably-indexed generator family."""

    name: str
    truncation: int

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise InputError("BAD_FAMILY", f"unknown family {self.name!r}")
        check_horizon(self.truncation, "BAD_FAMILY", "truncation")

    # -- single generators (exact rational construction) ---------------

    def generator(self, index: int) -> DiscreteDistribution:
        if not 1 <= index <= self.truncation:
            raise InputError("BAD_FAMILY", f"index {index} outside 1..{self.truncation}")
        if self.name == "HEAVY":
            k = index
            atoms = [(Fraction(0), Fraction(k - 1, k)), (Fraction(k), Fraction(1, k))]
        elif index == 1:
            atoms = [(Fraction(1), Fraction(1))]
        else:
            j = index
            atoms = [(Fraction(1), 1 - Fraction(1, j * j))]
            atoms += [(Fraction(k * j), Fraction(1, j**3)) for k in range(1, j + 1)]
        total = sum(w for _, w in atoms)
        if total != 1:  # exact rational identity, not a tolerance check
            raise AssertionError(f"family weights sum to {total} at index {index}")
        return DiscreteDistribution.from_pairs(atoms)

    def describe(self) -> str:
        return f"{self.name} family, truncation {self.truncation}"

    # -- vectorized per-index scans ------------------------------------

    def per_index_expectations(self, f: TestFunction) -> np.ndarray:
        """E_j[f] for j = 1..truncation, as one array, with one row per row of a column ``f``.

        EXM3 index j >= 2 weighs the atoms k*j, k = 1..j, by 1/j^3.  Every kind
        but ``square`` is linear between consecutive knots, so the atoms of one
        segment form an arithmetic series, summed from its first and last term;
        ``square`` sums (k j)^2 by Faulhaber's formula.
        """
        n = self.truncation
        if self.name == "HEAVY":
            ks = np.arange(1, n + 1, dtype=float)
            return (1.0 - 1.0 / ks) * f(0.0) + f(ks) / ks
        f1 = f(1.0)
        js = np.arange(2, n + 1, dtype=float)
        if f.kind == "square":
            sums = js**2 * (js * (js + 1) * (2 * js + 1) / 6)
        else:
            # segment edges: per knot x the first k with k*j >= x; a correctly rounded
            # x / j never lands on an integer it does not equal, so its ceil is exact.
            # Knots are sorted per row, and one at or below 0 gives an empty segment
            knots = np.sort(f.knots(), axis=0)
            knots = knots[knots.reshape(len(knots), -1).max(1) > 0]  # those positive in some row
            edges = [np.ones_like(js), *(np.clip(np.ceil(x / js), 1, js + 1) for x in knots), js + 1]
            sums = 0.0
            for lo, hi in zip(edges, edges[1:]):
                sums += (hi - lo) * (f(lo * js) + f((hi - 1) * js)) * 0.5
        out = np.empty(np.shape(sums)[:-1] + (n,))
        out[..., :1] = f1
        out[..., 1:] = (1.0 - 1.0 / js**2) * f1 + sums / js**3
        return out

    def _tail_counts(self, thresholds: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """``(c, p)`` with P_j(|X| >= thresholds[r]) = c[r, j - 1] / j**p[r] for j = 1..truncation;
        every atom is an integer, so ``|x| >= t`` iff ``|x| >= ceil(t)``."""
        n = self.truncation
        ts = [Fraction(t) for t in thresholds]
        low, power = (0, 1) if self.name == "HEAVY" else (1, 3)
        p = np.array([0 if t <= low else power for t in ts])  # p = 0: mass 1 at every index
        c = np.array([[min(max(math.ceil(t), 1), n * n + 1)] for t in ts])  # n*n + 1: past every atom
        js = np.arange(1, n + 1, dtype=np.int64)
        # HEAVY's atom k, or EXM3's atoms k*j >= c for k >= ceil(c / j) = -((-c) // j)
        counts = (js >= c).astype(np.int64) if self.name == "HEAVY" else np.maximum(0, js + 1 + (-c) // js)
        counts[p == 0] = 1
        return counts, p

    def tail_fractions(self, threshold) -> List[Fraction]:
        """P_j(|X| >= threshold) for j = 1..truncation, exact counting."""
        counts, (p,) = self._tail_counts([threshold])
        return [Fraction(c, j**int(p)) for j, c in enumerate(counts[0].tolist(), start=1)]

    def tail_capacity_fraction(self, threshold):
        """Exact sup over indices of the tail mass, with the first attaining index.

        Floats shortlist the indices within 1e-9 relative of the largest mass; exact
        rationals pick among them.  A sequence of thresholds gives a list of pairs.
        """
        scalar = np.ndim(threshold) == 0
        counts, p = self._tail_counts([threshold] if scalar else threshold)
        # over j**p of the family's p; the rows with p = 0 are masked below
        approx = counts / np.arange(1, self.truncation + 1, dtype=float) ** int(p.max())
        top = approx.max(axis=1, keepdims=True)
        near = approx >= top * (1 - 1e-9)
        near[(p == 0) | (top[:, 0] == 0)] = False
        best = [(Fraction(int(power == 0)), 1) for power in p]  # mass 1 everywhere, or 0
        for r, i in zip(*(a.tolist() for a in np.nonzero(near))):
            exact = Fraction(int(counts[r, i]), (i + 1) ** int(p[r]))
            if exact > best[r][0]:
                best[r] = (exact, i + 1)
        return best[0] if scalar else best

    def truncation_binding_for_tail(self, threshold, arg: Optional[int] = None) -> bool:
        """Whether the truncation visibly limits the tail supremum.

        ``arg`` is the attaining index from :meth:`tail_capacity_fraction`, when known.
        """
        if self.name == "HEAVY":
            # untruncated supremum sits at index ceil(threshold)
            return math.ceil(max(float(threshold), 1.0)) > self.truncation
        return (arg or self.tail_capacity_fraction(threshold)[1]) >= self.truncation - 5


@dataclass(frozen=True)
class FamilyExpectation:
    value: float  # a list of one per row for a column function, as is argmax_index
    argmax_index: int


def check_truncation(family: ParametricFamily, *tables: Tuple[TestFunction, np.ndarray]) -> None:
    """TRUNCATION_TOO_SMALL for the first row of the ``(f, values)`` tables (in step, at one
    row the earlier table's first) whose running max still strictly increases across the
    last 10 indices: its supremum visibly escapes past the truncation."""
    if family.truncation < 10:
        return
    # the running max climbs over the last 10 indices iff each of the last 9 values is a record
    escaping = [(v[..., -8:] > v[..., -9:-1]).all(-1) & (v[..., -9] > v[..., :-9].max(-1)) for _, v in tables]
    for first in np.flatnonzero(np.stack(escaping, -1))[:1]:  # row-major: rows, then tables
        row, table = divmod(first, len(tables))
        f, values = tables[table]
        f = f if values.ndim == 1 else TestFunction(f.kind, (f.params[0][row, 0].item(),))
        raise BudgetError("TRUNCATION_TOO_SMALL", f"running max still strictly increasing over "
                          f"the last 10 of {family.truncation} indices for {f.describe()}")


def family_expect(
    family: ParametricFamily, f: TestFunction, values: Optional[np.ndarray] = None
) -> FamilyExpectation:
    """Upper expectation sup over indices <= truncation of E_j[f] (lists for a column ``f``),
    from its per-index ``values`` when given; TRUNCATION_TOO_SMALL as :func:`check_truncation`."""
    if values is None:
        values = family.per_index_expectations(f)
    check_truncation(family, (f, values))
    arg = values.argmax(-1)
    value = values[arg] if values.ndim == 1 else values[np.arange(len(values)), arg]
    return FamilyExpectation(value.tolist(), (arg + 1).tolist())


# -- the tail-separation report ---------------------------------------


@dataclass(frozen=True)
class Exm3Report:
    """Excess-moment vs. tail-surrogate behavior of the EXM3 family."""

    lambda_rows: List[Tuple[float, float]]  # (lambda, E[(|X| - lambda)^+])
    m_rows: List[Tuple[int, float, float]]  # (m, E[psi_m(X)], m * V(|X| >= m))
    warnings: Tuple[str, ...] = field(default=())


def _sup_blocks(family: ParametricFamily, make, params) -> Iterator[Tuple[list, list]]:
    """Blocks of the rows ``make(p)`` and their suprema; a refused ``p`` raises after the rows before it."""
    fs: List[TestFunction] = []
    for p in params:
        try:
            fs.append(make(p))
        except InputError:
            break
    for block in blocks(fs, family.truncation):
        yield block, family_expect(family, column(block[0].kind, [g.params[0] for g in block])).value
    for p in params[len(fs) :]:  # the refused one, again
        make(p)


def exm3_report(
    truncation: int, lambdas: Sequence[float], ms: Sequence[int]
) -> Exm3Report:
    """Tabulate the two sides of the separation exhibited by EXM3, in row blocks."""
    fam = ParametricFamily("EXM3", truncation)
    lambdas = [_real(lam, "abs_excess lambda") for lam in lambdas]
    if lambdas and truncation < 4 * max(lambdas):
        raise BudgetError(
            "TRUNCATION_TOO_SMALL",
            f"truncation {truncation} below 4 * max(lambda) = {4 * max(lambdas):g}",
        )
    lambda_rows, m_rows, warnings = [], [], []
    for block, values in _sup_blocks(fam, abs_excess, lambdas):
        lambda_rows += [(f.params[0], value) for f, value in zip(block, values)]
    for block, psi_values in _sup_blocks(fam, psi_fn, ms):  # BAD_FUNCTION unless m is an integer >= 1
        levels = [f.params[0] for f in block]
        for m, psi_val, (tail, arg) in zip(levels, psi_values, fam.tail_capacity_fraction(levels)):
            if fam.truncation_binding_for_tail(m, arg):
                warnings.append(f"FAMILY_TRUNCATION_WARNING: tail sup at m={m} hits truncation")
            m_rows.append((m, psi_val, m * float(tail)))
    return Exm3Report(lambda_rows, m_rows, tuple(warnings))


# -- HEAVY-family LLN failure at desk scale ----------------------------


def heavy_lln_value(truncation: int, n: int, state_budget: int = DEFAULT_STATE_BUDGET) -> float:
    """Exact E_K[ramp(S_n / n)] for the K-truncated HEAVY family.

    A certified lower bound for the untruncated supremum, itself at least ``(1 - 1/K)^n``.
    Sums never fall and the ramp is 0 from n on, so level k stores [0, min(k*K, n - 1)]
    and every state >= n absorbs at 0.0, which the kernel steps once.  A jump k >= n lands
    there from every stored state, so its candidate ``fl(1 - 1/k) * u(s)`` is largest at
    k = K: only k < n and k = K are swept, for K >= n as many as the n states a level, so
    the kernel takes them in generator blocks.  The budget counts the stored level-states
    times the swept generators.  The weights are not :meth:`ParametricFamily.generator`'s:
    its ``float(Fraction(k - 1, k))`` differs from ``1.0 - 1.0/k`` at k = 3, 7, 19, ...
    """
    K = check_horizon(truncation, "BAD_FAMILY", "truncation")
    check_horizon(n, "BAD_FAMILY")
    j = (n - 1) // K  # levels 1..j store k*K + 1 states, the later ones n
    level_states = (n + 1) + K * j * (j + 1) // 2 + (n - j) * (n - 1)
    check_budget(level_states * (min(K, n - 1) + (K >= n)), state_budget, "level-states x generators")
    ks = list(range(1, min(K, n - 1) + 1)) + ([K] if K >= n else [])
    weights = [(1.0 - 1.0 / k, 1.0 / k) for k in ks]
    bounds = [(0, min(level * K, n - 1) + 1) for level in range(n + 1)]
    u = np.asarray(RAMP_DOWN(np.arange(bounds[n][1]) / n), dtype=float)
    return _sweep(tuple((0, k) for k in ks), weights, bounds, u, absorb=0.0)


def heavy_lln_lower_bound(truncation: int, n: int) -> float:
    """The closed-form per-step bound (1 - 1/K)^n."""
    return (1.0 - 1.0 / truncation) ** n
