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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ambiguity import DiscreteDistribution
from .errors import BudgetError, InputError, check_budget
from .functions import TestFunction, piecewise_linear, psi_fn
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
        if self.truncation < 1:
            raise InputError("BAD_FAMILY", "truncation index must be >= 1")

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
        return DiscreteDistribution.from_pairs(
            [(float(p), float(w)) for p, w in atoms]
        )

    def describe(self) -> str:
        return f"{self.name} family, truncation {self.truncation}"

    # -- vectorized per-index scans ------------------------------------

    def per_index_expectations(self, f: TestFunction) -> np.ndarray:
        """E_j[f] for j = 1..truncation, as one array.

        EXM3 index j >= 2 weighs the atoms k*j, k = 1..j, by 1/j^3.  Every kind
        but ``square`` is linear between consecutive knots, so the atoms of one
        segment form an arithmetic series, summed from its first and last term;
        ``square`` sums (k j)^2 by Faulhaber's formula.
        """
        n = self.truncation
        if self.name == "HEAVY":
            ks = np.arange(1, n + 1, dtype=float)
            return (1.0 - 1.0 / ks) * float(f(0.0)) + np.asarray(f(ks)) / ks
        f1 = float(f(1.0))
        js = np.arange(2, n + 1, dtype=float)
        if f.kind == "square":
            sums = js**2 * (js * (js + 1) * (2 * js + 1) / 6)
        else:
            # segment edges: per positive knot x the first k with k*j >= x; a correctly
            # rounded x / j never lands on an integer it does not equal, so its ceil is exact
            edges = [np.ones_like(js)]
            for x in sorted(x for x in f.knots() if x > 0):
                edges.append(np.clip(np.ceil(x / js), 1, js + 1))
            edges.append(js + 1)
            sums = np.zeros_like(js)
            for lo, hi in zip(edges, edges[1:]):
                sums += (hi - lo) * (f(lo * js) + f((hi - 1) * js)) * 0.5
        out = np.empty(n)
        out[0] = f1
        out[1:] = (1.0 - 1.0 / js**2) * f1 + sums / js**3
        return out

    def _tail_counts(self, threshold) -> Tuple[np.ndarray, int]:
        """``(c, p)`` with P_j(|X| >= threshold) = c[j - 1] / j**p for j = 1..truncation.

        Every atom is an integer, so ``|x| >= t`` iff ``|x| >= ceil(t)``.
        """
        t = Fraction(threshold)
        n = self.truncation
        if t <= (0 if self.name == "HEAVY" else 1):
            return np.ones(n, dtype=np.int64), 0
        c = min(math.ceil(t), n * n + 1)  # past every atom either way
        js = np.arange(1, n + 1, dtype=np.int64)
        if self.name == "HEAVY":
            return (js >= c).astype(np.int64), 1
        # atoms k*j >= c for k >= ceil(c / j) = -((-c) // j)
        return np.maximum(0, js + 1 + (-c) // js), 3

    def tail_fractions(self, threshold) -> List[Fraction]:
        """P_j(|X| >= threshold) for j = 1..truncation, exact counting."""
        counts, p = self._tail_counts(threshold)
        return [Fraction(c, j**p) for j, c in enumerate(counts.tolist(), start=1)]

    def tail_capacity_fraction(self, threshold) -> Tuple[Fraction, int]:
        """Exact sup over indices of the tail mass, with the first attaining index.

        Floats shortlist the indices within 1e-9 relative of the largest mass;
        exact rationals pick among them.
        """
        counts, p = self._tail_counts(threshold)
        if p == 0:
            return Fraction(1), 1
        approx = counts / np.arange(1, len(counts) + 1, dtype=float) ** p
        top = approx.max()
        if top == 0:
            return Fraction(0), 1
        near = np.flatnonzero(approx >= top * (1 - 1e-9)).tolist()
        exact = [Fraction(int(counts[i]), (i + 1) ** p) for i in near]
        best = exact.index(max(exact))
        return exact[best], near[best] + 1

    def tail_capacity(self, threshold) -> Tuple[float, int]:
        """sup over indices of the tail mass, with the attaining index."""
        value, arg = self.tail_capacity_fraction(threshold)
        return float(value), arg

    def truncation_binding_for_tail(self, threshold, arg: Optional[int] = None) -> bool:
        """Whether the truncation visibly limits the tail supremum.

        ``arg`` is the attaining index from :meth:`tail_capacity`, when known.
        """
        if self.name == "HEAVY":
            # untruncated supremum sits at index ceil(threshold)
            return math.ceil(max(float(threshold), 1.0)) > self.truncation
        if arg is None:
            _, arg = self.tail_capacity(threshold)
        return arg >= self.truncation - 5


@dataclass(frozen=True)
class FamilyExpectation:
    value: float
    argmax_index: int


def family_expect(
    family: ParametricFamily, f: TestFunction, values: Optional[np.ndarray] = None
) -> FamilyExpectation:
    """Upper expectation sup over indices <= truncation of E_j[f].

    ``values`` are the per-index expectations, when already computed.
    Raises TRUNCATION_TOO_SMALL when the running maximum is still
    strictly increasing across the last 10 indices, i.e. the supremum is
    visibly escaping past the truncation boundary.
    """
    if values is None:
        values = family.per_index_expectations(f)
    running = np.maximum.accumulate(values)
    if len(running) >= 10 and np.all(np.diff(running[-10:]) > 0):
        raise BudgetError(
            "TRUNCATION_TOO_SMALL",
            f"running max still strictly increasing over the last 10 of "
            f"{family.truncation} indices for {f.describe()}",
        )
    arg = int(np.argmax(values)) + 1
    return FamilyExpectation(float(values[arg - 1]), arg)


def family_lower_expect(family: ParametricFamily, f: TestFunction) -> float:
    """Lower expectation inf over indices <= truncation of E_j[f]."""
    return float(np.min(family.per_index_expectations(f)))


# -- the tail-separation report ---------------------------------------


@dataclass(frozen=True)
class Exm3Report:
    """Excess-moment vs. tail-surrogate behavior of the EXM3 family."""

    lambda_rows: List[Tuple[float, float]]  # (lambda, E[(|X| - lambda)^+])
    m_rows: List[Tuple[int, float, float]]  # (m, E[psi_m(X)], m * V(|X| >= m))
    warnings: Tuple[str, ...] = field(default=())


def exm3_report(
    truncation: int, lambdas: Sequence[float], ms: Sequence[int]
) -> Exm3Report:
    """Tabulate the two sides of the separation exhibited by EXM3."""
    if lambdas and truncation < 4 * max(lambdas):
        raise BudgetError(
            "TRUNCATION_TOO_SMALL",
            f"truncation {truncation} below 4 * max(lambda) = {4 * max(lambdas):g}",
        )
    fam = ParametricFamily("EXM3", truncation)
    warnings: List[str] = []
    lambda_rows = []
    for lam in lambdas:
        fe = family_expect(fam, TestFunction("abs_excess", (float(lam),)))
        lambda_rows.append((float(lam), fe.value))
    m_rows = []
    for m in ms:
        f = psi_fn(m)  # BAD_FUNCTION unless m is an integer >= 1
        m = f.params[0]
        psi_val = family_expect(fam, f).value
        tail, arg = fam.tail_capacity(m)
        if fam.truncation_binding_for_tail(m, arg):
            warnings.append(f"FAMILY_TRUNCATION_WARNING: tail sup at m={m} hits truncation")
        m_rows.append((m, psi_val, m * tail))
    return Exm3Report(lambda_rows, m_rows, tuple(warnings))


# -- HEAVY-family LLN failure at desk scale ----------------------------


def heavy_lln_value(truncation: int, n: int, state_budget: int = DEFAULT_STATE_BUDGET) -> float:
    """Exact E_K[ramp(S_n / n)] for the K-truncated HEAVY family.

    A certified lower bound for the untruncated supremum, itself at least
    ``(1 - 1/K)^n``.  Sums never fall and the ramp is 0 from n on, so level k
    stores [0, min(k*K, n - 1)] and every state >= n absorbs at 0.0.  A jump
    k >= n lands there from every stored state, so its candidate
    ``fl(1 - 1/k) * u(s)`` is largest at k = K: only k < n and k = K are swept.
    The weights are not :meth:`ParametricFamily.generator`'s: its
    ``float(Fraction(k - 1, k))`` differs from ``1.0 - 1.0/k`` at k = 3, 7, 19, ...
    """
    K = truncation
    if K < 1 or n < 1:
        raise InputError("BAD_FAMILY", "need truncation >= 1 and horizon >= 1")
    check_budget((n + 1) * (n * K + 1), state_budget)
    ks = list(range(1, min(K, n - 1) + 1)) + ([K] if K >= n else [])
    weights = [(1.0 - 1.0 / k, 1.0 / k) for k in ks]
    bounds = [(0, min(level * K, n - 1) + 1) for level in range(n + 1)]
    u = np.asarray(RAMP_DOWN(np.arange(bounds[n][1]) / n), dtype=float)
    return _sweep([tuple((0, k) for k in ks)] * n, weights, bounds, u, np.greater, absorb=0.0)


def heavy_lln_lower_bound(truncation: int, n: int) -> float:
    """The closed-form per-step bound (1 - 1/K)^n."""
    return (1.0 - 1.0 / truncation) ** n
