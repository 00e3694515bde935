"""Maximal-inequality checks on capacities of partial sums.

Two numerically checkable facts: the Ottaviani-style bound relating the
running-max capacity to the final-sum capacity, and the i.i.d. product
identity for the capacity of a large increment appearing anywhere along
the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ambiguity import AmbiguitySet, to_fraction
from .errors import InputError, check_horizon
from .functions import _real
from .lattice_dp import DEFAULT_STATE_BUDGET, PathEvent, capacity, final_abs_capacities

_TOL = 1e-12

HOLDS = "HOLDS"
VACUOUS = "VACUOUS"
VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class OttavianiReport:
    """Premise, sides and verdict of one maximal-inequality instance.

    ``VIOLATED`` must never occur on valid inputs; it exists so the check
    is falsifiable rather than tautological.
    """

    premise_value: float
    c: float
    lhs: float
    rhs: float
    status: str


def ottaviani_check(
    set_: AmbiguitySet,
    n: int,
    alpha: float,
    c: float,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> OttavianiReport:
    """Check V(max_k |S_k| >= 2 alpha) <= V(|S_n| >= alpha) / (1 - c).

    The premise requires max over k = 1..n of V(|S_n - S_k| >= alpha) to
    stay <= c; when it fails the instance is reported VACUOUS rather than
    silently skipped.
    """
    if not 0 < (c := _real(c, "c", "BAD_C")) < 1:
        raise InputError("BAD_C", "c must lie strictly between 0 and 1")
    if not (alpha := _real(alpha, "alpha", "BAD_ALPHA")) > 0:  # NaN too
        raise InputError("BAD_ALPHA", "alpha must be positive")
    # increments are i.i.d., so V(|S_n - S_k| >= alpha) is the horizon-(n - k) capacity
    by_horizon = final_abs_capacities(set_, n, alpha, state_budget)
    premise = max(by_horizon[:n])
    twice = 2 * alpha if math.isfinite(2 * alpha) else 2 * to_fraction(alpha)  # past the doubles: exact
    lhs = capacity(set_, n, PathEvent("MAX_PARTIAL_ABS_GE", twice), "UPPER", state_budget)
    rhs = by_horizon[n] / (1.0 - c)
    if premise > c + _TOL:
        status = VACUOUS
    elif lhs <= rhs + _TOL:
        status = HOLDS
    else:
        status = VIOLATED
    return OttavianiReport(premise, c, lhs, rhs, status)


@dataclass(frozen=True)
class ProductIdentityReport:
    lhs: float
    rhs: float
    delta: float


def capacity_product_identity(
    set_: AmbiguitySet,
    n: int,
    threshold: float,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ProductIdentityReport:
    """V(max_k |X_k| >= t) against 1 - (1 - V(|X_1| >= t))^n.

    The two sides agree because the adversary's optimal play per step is
    the single-step tail maximizer, independently across coordinates.
    The exponential comparison 1 - p <= e^{-p} makes the right side at
    least 1 - exp(-n V), which is asserted alongside in the test suites.
    """
    check_horizon(n)
    lhs = capacity(
        set_,
        n,
        PathEvent("MAX_INCREMENT_ABS_GE", threshold),
        "UPPER",
        state_budget=state_budget,
    )
    single = capacity(
        set_, 1, PathEvent("FINAL_ABS_GE", threshold), "UPPER", state_budget=state_budget
    )
    rhs = 1.0 - (1.0 - single) ** n
    return ProductIdentityReport(lhs, rhs, abs(lhs - rhs))
