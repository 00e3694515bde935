"""Finite-support distributions, ambiguity sets, one-step upper/lower expectations.

An ambiguity set is a convex, weakly compact set of measures represented
by its finitely many extreme points (the generators): the supremum of a
linear functional over the convex hull is attained at a generator, so the
convexification never needs to be materialized.

All supports live on a common lattice ``{origin + k * step}`` with exact
rational spacing, which is what later allows partial sums to be merged as
integers with no floating-state heuristics.
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Tuple, Union

import numpy as np

from .errors import InputError
from .functions import TestFunction, _real

WEIGHT_TOL = 1e-12

RationalLike = Union[int, float, str, Fraction]


def to_fraction(x: RationalLike) -> Fraction:
    """Exact rational from user input.

    Floats are interpreted through their decimal literal (``0.1`` means
    1/10, not the nearest binary double), so lattice arithmetic behaves
    the way config files read.
    """
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


def _ratio(x: RationalLike) -> Tuple[int, int]:
    """:func:`to_fraction` of ``x`` as a numerator and a denominator in lowest terms."""
    if not isinstance(x, (int, float, str, Fraction)):  # np.int64, Decimal: as their float
        with suppress(TypeError, ValueError, OverflowError):
            x = float(x)
    if isinstance(x, (int, float, str, Fraction)) and not isinstance(x, bool):
        try:  # a float (np.float64 too) through the C decimal parser, a string through Fraction's
            exact = Decimal(repr(float(x))) if isinstance(x, float) else Fraction(x) if isinstance(x, str) else x
            return exact.as_integer_ratio()
        except (ArithmeticError, ValueError):  # inf, nan, "abc", "1/0"
            pass
    raise InputError("BAD_RATIONAL", f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class LatticeSpec:
    """Common grid for all supports of one ambiguity set."""

    step: Fraction
    origin: int = 0

    def __post_init__(self):
        step = to_fraction(self.step)
        object.__setattr__(self, "step", step)
        if step <= 0:
            raise InputError("BAD_LATTICE", "lattice step must be positive")

    def coordinate(self, point: Union[RationalLike, Tuple[int, int]]) -> int:
        """Integer coordinate of ``point``, a rational or its (numerator, denominator) in lowest
        terms; OFF_LATTICE if not exact.  For num/den on step a/b it is (num*b - origin*a*den) / (den*a)."""
        num, den = point if isinstance(point, tuple) else _ratio(point)
        a, b = self.step.as_integer_ratio()
        k, r = divmod(num * b - self.origin * a * den, den * a)
        if r:
            raise InputError(
                "OFF_LATTICE", f"point {Fraction(num, den)} is not an integer multiple of step {self.step}"
            )
        return k


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support probability measure given by sorted (point, weight) atoms; ``exact``
    holds each point's numerator and denominator, and the point is their nearest double."""

    points: Tuple[float, ...]
    weights: Tuple[float, ...]
    exact: Tuple[Tuple[int, int], ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) != len(self.weights) or not self.points:
            raise InputError("EMPTY_SET", "a distribution needs at least one atom")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise InputError("BAD_SUPPORT", "support points must be strictly increasing")
        for w in self.weights:
            if w < 0:
                raise InputError("NEGATIVE_WEIGHT", f"negative weight {w!r}")
        total = float(np.add.reduce(np.asarray(self.weights, dtype=float)))
        if not abs(total - 1.0) <= WEIGHT_TOL:  # NaN fails it too
            raise InputError(
                "WEIGHT_SUM", f"weights sum to {total!r}, outside 1 +/- {WEIGHT_TOL}"
            )
        if self.exact is None:  # points given as numbers: each read as a rational
            object.__setattr__(self, "exact", tuple(map(_ratio, self.points)))

    @classmethod
    def from_pairs(cls, atoms: Iterable[Tuple[RationalLike, float]]) -> "DiscreteDistribution":
        """Build from (point, weight) pairs, each point read once by :func:`to_fraction`'s grammar and
        points of one exact value coalesced; one unread or past the doubles is BAD_CONFIG, NaN or inf BAD_RATIONAL.
        A weight is a decimal number, or a fraction string rounded once to the nearest double."""
        merged: dict = {}
        for point, weight in atoms:
            try:
                num, den = _ratio(point)
                key = (num / den, num, den)  # the nearest double first, for the sort
            except (InputError, OverflowError):
                with suppress(TypeError, ValueError, OverflowError):
                    if not math.isfinite(float(point)):
                        raise InputError("BAD_RATIONAL", f"cannot interpret {float(point)!r} as a rational") from None
                raise InputError("BAD_CONFIG", f"point must be a rational number, got {point!r}") from None
            with suppress(InputError, OverflowError):  # "1/0" or a ratio past the doubles: refused below
                weight = float(to_fraction(weight)) if isinstance(weight, str) and "/" in weight else weight
            merged[key] = merged.get(key, 0.0) + _real(weight, "weight", "BAD_CONFIG")
        keys = sorted(merged)
        points, nums, dens = zip(*keys) if keys else ((), (), ())  # no atoms: EMPTY_SET
        return cls(points, tuple(map(merged.__getitem__, keys)), tuple(zip(nums, dens)))

    @property
    def point_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class AmbiguitySet:
    """Extreme-point representation of a convex set of lattice measures."""

    lattice: LatticeSpec
    generators: Tuple[DiscreteDistribution, ...]
    # integer lattice coordinates per generator, filled during validation
    coords: Tuple[Tuple[int, ...], ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise InputError("EMPTY_SET", "an ambiguity set needs at least one generator")
        object.__setattr__(self, "coords", tuple(tuple(map(self.lattice.coordinate, g.exact)) for g in self.generators))

    def describe(self) -> str:
        gens = "; ".join(
            "{" + ", ".join(f"{p:g}: {w:g}" for p, w in zip(g.points, g.weights)) + "}"
            for g in self.generators
        )
        return f"step {self.lattice.step}, generators [{gens}]"


@dataclass(frozen=True)
class SublinearValue:
    """Upper/lower one-step expectations with their attaining generators."""

    upper: float
    lower: float
    argmax_upper: int
    argmin_lower: int


def validate_ambiguity_set(raw: Union[AmbiguitySet, dict]) -> AmbiguitySet:
    """Check and normalize a candidate ambiguity-set description.

    Accepts an existing :class:`AmbiguitySet` (returned as-is), or a dict
    ``{"step": ..., "origin"?: ..., "generators": [[(point, weight), ...], ...]}``.
    Atom order is normalized and points of one exact value are coalesced by
    summing weights.
    """
    if isinstance(raw, AmbiguitySet):
        return raw
    if not isinstance(raw, dict):
        raise InputError("BAD_SET", "expected a dict describing the ambiguity set")
    unknown = set(raw) - {"step", "origin", "generators"}
    if unknown:
        raise InputError("BAD_SET", f"unknown keys {sorted(unknown)}")
    if "generators" not in raw or not raw["generators"]:
        raise InputError("EMPTY_SET", "no generators given")
    origin = raw.get("origin", 0)
    if not isinstance(origin, numbers.Integral) or isinstance(origin, bool):
        raise InputError("BAD_LATTICE", f"lattice origin must be an integer, got {origin!r}")
    lattice = LatticeSpec(to_fraction(raw.get("step", 1)), int(origin))
    if not isinstance(raw["generators"], (list, tuple)):
        raise InputError("BAD_CONFIG", "generators must be a list of generators")
    gens = []
    for i, g in enumerate(raw["generators"]):
        atoms = list(g.items()) if isinstance(g, dict) else g
        if not isinstance(atoms, (list, tuple)) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 for a in atoms
        ):
            raise InputError(
                "BAD_CONFIG", f"generator {i} must be a list of [point, weight] pairs, got {g!r}"
            )
        try:
            gens.append(DiscreteDistribution.from_pairs(atoms))
        except InputError as e:
            raise InputError(e.code, f"generator {i}: {e.message}") from None
    return AmbiguitySet(lattice, tuple(gens))


def linear_expect(dist: DiscreteDistribution, f: TestFunction) -> Union[float, np.ndarray]:
    """Classical expectation sum(w_j * f(x_j)) in increasing-point order, a float; for a
    :func:`~sublinexp.functions.column` ``f`` an array of one per row.

    A value of ``f`` on the support that is not finite is ``UNBOUNDED_EVAL``.

    Summation uses numpy's deterministic single-threaded pairwise reduce,
    consuming atoms in increasing-point order, each row on its own; results
    are reproducible across runs and thread counts.
    """
    vals = np.asarray(f(dist.point_array), dtype=float)
    if not np.isfinite(vals).all():
        raise InputError("UNBOUNDED_EVAL", f"{f.describe()} overflows on the support")
    out = np.add.reduce(vals * dist.weight_array, axis=-1)
    return out if out.ndim else float(out)


def sublinear_expect(set_: AmbiguitySet, f: TestFunction) -> SublinearValue:
    """Upper and lower expectation of ``f`` over the ambiguity set.

    The extremes are attained at generators; ties break to the lowest
    generator index so policy extraction is deterministic.
    """
    values = [linear_expect(g, f) for g in set_.generators]
    argmax = max(range(len(values)), key=values.__getitem__)
    argmin = min(range(len(values)), key=values.__getitem__)
    return SublinearValue(values[argmax], values[argmin], argmax, argmin)
