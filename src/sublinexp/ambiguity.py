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

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            return Fraction(repr(x) if isinstance(x, float) else x)
        except (ValueError, ZeroDivisionError):  # inf, nan, "abc", "1/0"
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

    def coordinate(self, point: RationalLike) -> int:
        """Integer lattice coordinate of ``point``; OFF_LATTICE if not exact."""
        q = (to_fraction(point) - self.origin * self.step) / self.step
        if q.denominator != 1:
            raise InputError(
                "OFF_LATTICE", f"point {point!r} is not an integer multiple of step {self.step}"
            )
        return int(q)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support probability measure given by sorted (point, weight) atoms."""

    points: Tuple[float, ...]
    weights: Tuple[float, ...]

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

    @classmethod
    def from_pairs(cls, atoms: Iterable[Tuple[RationalLike, float]]) -> "DiscreteDistribution":
        """Build from (point, weight) pairs, coalescing duplicate points."""
        merged: dict = {}
        for point, weight in atoms:
            key = _real(point, "point", "BAD_CONFIG")
            merged[key] = merged.get(key, 0.0) + _real(weight, "weight", "BAD_CONFIG")
        pts = sorted(merged)
        return cls(tuple(pts), tuple(merged[p] for p in pts))

    @property
    def point_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def tail_mass_fraction(self, threshold: RationalLike) -> Fraction:
        """P(|X| >= threshold) as an exact rational over the float weights."""
        t = to_fraction(threshold)
        acc = Fraction(0)
        for p, w in zip(self.points, self.weights):
            if abs(Fraction(p)) >= t:
                acc += Fraction(w)
        return acc


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
        coords = tuple(
            tuple(self.lattice.coordinate(p) for p in g.points) for g in self.generators
        )
        object.__setattr__(self, "coords", coords)

    @property
    def min_coord(self) -> int:
        return min(min(c) for c in self.coords)

    @property
    def max_coord(self) -> int:
        return max(max(c) for c in self.coords)

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


def validate_ambiguity_set(
    raw: Union[AmbiguitySet, dict, Sequence]
) -> AmbiguitySet:
    """Check and normalize a candidate ambiguity-set description.

    Accepts an existing :class:`AmbiguitySet` (returned as-is), or a dict
    ``{"step": ..., "origin"?: ..., "generators": [[(point, weight), ...], ...]}``.
    Atom order is normalized and duplicate points are coalesced by summing
    weights.
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
    try:
        return AmbiguitySet(lattice, tuple(gens))
    except InputError as e:
        raise InputError(e.code, e.message) from None


def linear_expect(dist: DiscreteDistribution, f: TestFunction) -> float:
    """Classical expectation sum(w_j * f(x_j)) in increasing-point order.

    A value of ``f`` on the support that is not finite is ``UNBOUNDED_EVAL``.

    Summation uses numpy's deterministic single-threaded pairwise reduce,
    consuming atoms in increasing-point order; results are reproducible
    across runs and thread counts.
    """
    vals = np.asarray(f(dist.point_array), dtype=float)
    if not np.isfinite(vals).all():
        raise InputError("UNBOUNDED_EVAL", f"{f.describe()} overflows on the support")
    return float(np.add.reduce(vals * dist.weight_array))


def sublinear_expect(set_: AmbiguitySet, f: TestFunction) -> SublinearValue:
    """Upper and lower expectation of ``f`` over the ambiguity set.

    The extremes are attained at generators; ties break to the lowest
    generator index so policy extraction is deterministic.
    """
    values = [linear_expect(g, f) for g in set_.generators]
    argmax = 0
    argmin = 0
    for i, v in enumerate(values):
        if v > values[argmax]:
            argmax = i
        if v < values[argmin]:
            argmin = i
    return SublinearValue(values[argmax], values[argmin], argmax, argmin)
