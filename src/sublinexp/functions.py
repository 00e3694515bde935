"""Scalar test functions.

A :class:`TestFunction` is either an explicit piecewise-linear function
(with constant extension beyond the first and last breakpoint, hence
bounded) or one of a small set of named builtins.  ``square``,
``identity`` and ``abs_excess`` are marked unbounded and are rejected by
operations that require bounded functions at horizon-normalized scale;
they remain available for moment computations.

All functions evaluate vectorized on numpy arrays as well as on scalars, and
a :func:`column` of one-parameter builtins maps x to one row per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import InputError

#: builtin kinds whose range is unbounded on the real line
UNBOUNDED_KINDS = frozenset({"square", "identity", "abs_excess"})

_BUILTIN_KINDS = frozenset(
    {"abs", "square", "identity", "clamp", "tent", "psi", "abs_excess"}
)


@dataclass(frozen=True)
class TestFunction:
    """A scalar function used as the integrand of expectations.

    ``kind`` is ``"pwl"`` or a builtin name; ``params`` holds the
    kind-specific parameters (for ``"pwl"``: a tuple of x-coordinates and
    a tuple of values).
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind == "pwl":
            xs, ys = self.params
            if len(xs) != len(ys) or len(xs) == 0:
                raise InputError("BAD_FUNCTION", "breakpoints and values must pair up")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise InputError(
                    "BAD_FUNCTION", "piecewise-linear breakpoints must be strictly increasing"
                )
        elif self.kind not in _BUILTIN_KINDS:
            raise InputError("BAD_FUNCTION", f"unknown function kind {self.kind!r}")
        values = (*self.params[0], *self.params[1]) if self.kind == "pwl" else self.params
        if not np.isfinite(np.array(values, dtype=float)).all():
            raise InputError("BAD_FUNCTION", f"{self.kind} parameters must not be NaN or infinite")

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        k = self.kind
        if k == "pwl":
            xs, ys = self.params
            out = np.interp(x, xs, ys)
        elif k == "abs":
            out = np.abs(x)
        elif k == "square":
            out = x * x
        elif k == "identity":
            out = x + 0.0
        elif k == "clamp":
            (n,) = self.params
            out = np.minimum(np.maximum(x, -n), n)
        elif k == "tent":
            center, halfwidth = self.params
            out = np.maximum(0.0, 1.0 - np.abs(x - center) / halfwidth)
        elif k == "psi":
            (n,) = self.params
            out = n * np.clip(np.abs(x) - (n - 1), 0.0, 1.0)
        elif k == "abs_excess":
            (lam,) = self.params
            out = np.maximum(np.abs(x) - lam, 0.0)
        else:  # pragma: no cover - guarded in __post_init__
            raise InputError("BAD_FUNCTION", f"unknown kind {k!r}")
        return out if out.ndim else float(out)

    # -- structure -----------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self.kind not in UNBOUNDED_KINDS

    def knots(self) -> Tuple[float, ...]:
        """Interior points where a maximum over an interval may sit.

        Together with the interval endpoints these are enough to maximize
        the function exactly over any closed interval: between consecutive
        knots every kind here is linear (convex kinds need no interior
        candidates beyond their kink).
        """
        k = self.kind
        if k == "pwl":
            return tuple(self.params[0])
        if k in ("abs", "square", "identity"):
            return (0.0,)
        if k == "clamp":
            (n,) = self.params
            return (-1.0 * n, 1.0 * n)
        if k == "tent":
            center, halfwidth = self.params
            return (center - halfwidth, center, center + halfwidth)
        if k == "psi":
            (n,) = self.params
            return (-1.0 * n, -(n - 1.0), n - 1.0, 1.0 * n)
        if k == "abs_excess":
            (lam,) = self.params
            return (-lam, 0.0 * lam, lam)  # each shaped like lam
        raise AssertionError(k)

    def describe(self) -> str:
        if self.kind == "pwl":
            xs, ys = self.params
            pts = ", ".join(f"({x:g}, {y:g})" for x, y in zip(xs, ys))
            return f"pwl[{pts}]"
        if self.params:
            return f"{self.kind}({', '.join(f'{p:g}' for p in self.params)})"
        return self.kind


# -- constructors ------------------------------------------------------


def _real(x, what: str, code: str = "BAD_FUNCTION") -> float:
    """``float(x)``, or ``code`` when ``x`` is not a decimal number (booleans are not)."""
    if not isinstance(x, bool):
        try:
            return float(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(code, f"{what} must be a decimal number, got {x!r}")


ABS = TestFunction("abs")
SQUARE = TestFunction("square")
IDENTITY = TestFunction("identity")


def piecewise_linear(breakpoints: Iterable[Tuple[float, float]]) -> TestFunction:
    """Linear interpolation through any non-empty iterable of ``(x, y)`` pairs."""
    try:
        pairs = [(x, y) for x, y in breakpoints]
    except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
        pairs = []
    if not pairs:
        raise InputError(
            "BAD_FUNCTION",
            f"pwl breakpoints must be a non-empty list of [x, y] pairs, got {breakpoints!r}",
        )
    pts = sorted((_real(x, "breakpoint"), _real(y, "breakpoint value")) for x, y in pairs)
    xs = tuple(p[0] for p in pts)
    ys = tuple(p[1] for p in pts)
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InputError("BAD_FUNCTION", "duplicate breakpoint x-coordinates")
    return TestFunction("pwl", (xs, ys))


def clamp(n: float) -> TestFunction:
    """x clipped to [-n, n]."""
    return TestFunction("clamp", (_real(n, "clamp level"),))


def tent(center: float, halfwidth: float) -> TestFunction:
    """Unit-height tent supported on [center - halfwidth, center + halfwidth]."""
    center, halfwidth = _real(center, "tent center"), _real(halfwidth, "tent halfwidth")
    if halfwidth <= 0:
        raise InputError("BAD_FUNCTION", "tent halfwidth must be positive")
    return TestFunction("tent", (center, halfwidth))


def psi_fn(n: int) -> TestFunction:
    """The Lipschitz tail surrogate at level n, n * min(1, max(0, |x| - (n - 1))).

    It equals the supremum over y of ``n * [|y| >= n] - n * |y - x|`` and is
    sandwiched between ``n * [|x| >= n]`` and ``n * [|x| >= n - 1]``.
    """
    level = _real(n, "psi level")
    if not level.is_integer() or level < 1:
        raise InputError("BAD_FUNCTION", f"psi level must be an integer >= 1, got {n!r}")
    return TestFunction("psi", (int(level),))


def abs_excess(lam: float) -> TestFunction:
    """(|x| - lam)^+, the tail-excess moment integrand (unbounded)."""
    return TestFunction("abs_excess", (_real(lam, "abs_excess lambda"),))


def constant(c: float) -> TestFunction:
    return TestFunction("pwl", ((0.0,), (_real(c, "constant value"),)))


def column(kind: str, params: Sequence[float]) -> TestFunction:
    """The one-parameter builtin ``kind`` at each of ``params``, as one function of a column."""
    return TestFunction(kind, (np.asarray(params, dtype=float)[:, None],))
