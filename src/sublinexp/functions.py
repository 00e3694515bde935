"""Scalar test functions.

A :class:`TestFunction` is an explicit piecewise-linear function (with
constant extension beyond the first and last breakpoint, hence bounded) or
one of a small set of named builtins, each kind one row of ``_KINDS``.
``square``, ``identity`` and ``abs_excess`` are unbounded and are rejected by
operations that require bounded functions at horizon-normalized scale; they
remain available for moment computations.

All functions evaluate vectorized on numpy arrays as well as on scalars, and a
:func:`column` of one-parameter builtins maps x to one row per parameter, in :func:`blocks`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class TestFunction:
    """A scalar function used as the integrand of expectations.

    ``kind`` is ``"pwl"`` or a builtin name; ``params`` holds the
    kind-specific parameters (for ``"pwl"``: a tuple of x-coordinates and
    a tuple of values), or a column of them (see :func:`column`).
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        kind, values = self.kind, self.params
        row = _KINDS.get(kind) if isinstance(kind, str) else None
        if row is None:
            raise InputError("BAD_FUNCTION", f"unknown function kind {kind!r}")
        count = row.knots.__code__.co_argcount
        if not isinstance(values, tuple) or len(values) != count:
            raise InputError("BAD_FUNCTION", f"{kind} takes {count} parameters, got {values!r}")
        if kind == "pwl":
            xs, ys = values
            if not (all(isinstance(v, (tuple, list)) for v in values) and 0 < len(xs) == len(ys)):
                raise InputError("BAD_FUNCTION", f"pwl takes an (xs, ys) pair of one length, got {values!r}")
            values = (*xs, *ys)
        # float first: an ABC check costs about 1 us
        if not all(isinstance(v, (float, int, np.ndarray, numbers.Real)) and not isinstance(v, bool) for v in values):
            raise InputError("BAD_FUNCTION", f"{kind} parameters must be numbers, got {self.params!r}")
        if kind == "pwl" and any(b <= a for a, b in zip(xs, xs[1:])):
            raise InputError("BAD_FUNCTION", "piecewise-linear breakpoints must be strictly increasing")
        floats = np.array(values, dtype=float)
        if kind == "tent" and (floats[1] <= 0).any():
            raise InputError("BAD_FUNCTION", "tent halfwidth must be positive")
        least = {"clamp": 0, "psi": 1}.get(kind)  # a clamp level below 0 clips to an empty interval
        if least is not None and (floats < least).any():
            raise InputError("BAD_FUNCTION", f"{kind} level must be at least {least}")
        if not np.isfinite(floats).all():
            raise InputError("BAD_FUNCTION", f"{kind} parameters must not be NaN or infinite")

    def __call__(self, x):
        out = _KINDS[self.kind].value(np.asarray(x, dtype=float), *self.params)
        return out if out.ndim else float(out)

    @property
    def bounded(self) -> bool:
        return _KINDS[self.kind].bounded

    def knots(self) -> Tuple[float, ...]:
        """Interior points where a maximum over an interval may sit.

        Together with the interval endpoints these are enough to maximize
        the function exactly over any closed interval: between consecutive
        knots every kind here is linear (convex kinds need no interior
        candidates beyond their kink).
        """
        return _KINDS[self.kind].knots(*self.params)

    def describe(self) -> str:
        if self.kind == "pwl":
            return f"pwl[{', '.join(f'({x:g}, {y:g})' for x, y in zip(*self.params))}]"
        return f"{self.kind}({', '.join(f'{p:g}' for p in self.params)})" if self.params else self.kind


# -- constructors ------------------------------------------------------


def _real(x, what: str, code: str = "BAD_FUNCTION") -> float:
    """``float(x)``, or ``code`` when ``x`` is not a decimal number (booleans are not)."""
    if not isinstance(x, bool):
        try:
            return float(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(code, f"{what} must be a decimal number, got {x!r}")


def piecewise_linear(breakpoints: Iterable[Tuple[float, float]]) -> TestFunction:
    """Linear interpolation through any non-empty iterable of ``(x, y)`` pairs."""
    try:
        pairs = [(x, y) for x, y in breakpoints]
    except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
        pairs = []
    if not pairs:
        raise InputError(
            "BAD_FUNCTION", f"pwl breakpoints must be a non-empty list of [x, y] pairs, got {breakpoints!r}"
        )
    xs, ys = zip(*sorted((_real(x, "breakpoint"), _real(y, "breakpoint value")) for x, y in pairs))
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InputError("BAD_FUNCTION", "duplicate breakpoint x-coordinates")
    return TestFunction("pwl", (xs, ys))


def clamp(n: float) -> TestFunction:
    """x clipped to [-n, n]."""
    return TestFunction("clamp", (_real(n, "clamp level"),))


def tent(center: float, halfwidth: float) -> TestFunction:
    """Unit-height tent supported on [center - halfwidth, center + halfwidth]."""
    return TestFunction("tent", (_real(center, "tent center"), _real(halfwidth, "tent halfwidth")))


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
    try:
        return TestFunction(kind, (np.asarray(params, dtype=float)[:, None],))
    except OverflowError:  # an int past the floats: BAD_FUNCTION, as from its scalar function
        return column(kind, [_real(p, f"{kind} level") for p in params])


_BLOCK_CELLS = 1 << 16  # table cells, or draws, per block of rows


def blocks(rows: Sequence, width: int) -> Iterator[Sequence]:
    """``rows`` in slices of at most ``_BLOCK_CELLS`` cells of a table ``width`` wide, one row at least."""
    step = max(1, _BLOCK_CELLS // width)
    return (rows[i : i + step] for i in range(0, len(rows), step))


# -- the kinds -------------------------------------------------------------


class _Kind(NamedTuple):
    """A function kind: its constructor and the ``params`` keys the CLI passes it, in
    order; its value at x; its knots, which take exactly the kind's parameters; and
    whether it is bounded."""

    make: Callable[..., TestFunction]
    keys: Tuple[str, ...]
    value: Callable
    knots: Callable
    bounded: bool = True


#: the kinds that can overflow run under ``_unwarned()``: past the doubles a value is +-inf, which the
#: callers refuse (UNBOUNDED_EVAL), or a tent's 0, with no numpy warning; the others skip its cost per call
_unwarned = partial(np.errstate, over="ignore")

_KINDS = {
    "pwl": _Kind(piecewise_linear, ("breakpoints",), np.interp, lambda xs, ys: tuple(xs)),
    "abs": _Kind(partial(TestFunction, "abs"), (), np.abs, lambda: (0.0,)),
    "square": _Kind(partial(TestFunction, "square"), (), _unwarned()(lambda x: x * x), lambda: (0.0,), False),
    "identity": _Kind(partial(TestFunction, "identity"), (), lambda x: x + 0.0, lambda: (0.0,), False),
    "clamp": _Kind(clamp, ("n",), lambda x, n: np.minimum(np.maximum(x, -n), n), lambda n: (-1.0 * n, 1.0 * n)),
    "tent": _Kind(
        tent, ("center", "halfwidth"), _unwarned()(lambda x, c, h: np.maximum(0.0, 1.0 - np.abs(x - c) / h)),
        lambda c, h: (c - h, c, c + h),
    ),
    "psi": _Kind(
        psi_fn, ("n",), lambda x, n: n * np.clip(np.abs(x) - (n - 1), 0.0, 1.0),
        lambda n: (-1.0 * n, -(n - 1.0), n - 1.0, 1.0 * n),
    ),
    "abs_excess": _Kind(  # each knot shaped like lam
        abs_excess, ("lambda",), _unwarned()(lambda x, lam: np.maximum(np.abs(x) - lam, 0.0)),
        lambda lam: (-lam, 0.0 * lam, lam), False,
    ),
}

ABS = TestFunction("abs")
SQUARE = TestFunction("square")
IDENTITY = TestFunction("identity")
