"""Exact multi-step backward induction on the partial-sum lattice.

Computes the robust (upper) expectation of a terminal functional of the
normalized sum, upper/lower capacities of a closed grammar of path
events, and the evaluation of a fixed kernel policy.  The adversary picks
a generator per (level, state); restricting to these sum-dependent
(Markov) selections is certified against the history-dependent
brute-force oracle rather than assumed (see :mod:`sublinexp.oracle`).

State values are exact: partial sums are integers on the common lattice,
and event indicators compare them with integer thresholds computed from
exact rationals, so no mollification or floating-state merging is ever
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .ambiguity import AmbiguitySet, to_fraction
from .errors import BudgetError, InputError
from .functions import TestFunction

DEFAULT_STATE_BUDGET = 50_000_000

_FINAL_KINDS = frozenset({"FINAL_ABS_GE", "FINAL_GT", "FINAL_LT", "FINAL_ABS_LT"})
_FLAG_KINDS = frozenset({"MAX_PARTIAL_ABS_GE", "MAX_INCREMENT_ABS_GE"})
EVENT_KINDS = _FINAL_KINDS | _FLAG_KINDS | {"TAIL_SUM_ABS_GE"}


@dataclass(frozen=True)
class PathEvent:
    """One event from the closed, DP-tractable grammar."""

    kind: str
    threshold: Fraction
    from_index: Optional[int] = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise InputError("UNSUPPORTED_EVENT", f"unknown event kind {self.kind!r}")
        object.__setattr__(self, "threshold", to_fraction(self.threshold))
        if self.kind == "TAIL_SUM_ABS_GE":
            if self.from_index is None or self.from_index < 0:
                raise InputError(
                    "UNSUPPORTED_EVENT", "TAIL_SUM_ABS_GE needs from_index >= 0"
                )
        elif self.from_index is not None:
            raise InputError("UNSUPPORTED_EVENT", f"{self.kind} takes no from_index")

    def describe(self) -> str:
        extra = f", from {self.from_index}" if self.from_index is not None else ""
        return f"{self.kind}({self.threshold}{extra})"


@dataclass(frozen=True)
class ValueTable:
    """Backward-induction values at one level, keyed by lattice state."""

    level: int
    entries: Dict[int, float]


def _choice_dtype(generator_count: int) -> np.dtype:
    """Smallest signed integer dtype holding indices below ``generator_count`` and -1."""
    return np.min_scalar_type(-generator_count)


@dataclass(frozen=True, eq=False)
class KernelPolicy:
    """Deterministic Markov kernel policy: one generator index per (level, pre-step state).

    ``levels[k - 1] = (lo, choice)`` covers level ``k``: ``choice[i]`` is the
    generator designated at state ``lo + i``, and ``-1`` designates none.
    The arrays are read-only.
    """

    n: int
    levels: Tuple[Tuple[int, np.ndarray], ...]

    def __post_init__(self):
        for _, choice in self.levels:
            choice.flags.writeable = False

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[Tuple[int, int], int]) -> "KernelPolicy":
        """Policy from a ``{(level, state): generator index}`` mapping."""
        per_level: List[Dict[int, int]] = [{} for _ in range(n)]
        for (level, state), g in entries.items():
            if not 1 <= level <= n or g < 0:
                raise InputError(
                    "BAD_POLICY", f"entry ({level}, {state}) -> {g} is not a level"
                    f" in 1..{n} mapped to a generator index"
                )
            per_level[level - 1][state] = g
        dtype = _choice_dtype(max(entries.values(), default=0) + 1)
        levels = []
        for level_entries in per_level:
            lo, hi = min(level_entries, default=0), max(level_entries, default=-1)
            choice = np.full(hi - lo + 1, -1, dtype=dtype)
            for state, g in level_entries.items():
                choice[state - lo] = g
            levels.append((lo, choice))
        return cls(n, tuple(levels))

    @property
    def entries(self) -> Mapping[Tuple[int, int], int]:
        """Read-only ``{(level, state): generator index}`` view of the designated states."""
        return MappingProxyType(
            {
                (k, lo + int(i)): int(choice[i])
                for k, (lo, choice) in enumerate(self.levels, start=1)
                for i in np.flatnonzero(choice >= 0)
            }
        )

    def get(self, level: int, state: int) -> int:
        if 1 <= level <= len(self.levels):
            lo, choice = self.levels[level - 1]
            if 0 <= state - lo < len(choice) and choice[state - lo] >= 0:
                return int(choice[state - lo])
        raise InputError(
            "POLICY_GAP", f"no generator designated at level {level}, state {state}"
        )

    def level_choices(self, level: int, lo: int, length: int) -> np.ndarray:
        """Choices at ``level`` over states ``lo .. lo + length - 1``, -1 where none."""
        plo, choice = self.levels[level - 1]
        if plo == lo and len(choice) == length:
            return choice
        out = np.full(length, -1, dtype=choice.dtype)
        a, b = max(lo, plo), min(lo + length, plo + len(choice))
        if a < b:
            out[a - lo : b - lo] = choice[a - plo : b - plo]
        return out


@dataclass(frozen=True)
class RobustResult:
    value: float
    policy: KernelPolicy
    state_count: int
    tables: Optional[List[ValueTable]] = field(default=None, compare=False)


# -- shared helpers ----------------------------------------------------


def _level_bounds(set_: AmbiguitySet, n: int, frozen_below: int = 0, hold_zero: bool = False):
    """(lo_k, length_k) per level; levels <= frozen_below contribute no movement.

    ``hold_zero`` widens level k to hold state ``-k * origin``, where S_k = 0.
    """
    minc, maxc = set_.min_coord, set_.max_coord
    origin = set_.lattice.origin
    bounds = []
    for k in range(n + 1):
        steps = max(0, k - frozen_below)
        lo, hi = steps * minc, steps * maxc
        if hold_zero:
            lo, hi = min(lo, -k * origin), max(hi, -k * origin)
        bounds.append((lo, hi - lo + 1))
    return bounds


def _check_budget(bounds, width: int, budget: int):
    total = width * sum(length for _, length in bounds)
    if total > budget:
        raise BudgetError(
            "STATE_BUDGET_EXCEEDED", f"{total} level-states exceed budget {budget}"
        )
    return total


def reachable_masks(set_: AmbiguitySet, n: int, frozen_below: int = 0):
    """Boolean reachability per level over the level's state range."""
    bounds = _level_bounds(set_, n, frozen_below)
    masks = [np.zeros(length, dtype=bool) for _, length in bounds]
    masks[0][0 - bounds[0][0]] = True
    for k in range(1, n + 1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, _ = bounds[k]
        moves = set_.coords if k > frozen_below else ((0,),) * len(set_.coords)
        for gc in moves:
            for c in gc:
                a = lo_prev + c - lo_k
                masks[k][a : a + len_prev] |= masks[k - 1]
    return bounds, masks


def reachable_states(set_: AmbiguitySet, n: int) -> List[List[int]]:
    """Reachable lattice states per level 0..n."""
    bounds, masks = reachable_masks(set_, n)
    return [
        [bounds[k][0] + int(i) for i in np.flatnonzero(masks[k])] for k in range(n + 1)
    ]


def _terminal_values(set_: AmbiguitySet, n: int, f: TestFunction, normalize: bool, bounds):
    lo, length = bounds[n]
    states = np.arange(lo, lo + length)
    xs = (states + n * set_.lattice.origin) * float(set_.lattice.step)
    if normalize:
        xs = xs / n
    return np.asarray(f(xs), dtype=float)


# -- robust value and policy evaluation --------------------------------


def robust_value(
    set_: AmbiguitySet,
    n: int,
    f: TestFunction,
    normalize: bool = True,
    state_budget: int = DEFAULT_STATE_BUDGET,
    keep_tables: bool = False,
) -> RobustResult:
    """Upper expectation of ``f(S_n / n)`` (or ``f(S_n)`` with ``normalize=False``).

    Backward induction ``u_n(s) = f(s/n)``, ``u_{k-1}(s) = max_g sum_j
    w_j u_k(s + x_j)``, with the argmax recorded as the extracted
    worst-case kernel policy.  Evaluation order is fixed (states
    ascending, generators ascending, atoms in increasing-point order) so
    results are bitwise reproducible.
    """
    if n < 1:
        raise InputError("BAD_HORIZON", "horizon must be >= 1")
    if normalize and not f.bounded:
        raise InputError("UNBOUNDED_F", f"{f.describe()} is unbounded; use moment mode")
    bounds = _level_bounds(set_, n)
    state_count = _check_budget(bounds, 1, state_budget)
    _, masks = reachable_masks(set_, n)
    u = _terminal_values(set_, n, f, normalize, bounds)
    tables = [ValueTable(n, _as_table(bounds[n][0], u))] if keep_tables else None
    dtype = _choice_dtype(len(set_.generators))
    levels = [None] * n
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, _ = bounds[k]
        best = None
        arg = np.zeros(len_prev, dtype=dtype)
        for g, (gc, gen) in enumerate(zip(set_.coords, set_.generators)):
            cand = _shift_combine(u, gen.weights, gc, lo_prev + 0 - lo_k, len_prev)
            if best is None:
                best = cand
            else:
                better = cand > best
                best = np.where(better, cand, best)
                arg[better] = g
        u = best
        arg[~masks[k - 1]] = -1
        levels[k - 1] = (lo_prev, arg)
        if keep_tables:
            tables.append(ValueTable(k - 1, _as_table(lo_prev, u)))
    if keep_tables:
        tables.reverse()
    value = float(u[0 - bounds[0][0]])
    return RobustResult(value, KernelPolicy(n, tuple(levels)), state_count, tables)


def _shift_combine(u, weights, coords, base_offset, length):
    """sum_j w_j * u[s + c_j], accumulated in increasing-point order."""
    acc = None
    for w, c in zip(weights, coords):
        sl = u[base_offset + c : base_offset + c + length]
        acc = w * sl if acc is None else acc + w * sl
    return acc


def _as_table(lo, u):
    return {lo + i: float(v) for i, v in enumerate(u)}


def policy_value(
    set_: AmbiguitySet,
    policy: KernelPolicy,
    n: int,
    f: TestFunction,
    normalize: bool = True,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """Linear (non-robust) DP under a fixed kernel policy.

    Uses the same arithmetic as :func:`robust_value` with the max replaced
    by the policy's designated generator, so evaluating an extracted
    argmax policy reproduces the robust value bitwise.
    """
    if policy.n != n:
        raise InputError("POLICY_GAP", f"policy is for horizon {policy.n}, not {n}")
    bounds = _level_bounds(set_, n)
    _check_budget(bounds, 1, state_budget)
    _, masks = reachable_masks(set_, n)
    choices = []
    for k in range(1, n + 1):
        lo_prev, len_prev = bounds[k - 1]
        choice = policy.level_choices(k, lo_prev, len_prev)
        gap = masks[k - 1] & ((choice < 0) | (choice >= len(set_.generators)))
        if gap.any():
            state = lo_prev + int(np.argmax(gap))
            raise InputError(
                "POLICY_GAP", f"reachable state {state} at level {k} has no generator"
            )
        choices.append(choice)
    u = _terminal_values(set_, n, f, normalize, bounds)
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, _ = bounds[k]
        genidx = choices[k - 1]
        out = None
        for g, (gc, gen) in enumerate(zip(set_.coords, set_.generators)):
            cand = _shift_combine(u, gen.weights, gc, lo_prev + 0 - lo_k, len_prev)
            out = np.where(genidx == g, cand, cand if out is None else out)
        u = out
    return float(u[0 - bounds[0][0]])


# -- capacities --------------------------------------------------------


def _event_hit(kind: str, t: Fraction, step: Fraction):
    """The event's test on a real value ``x * step``, as a test on the integer ``x``.

    For ``step > 0`` and any ``t``: ``|x step| >= t`` iff ``|x| >= ceil(t / step)``,
    ``x step > t`` iff ``x > floor(t / step)`` and ``x step < t`` iff
    ``x < ceil(t / step)``.  The running-max and tail kinds test ``|.| >= t``.
    """
    ceil_t = math.ceil(t / step)
    if kind == "FINAL_GT":
        floor_t = math.floor(t / step)
        return lambda x: x > floor_t
    if kind == "FINAL_LT":
        return lambda x: x < ceil_t
    if kind == "FINAL_ABS_LT":
        return lambda x: np.abs(x) < ceil_t
    return lambda x: np.abs(x) >= ceil_t


def capacity(
    set_: AmbiguitySet,
    n: int,
    event: PathEvent,
    side: str = "UPPER",
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """Upper capacity V(event) or lower capacity v(event) at horizon ``n``.

    UPPER maximizes the event's indicator by robust DP, LOWER minimizes.
    Running-max events fold one boolean trigger flag into the state.
    """
    if n < 1:
        raise InputError("BAD_HORIZON", "horizon must be >= 1")
    if side not in ("UPPER", "LOWER"):
        raise InputError("BAD_SIDE", f"side must be UPPER or LOWER, got {side!r}")
    maximize = side == "UPPER"
    hit = _event_hit(event.kind, event.threshold, set_.lattice.step)
    if event.kind in _FLAG_KINDS:
        return _flagged_capacity(set_, n, event.kind, hit, maximize, state_budget)
    if event.kind == "TAIL_SUM_ABS_GE" and event.from_index > n:
        raise InputError(
            "UNSUPPORTED_EVENT", f"from_index {event.from_index} beyond horizon {n}"
        )
    return _final_capacity(set_, n, hit, maximize, state_budget, event.from_index or 0)


def final_abs_capacities(
    set_: AmbiguitySet, n: int, t, state_budget: int = DEFAULT_STATE_BUDGET
) -> List[float]:
    """``[V(|S_h| >= t) for h = 0..n]`` from one horizon-``n`` sweep.

    The kernel is stationary, so the level-k value at the state where
    S_k = 0 is the horizon-(n - k) capacity.
    """
    hit = _event_hit("FINAL_ABS_GE", to_fraction(t), set_.lattice.step)
    return _final_capacity(set_, n, hit, True, state_budget, 0, hold_zero=True)


def _final_capacity(set_, n, hit, maximize, state_budget, frozen_below, hold_zero=False):
    """Capacity of ``hit`` on the sum of the increments after level ``frozen_below``,
    or with ``hold_zero`` the value at the state where S_k = 0 per level, level n first."""
    bounds = _level_bounds(set_, n, frozen_below, hold_zero)
    _check_budget(bounds, 1, state_budget)
    origin = set_.lattice.origin
    better = np.greater if maximize else np.less
    lo_n, len_n = bounds[n]
    u = hit(np.arange(lo_n, lo_n + len_n) + (n - frozen_below) * origin).astype(float)
    at_zero = [float(u[-n * origin - lo_n])] if hold_zero else None
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, _ = bounds[k]
        moves = k > frozen_below
        best = None
        for gc, gen in zip(set_.coords, set_.generators):
            coords = gc if moves else (0,) * len(gc)
            cand = _shift_combine(u, gen.weights, coords, lo_prev + 0 - lo_k, len_prev)
            best = cand if best is None else np.where(better(cand, best), cand, best)
        u = best
        if hold_zero:
            at_zero.append(float(u[-(k - 1) * origin - lo_prev]))
    return at_zero if hold_zero else float(u[0 - bounds[0][0]])


def _flagged_capacity(set_, n, kind, hit, maximize, state_budget):
    """Running-max capacity; ``unset`` holds the values with the trigger unset.

    With the trigger set the event is certain and every state takes the same
    sums and extremes, so ``set_value`` is one float per level.  An increment
    trigger ignores the state, so that kind runs on one state per level.  The
    budget counts both flag values over the levels the sweep runs on.
    """
    partial = kind == "MAX_PARTIAL_ABS_GE"
    bounds = _level_bounds(set_, n, 0 if partial else n)
    _check_budget(bounds, 2, state_budget)
    origin = set_.lattice.origin
    better = np.greater if maximize else np.less
    atom_trig = [hit(np.array(gc) + origin) for gc in set_.coords]
    unset = np.zeros(bounds[n][1])
    set_value = 1.0
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, len_k = bounds[k]
        if partial:
            level_trig = hit(np.arange(lo_k, lo_k + len_k) + k * origin)
        best = best_set = None
        for gc, gen, trigs in zip(set_.coords, set_.generators, atom_trig):
            acc0 = acc1 = None
            for w, c, trig in zip(gen.weights, gc, trigs):
                a = lo_prev + (c if partial else 0) - lo_k
                if partial:
                    trig = level_trig[a : a + len_prev]
                from_unset = np.where(trig, set_value, unset[a : a + len_prev])
                acc0 = w * from_unset if acc0 is None else acc0 + w * from_unset
                acc1 = w * set_value if acc1 is None else acc1 + w * set_value
            if best is None:
                best, best_set = acc0, acc1
            else:
                best = np.where(better(acc0, best), acc0, best)
                best_set = acc1 if better(acc1, best_set) else best_set
        unset, set_value = best, best_set
    return float(unset[0 - bounds[0][0]])
