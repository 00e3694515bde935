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

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .ambiguity import AmbiguitySet, to_fraction
from .errors import InputError, check_budget
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
        if not isinstance(self.kind, str) or self.kind not in EVENT_KINDS:
            raise InputError("UNSUPPORTED_EVENT", f"unknown event kind {self.kind!r}")
        object.__setattr__(self, "threshold", to_fraction(self.threshold))
        if self.kind == "TAIL_SUM_ABS_GE":
            index = self.from_index
            if not isinstance(index, numbers.Integral) or isinstance(index, bool) or index < 0:
                raise InputError(
                    "UNSUPPORTED_EVENT",
                    f"TAIL_SUM_ABS_GE needs an integer from_index >= 0, got {index!r}",
                )
        elif self.from_index is not None:
            raise InputError("UNSUPPORTED_EVENT", f"{self.kind} takes no from_index")

    def describe(self) -> str:
        extra = f", from {self.from_index}" if self.from_index is not None else ""
        return f"{self.kind}({self.threshold}{extra})"


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


# -- shared helpers ----------------------------------------------------


def _move_bounds(minc: int, maxc: int, n: int):
    """(lo_k, length_k) of the sums of k moves in [minc, maxc], for k = 0..n."""
    return [(k * minc, k * (maxc - minc) + 1) for k in range(n + 1)]


def _level_bounds(set_: AmbiguitySet, n: int, frozen_below: int = 0, hold_zero: bool = False):
    """(lo_k, length_k) per level; levels <= frozen_below contribute no movement.

    ``hold_zero`` widens level k to hold state ``-k * origin``, where S_k = 0.
    """
    bounds = [(0, 1)] * frozen_below + _move_bounds(
        set_.min_coord, set_.max_coord, n - frozen_below
    )
    if hold_zero:
        origin = set_.lattice.origin
        for k, (lo, length) in enumerate(bounds):
            lo, hi = min(lo, -k * origin), max(lo + length - 1, -k * origin)
            bounds[k] = (lo, hi - lo + 1)
    return bounds


def _states(bounds) -> int:
    return sum(length for _, length in bounds)


def _level_states(set_: AmbiguitySet, n: int) -> int:
    """``_states(_level_bounds(set_, n))`` in closed form: (n + 1) + (max - min) n (n + 1) / 2."""
    return (n + 1) + (set_.max_coord - set_.min_coord) * n * (n + 1) // 2


def reachable_masks(set_: AmbiguitySet, n: int):
    """Boolean reachability per level over the level's state range.

    Reachability depends only on the distinct moves and the horizon, and the
    last result is kept: the policy builders, ``policy_value`` and
    ``simulate`` of one job share one forward pass.  The masks are read-only.
    """
    return _reachability(tuple(sorted({c for gc in set_.coords for c in gc})), n)


@functools.lru_cache(maxsize=1)
def _reachability(moves: Tuple[int, ...], n: int):
    bounds = tuple(_move_bounds(moves[0], moves[-1], n))
    masks = tuple(np.zeros(length, dtype=bool) for _, length in bounds)
    masks[0][0 - bounds[0][0]] = True
    for k in range(1, n + 1):  # OR is idempotent, so each distinct move shifts once
        lo_prev, len_prev = bounds[k - 1]
        lo_k, _ = bounds[k]
        for c in moves:
            a = lo_prev + c - lo_k
            masks[k][a : a + len_prev] |= masks[k - 1]
    for mask in masks:
        mask.flags.writeable = False
    return bounds, masks


def _reachable_choices(set_: AmbiguitySet, policy: KernelPolicy, n: int):
    """``(choices, level, chosen, bounds, masks)`` of ``policy`` on ``set_``'s reachability.

    ``choices[k - 1]`` covers level k's states; ``chosen`` lists the choice at
    every reachable state of levels 1..n, level-major, and ``level`` its level - 1.
    """
    bounds, masks = reachable_masks(set_, n)
    choices = [policy.level_choices(k, *bounds[k - 1]) for k in range(1, n + 1)]
    reach = np.concatenate(masks[:n])
    ids = np.arange(n, dtype=np.min_scalar_type(n - 1))
    level = np.repeat(ids, [length for _, length in bounds[:n]])[reach]
    return choices, level, np.concatenate(choices)[reach], bounds, masks


def _invalid(choice, generator_count: int):
    """Where ``choice`` names no generator, tested in its own dtype."""
    return (choice < 0) | (choice >= generator_count)


def _terminal_values(set_: AmbiguitySet, n: int, f: TestFunction, normalize: bool, states):
    """``f(S_n / n)``, or ``f(S_n)`` without ``normalize``, at level-n lattice states.

    A value that is not finite is ``UNBOUNDED_EVAL``: no sweep or simulation sees NaN.
    """
    xs = (states + n * set_.lattice.origin) * float(set_.lattice.step)
    if normalize:
        xs = xs / n
    values = np.asarray(f(xs), dtype=float)
    if not np.isfinite(values).all():
        raise InputError("UNBOUNDED_EVAL", f"{f.describe()} overflows on the lattice")
    return values


#: the combine rule on two Python floats: the same strict test, false on NaN
_SCALAR_RULE = {np.greater: operator.gt, np.less: operator.lt}


def _sweep(moves, weights, bounds, u, rule, absorb=None, record=None, visit=None) -> float:
    """Backward induction ``u_{k-1}(s) = extremize_g sum_j w_j u_k(s + x_j)``; u_0 at state 0.

    ``moves[k - 1][g]``: generator g's integer atom moves into level k (zeros on
    frozen levels); ``weights[g]``: its atom weights; ``bounds[k] = (lo, length)``:
    the states stored at level k; ``u``: the last level's values.  ``rule`` is
    ``np.greater`` (max), ``np.less`` (min) or a fixed policy's per-level
    ``(choices, designated generators)``; a fixed level evaluates only the
    generators it designates, so a state designating none keeps another's value.
    With ``absorb`` (max or min), a move off level k's stored states reads one
    float, which follows the same recursion.  ``record`` gets the argmax per
    level and ``visit(k, u)`` every level, as an array or a list.  The order is
    fixed (states, generators, then atoms in increasing-point order), so results
    are bitwise reproducible.

    A level whose lower level stores one state (every level of an increment
    trigger, a frozen prefix, the last step of every sweep) runs on Python
    floats and leaves a one-float list: the same products summed in the same
    order and the same strict tests as a one-element slice, at a fraction of
    numpy's per-call cost.  The absorbing value is always stepped that way.
    """
    n = len(bounds) - 1
    fixed = not callable(rule)
    better = None if fixed else _SCALAR_RULE[rule]
    dtype = _choice_dtype(len(weights))
    if visit is not None:
        visit(n, u)
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, len_k = bounds[k]
        gens = rule[k - 1][1] if fixed else range(len(weights))
        if len_prev == 1:
            values = u if isinstance(u, list) else u.tolist()
            best, arg = None, 0
            for g in gens:
                cand = None
                for w, c in zip(weights[g], moves[k - 1][g]):
                    a = lo_prev + c - lo_k
                    x = values[a] if absorb is None or 0 <= a < len_k else absorb
                    cand = w * x if cand is None else cand + w * x
                if best is None:
                    best = cand
                elif rule[k - 1][0][0] == g if fixed else better(cand, best):
                    best, arg = cand, g
            u = [best]
            if record is not None:
                record[k - 1] = np.array([arg], dtype=dtype)
        else:
            if absorb is not None:
                pad = np.full(len_prev, absorb)
                u = np.concatenate((pad, u, pad))
            if record is not None:
                arg = record[k - 1] = np.zeros(len_prev, dtype=dtype)
            best = None
            for g in gens:
                cand = None
                for w, c in zip(weights[g], moves[k - 1][g]):
                    a = lo_prev + c - lo_k
                    if absorb is not None:  # a slice wholly off the stored states reads padding
                        a = min(max(a, -len_prev), len_k) + len_prev
                    sl = u[a : a + len_prev]
                    if cand is None:
                        cand = w * sl
                    else:
                        cand += w * sl
                if best is None:
                    best = cand
                else:  # best and cand are this level's own arrays, so update in place
                    mask = rule[k - 1][0] == g if fixed else rule(cand, best)
                    np.putmask(best, mask, cand)
                    if record is not None:
                        np.putmask(arg, mask, g)
            u = best
        if absorb is not None:
            best_absorb = None
            for g in gens:
                acc = None
                for w in weights[g]:
                    acc = w * absorb if acc is None else acc + w * absorb
                if best_absorb is None or better(acc, best_absorb):
                    best_absorb = acc
            absorb = best_absorb
        if visit is not None:
            visit(k - 1, u)
    return float(u[0 - bounds[0][0]])


def _weights(set_: AmbiguitySet):
    return [gen.weights for gen in set_.generators]


# -- robust value and policy evaluation --------------------------------


def _upper_terminal(set_, n, f, normalize, state_budget):
    """Checked level bounds, their state count and the terminal values of an upper sweep."""
    if n < 1:
        raise InputError("BAD_HORIZON", "horizon must be >= 1")
    if normalize and not f.bounded:
        raise InputError("UNBOUNDED_F", f"{f.describe()} is unbounded; use moment mode")
    bounds = _level_bounds(set_, n)
    state_count = check_budget(_states(bounds), state_budget)
    lo, length = bounds[n]
    u = _terminal_values(set_, n, f, normalize, np.arange(lo, lo + length))
    return bounds, state_count, u


def upper_value(
    set_: AmbiguitySet,
    n: int,
    f: TestFunction,
    normalize: bool = True,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """``robust_value(...).value`` bitwise, without the policy or reachability masks."""
    bounds, _, u = _upper_terminal(set_, n, f, normalize, state_budget)
    return _sweep([set_.coords] * n, _weights(set_), bounds, u, np.greater)


def robust_value(
    set_: AmbiguitySet,
    n: int,
    f: TestFunction,
    normalize: bool = True,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> RobustResult:
    """Upper expectation of ``f(S_n / n)`` (or ``f(S_n)`` with ``normalize=False``).

    Backward induction ``u_n(s) = f(s/n)``, ``u_{k-1}(s) = max_g sum_j
    w_j u_k(s + x_j)``, with the argmax recorded as the extracted
    worst-case kernel policy.  :func:`upper_value` computes the value alone.
    """
    bounds, state_count, u = _upper_terminal(set_, n, f, normalize, state_budget)
    _, masks = reachable_masks(set_, n)
    args = [None] * n
    value = _sweep([set_.coords] * n, _weights(set_), bounds, u, np.greater, record=args)
    for k, arg in enumerate(args):
        arg[~masks[k]] = -1
    levels = tuple((bounds[k][0], arg) for k, arg in enumerate(args))
    return RobustResult(value, KernelPolicy(n, levels), state_count)


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
    if n < 1:
        raise InputError("BAD_HORIZON", "horizon must be >= 1")
    if policy.n != n:
        raise InputError("POLICY_GAP", f"policy is for horizon {policy.n}, not {n}")
    check_budget(_level_states(set_, n), state_budget)
    generator_count = len(set_.generators)
    choices, level, chosen, bounds, masks = _reachable_choices(set_, policy, n)
    gap = _invalid(chosen, generator_count)
    if gap.any():
        k = int(level[np.argmax(gap)]) + 1
        state = bounds[k - 1][0] + int(
            np.argmax(masks[k - 1] & _invalid(choices[k - 1], generator_count))
        )
        raise InputError(
            "POLICY_GAP", f"reachable state {state} at level {k} has no generator"
        )
    # unreachable states never feed reachable ones, so each level sweeps only
    # the generators designated at its reachable states
    designated = np.zeros((n, generator_count), dtype=bool)
    designated[level, chosen] = True
    rule = [
        (choice, [g for g, used in enumerate(row) if used])
        for choice, row in zip(choices, designated.tolist())
    ]
    lo, length = bounds[n]
    u = _terminal_values(set_, n, f, normalize, np.arange(lo, lo + length))
    return _sweep([set_.coords] * n, _weights(set_), bounds, u, rule)


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
    Running-max events keep the triggered paths as one absorbing value.
    """
    if n < 1:
        raise InputError("BAD_HORIZON", "horizon must be >= 1")
    if side not in ("UPPER", "LOWER"):
        raise InputError("BAD_SIDE", f"side must be UPPER or LOWER, got {side!r}")
    better = np.greater if side == "UPPER" else np.less
    if event.kind in _FLAG_KINDS:
        return _flagged_capacity(set_, n, event, better, state_budget)
    if event.kind == "TAIL_SUM_ABS_GE" and event.from_index > n:
        raise InputError(
            "UNSUPPORTED_EVENT", f"from_index {event.from_index} beyond horizon {n}"
        )
    hit = _event_hit(event.kind, event.threshold, set_.lattice.step)
    return _final_capacity(set_, n, hit, better, state_budget, event.from_index or 0)


def final_abs_capacities(
    set_: AmbiguitySet, n: int, t, state_budget: int = DEFAULT_STATE_BUDGET
) -> List[float]:
    """``[V(|S_h| >= t) for h = 0..n]`` from one horizon-``n`` sweep.

    The kernel is stationary, so the level-k value at the state where
    S_k = 0 is the horizon-(n - k) capacity.
    """
    hit = _event_hit("FINAL_ABS_GE", to_fraction(t), set_.lattice.step)
    return _final_capacity(set_, n, hit, np.greater, state_budget, 0, hold_zero=True)


def _final_capacity(set_, n, hit, better, state_budget, frozen_below, hold_zero=False):
    """Capacity of ``hit`` on the sum of the increments after level ``frozen_below``,
    or with ``hold_zero`` the value at the state where S_k = 0 per level, level n first."""
    bounds = _level_bounds(set_, n, frozen_below, hold_zero)
    check_budget(_states(bounds), state_budget)
    origin = set_.lattice.origin
    lo_n, len_n = bounds[n]
    u = hit(np.arange(lo_n, lo_n + len_n) + (n - frozen_below) * origin).astype(float)
    still = tuple((0,) * len(gc) for gc in set_.coords)
    moves = [still] * frozen_below + [set_.coords] * (n - frozen_below)
    at_zero = []

    def visit(k, values):
        at_zero.append(float(values[-k * origin - bounds[k][0]]))

    value = _sweep(moves, _weights(set_), bounds, u, better, visit=visit if hold_zero else None)
    return at_zero if hold_zero else value


def _flagged_capacity(set_, n, event, better, state_budget):
    """Running-max capacity; triggered paths share one absorbing value, 1.0 at level n.

    Level k stores only the untriggered partial sums ``|S_k| < t``.  An increment
    trigger ignores the state, so that kind runs on state 0 and a triggering atom
    moves to state 1, off the stored state: every level holds one state, which
    the kernel steps on Python floats.  The budget counts two flag values per
    ordinary level-state, or per level for increments.
    """
    origin, step = set_.lattice.origin, set_.lattice.step
    if event.kind == "MAX_PARTIAL_ABS_GE":
        bounds = _level_bounds(set_, n)
        check_budget(2 * _states(bounds), state_budget)
        ceil_t = math.ceil(event.threshold / step)  # as in _event_hit
        for k in range(1, n + 1):
            lo, length = bounds[k]
            a, b = max(lo, 1 - ceil_t - k * origin), min(lo + length, ceil_t - k * origin)
            bounds[k] = (a, max(0, b - a))
        moves = [set_.coords] * n
    else:
        bounds = [(0, 1)] * (n + 1)
        check_budget(2 * _states(bounds), state_budget)
        hit = _event_hit(event.kind, event.threshold, step)
        moves = [tuple(tuple(int(hit(c + origin)) for c in gc) for gc in set_.coords)] * n
    return _sweep(moves, _weights(set_), bounds, np.zeros(bounds[n][1]), better, absorb=1.0)
