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

import bisect
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .ambiguity import AmbiguitySet, to_fraction
from .errors import InputError, check_budget, check_horizon
from .functions import TestFunction, blocks

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
            check_horizon(self.from_index, "UNSUPPORTED_EVENT", "TAIL_SUM_ABS_GE's from_index", least=0)
        elif self.from_index is not None:
            raise InputError("UNSUPPORTED_EVENT", f"{self.kind} takes no from_index")

    def check_within(self, n: int) -> None:
        """Refuse a tail sum from an index beyond horizon ``n``."""
        if self.kind == "TAIL_SUM_ABS_GE" and self.from_index > n:
            raise InputError("UNSUPPORTED_EVENT", f"from_index {self.from_index} beyond horizon {n}")

    def describe(self) -> str:
        extra = f", from {self.from_index}" if self.from_index is not None else ""
        return f"{self.kind}({self.threshold}{extra})"


class _Frame(NamedTuple):
    """A set's moves on their own progression: with a the lowest move and d the gcd of
    the moves less a, every move is a + d t, t = 0..s, and level k's states are the
    progression k a + d j, j = 0..k s.  Every sweep stores and indexes level k by j."""

    a: int
    d: int
    moves: Tuple[Tuple[int, ...], ...]  # generator g's moves as t = (c - a) / d
    s: int
    steps: Tuple[int, ...]  # the distinct t of the generators, increasing

    def bounds(self, n: int):
        """``(0, k s + 1)`` per level k = 0..n: the j that ``_sweep`` stores."""
        return [(0, k * self.s + 1) for k in range(n + 1)]

    def states(self, k: int) -> np.ndarray:
        """Level k's states as integers, k a + d j."""
        return k * self.a + self.d * np.arange(k * self.s + 1)

    def start(self, k):
        """Where level k starts with levels 0, 1, ... laid end to end: the states below it."""
        return self.s * k * (k - 1) // 2 + k


def _frame(set_: AmbiguitySet, hold_zero: bool = False) -> _Frame:
    """``set_``'s frame; ``hold_zero`` takes the move -origin into a and d, so that the
    state -k origin, where S_k = 0, lies on every level's progression."""
    return _frame_of(set_.coords, frozenset({-set_.lattice.origin} if hold_zero else ()))


def _int64_frame(set_: AmbiguitySet, n: int, hold_zero: bool = False) -> _Frame:
    """``_frame(set_, hold_zero)``; BAD_LATTICE unless d and level n's int64 states n a + d j (d j
    may wrap), plus n origin or not, fit: n max(|a|, |b|, |a + origin|, |b + origin|) < 2^63."""
    frame = _frame(set_, hold_zero)
    ends = (frame.a, frame.a + frame.s * frame.d)
    widest = n * max(abs(c + shift) for c in ends for shift in (0, set_.lattice.origin))
    if max(widest, frame.d) > 2**63 - 1:
        raise InputError("BAD_LATTICE", f"sums of {n} steps on lattice step {set_.lattice.step} overflow int64")
    return frame


@functools.lru_cache(maxsize=4)  # a job's frames: one set, with and without hold_zero
def _frame_of(coords: Tuple[Tuple[int, ...], ...], held: frozenset) -> _Frame:
    moves = {c for gc in coords for c in gc}
    a, b = min(moves | held), max(moves | held)
    d = math.gcd(*(c - a for c in moves | held)) or 1  # one move: one state per level
    ts = tuple(tuple((c - a) // d for c in gc) for gc in coords)
    return _Frame(a, d, ts, (b - a) // d, tuple(sorted((c - a) // d for c in moves)))


@dataclass(frozen=True, eq=False)
class KernelPolicy:
    """Deterministic Markov kernel policy: one generator index per (level, pre-step state).

    ``levels[k - 1] = (lo, choice)``, an integer and a 1-D signed integer array (else
    BAD_POLICY), covers level ``k`` of the horizon ``n``: ``choice[i]`` is the generator
    designated at state ``lo + step * i``, and ``-1`` none; the arrays are made read-only.
    ``step`` is 1 by default, and a set's d for a policy built on its frame (:func:`robust_value`,
    ``constant_policy``), so ``KernelPolicy(n, p.levels, p.step)`` rebuilds a policy ``p``.
    """

    n: int
    levels: Tuple[Tuple[int, np.ndarray], ...]
    step: int = 1
    # (frame, array) of a built policy: its levels are the frame's, views of array
    _framed: Optional[Tuple[_Frame, np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.levels, (tuple, list)) or len(self.levels) != check_horizon(self.n):
            raise InputError("BAD_POLICY", f"a policy for horizon {self.n} takes a sequence of {self.n} levels")
        check_horizon(self.step, "BAD_POLICY", "policy step")
        for k, level in enumerate(self.levels, start=1):
            if self._framed is None:  # a built policy's levels are its frame's
                if not (isinstance(level, tuple) and len(level) == 2):
                    raise InputError("BAD_POLICY", f"level {k} must be a pair (lo, choice)")
                check_horizon(level[0], "BAD_POLICY", f"level {k}'s lo", least=None)
                if not (isinstance(level[1], np.ndarray) and level[1].ndim == 1 and level[1].dtype.kind == "i"):
                    raise InputError("BAD_POLICY", f"level {k}'s choice must be a 1-D signed integer array")
            if level[1].flags.writeable:  # a sealed policy's views are read-only already
                level[1].setflags(write=False)

    def level_choices(self, level: int, lo: int, length: int, step: int = 1) -> np.ndarray:
        """Choices at ``level`` at the states ``lo + step * i``, i < ``length``, -1 where none."""
        plo, choice = self.levels[level - 1]
        if (plo, len(choice), self.step) == (lo, length, step):
            return choice
        out = np.full(length, -1, dtype=choice.dtype)
        i, off = np.divmod(lo - plo + step * np.arange(length), self.step)
        at = (off == 0) & (0 <= i) & (i < len(choice))
        out[at] = choice[i[at]]
        return out


@dataclass(frozen=True)
class RobustResult:
    value: float
    policy: KernelPolicy
    state_count: int


# -- shared helpers ----------------------------------------------------


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


_NO_HOLES = _read_only(np.zeros(0, dtype=np.intp))


def _zero_bits(bits: int, width: int) -> List[int]:
    """The positions below ``width`` of the bits of ``bits`` that are 0, increasing."""
    free = ~bits & ((1 << width) - 1)
    out = []
    while free:
        low = free & -free
        out.append(low.bit_length() - 1)
        free ^= low
    return out


@functools.lru_cache(maxsize=1)
def _reachability(ts: Tuple[int, ...], n: int):
    """Level k's reachable j, the k-fold sumset of a frame's ``steps`` T, in closed form.

    T runs from 0 to s with gcd 1, so every j in [(s - 1)^2, k s - (s - 1)^2] is
    reachable: T generates Z/s, so j's residue is that of a sum y of c <= s - 1
    elements of T inside (0, s), where c <= y <= c (s - 1), and j = y + q s with
    q >= 0 summands s and k - c - q >= 0 zeros.  The unreachable j, the holes,
    thus lie fewer than E = (s - 1)^2 + 1 steps from either end (Nathanson, "Sums
    of finite sets of integers", Amer. Math. Monthly 79, 1972, for the form).  The
    low window, j < E, of level k is a function of level k - 1's (no summand is
    negative), as is the high window, k s - j < E, and both only grow (0 and s are
    in T): once both repeat and k s >= 2E - 1 every later level has one pattern.
    The windows are stepped as Python-int bit sets until then, about 2s levels,
    and no level is built.

    Returns ``(holes, flat)``: ``holes[k]``, for k = 0..n, level k's holes in
    increasing order of j, those near the top counted from the end (-1 is
    j = k s), so every level from the repeat on shares one array.  ``flat`` lists
    the holes of levels 0..n - 1, the pre-step states of steps 1..n, as indices
    into their progressions laid end to end, increasing.  The arrays are read-only,
    and the last result is kept: the policy builders and ``simulate`` of a job share it.
    """
    s, start = ts[-1], _Frame(0, 1, (ts,), ts[-1], ts).start  # the frame of the steps alone
    E = (s - 1) ** 2 + 1
    full = (1 << E) - 1
    low = high = 1  # bit j: the state j steps from the low (high) end is reachable
    holes, steady = [_NO_HOLES], n + 1
    for k in range(1, n + 1):
        prev = low, high
        low = functools.reduce(operator.or_, [low << t for t in ts]) & full
        high = functools.reduce(operator.or_, [high << (s - t) for t in ts]) & full
        top = k * s
        # the low window's holes, then the top's beyond it, counted from the end
        level = _zero_bits(low, min(E, top + 1))
        level += [-1 - h for h in reversed(_zero_bits(high, min(E, max(0, top + 1 - E))))]
        holes.append(_read_only(np.array(level, dtype=np.intp)) if level else _NO_HOLES)
        if (low, high) == prev and (top >= 2 * E - 1 or s == 0):  # s = 0: one state a level
            steady = k
            holes += holes[-1:] * (n - k)
            break
    pieces = [h % (s * k + 1) + start(k) for k, h in enumerate(holes[: min(steady, n)]) if len(h)]
    if steady < n and len(holes[-1]):
        ks = np.arange(steady, n)[:, None]
        pieces.append((holes[-1] % (s * ks + 1) + start(ks)).ravel())
    flat = _read_only(np.concatenate(pieces)) if pieces else _NO_HOLES
    return tuple(holes), flat


def reachable_masks(set_: AmbiguitySet, n: int):
    """``(bounds, masks)``: per level k = 0..n the hull ``(lo, length)`` of the sums of k
    moves and its boolean reachability, cached and read-only.  No sweep reads them:
    this is the one place that lays the frame back onto the hull.  Its d s n (n + 1) / 2 + n + 1
    cells are charged against the default state budget."""
    frame = _int64_frame(set_, n)
    check_budget(frame.d * frame.s * n * (n + 1) // 2 + n + 1, DEFAULT_STATE_BUDGET)
    return _dense_masks(frame, n)


@functools.lru_cache(maxsize=1)
def _dense_masks(frame: _Frame, n: int):
    bounds, masks = [], []
    for k, h in enumerate(_reachability(frame.steps, n)[0]):
        mask = np.zeros(frame.d * k * frame.s + 1, dtype=bool)
        mask[:: frame.d] = True
        mask[:: frame.d][h] = False
        bounds.append((k * frame.a, len(mask)))
        masks.append(_read_only(mask))
    return tuple(bounds), tuple(masks)


def _frame_levels(set_: AmbiguitySet, n: int, fill: int):
    """``(levels, seal)``: ``levels()[k - 1] = (lo, choice)`` over level k - 1's progression,
    k = 1..n, views of one array filled with ``fill`` and laid out as ``flat`` counts; ``seal()``
    writes -1 at every unreachable state and returns the policy on read-only views."""
    frame = _frame(set_)
    flat = _reachability(frame.steps, n)[1]
    array = np.full(frame.start(n), fill, dtype=np.min_scalar_type(-len(set_.generators)))
    cuts = frame.start(np.arange(n + 1)).tolist()  # level k's states are array[cuts[k] : cuts[k + 1]]

    def levels():
        return tuple((k * frame.a, array[i:j]) for k, (i, j) in enumerate(zip(cuts, cuts[1:])))

    def seal():
        array[flat] = -1
        _read_only(array)  # first, so that the views of levels() come out read-only
        return KernelPolicy(n, levels(), frame.d, (frame, array))

    return levels, seal


def _reachable_choices(set_: AmbiguitySet, policy: KernelPolicy, n: int):
    """``(choices, chosen)`` of ``policy`` on ``set_``'s frame.

    ``choices[k - 1]`` covers level k - 1's progression.  ``chosen`` lays them end to
    end, each hole overwritten by the choice at level 1's one state, 0: its distinct
    values are the choices at the reachable states.  A policy built on this frame
    hands over its own array; any other is read level by level.
    """
    frame = _frame(set_)
    flat = _reachability(frame.steps, n)[1]
    if policy._framed is not None and policy._framed[0] == frame and policy.n == n:
        choices = [choice for _, choice in policy.levels]
        chosen = policy._framed[1].copy()
    else:
        choices = [
            policy.level_choices(k, (k - 1) * frame.a, (k - 1) * frame.s + 1, frame.d)
            for k in range(1, n + 1)
        ]
        chosen = np.concatenate(choices)
    chosen[flat] = chosen[0]
    return choices, chosen


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


def _sweep(moves, weights, bounds, u, choices=None, absorb=None, record=None, visit=None):
    """Backward induction ``u_{k-1}(s) = max_g sum_j w_j u_k(s + x_j)``; u_0 at state 0.

    The kernel is stationary: ``moves[g]`` holds generator g's integer atom moves
    at every level and ``weights[g]`` its atom weights; ``bounds[k] = (lo, length)``:
    the states stored at level k; ``u``: the last level's values.  A state keeps the
    first generator's candidate that no later one beats by the strict ``>``, or,
    with ``choices``, a fixed policy's per-level choice arrays over the stored
    states, generator 0's unless its choice names a later one.  With ``absorb``, a
    move off level k's stored states reads one float, which follows the same max.
    ``record[k - 1]``, a zeroed array over level k - 1's stored states, gets the
    argmax of step k, and ``visit(k, u)`` every level, as an array or a list.  The
    order is fixed (states, generators, then atoms in increasing-point order), so
    results are bitwise reproducible.  A LOWER capacity is the negated max of the
    negated indicator (see :func:`capacity`).  For a plain max ``u`` may list terminal
    rows ``(h, values)``, n the largest h (see :func:`_upper_values`): each joins as a column
    at level h and sees its own horizon-h sweep's products and tests, and the rows' values
    come back in order.

    A level whose lower level stores one state (every level of an increment
    trigger or of a tail sum's prefix, the last step of every sweep) runs on Python
    floats, unless ``u`` lists rows, and leaves a one-float list: the same products summed
    in the same order and the same strict tests as a one-element slice, at a fraction of
    numpy's per-call cost, as is the absorbing value until a step returns it bitwise
    unchanged.  Levels of L > 1 states and G >= L generators run in :func:`_wide_level`.
    """
    n = len(bounds) - 1
    many = isinstance(u, list)
    if many:  # rows join by decreasing h, ties in their order
        order = sorted(range(len(u)), key=lambda i: -u[i][0])
        joins = {h: [u[i][1] for i in order if u[i][0] == h] for h, _ in u}
        u = np.column_stack(joins.pop(n))
    terms, memo, settled = None, [], False
    if visit is not None:
        visit(n, u)
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, len_k = bounds[k]
        if len_prev == 1 and not many:
            values = u if isinstance(u, list) else u.tolist()
            best, arg = None, 0
            for g in range(len(weights)):
                cand = None
                for w, c in zip(weights[g], moves[g]):
                    a = lo_prev + c - lo_k
                    x = values[a] if absorb is None or 0 <= a < len_k else absorb
                    cand = w * x if cand is None else cand + w * x
                if best is None:
                    best = cand
                elif cand > best if choices is None else choices[k - 1][0] == g:
                    best, arg = cand, g
            u = [best]
        elif 1 < len_prev <= len(weights):
            choice = None if choices is None else choices[k - 1]
            u, arg = _wide_level(moves, weights, memo, u, lo_prev - lo_k, len_prev, absorb, choice)
        else:
            if absorb is not None:
                pad = np.full(len_prev, absorb)
                u = np.concatenate((pad, u, pad))
            best = None
            terms = terms or [[(np.array(w), c) for w, c in zip(gw, gm)] for gw, gm in zip(weights, moves)]
            for g, gterms in enumerate(terms):
                cand = None
                for w, c in gterms:  # w a 0-d array: cheaper than a Python float times a slice
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
                    mask = cand > best if choices is None else choices[k - 1] == g
                    np.putmask(best, mask, cand)
                    if record is not None:
                        np.putmask(record[k - 1], mask, g)
            u = best
        if record is not None and len_prev <= len(weights):  # the slices write their own
            record[k - 1][...] = arg
        if absorb is not None and not settled:  # stepped until a step returns it bitwise
            sums = [functools.reduce(operator.add, [w * absorb for w in gw]) for gw in weights]
            step = functools.reduce(lambda best, x: x if x > best else best, sums)  # the strict >
            settled, absorb = step == absorb and math.copysign(1, step) == math.copysign(1, absorb), step
        if many and k - 1 in joins:
            u = np.column_stack((u, *joins.pop(k - 1)))
        if visit is not None:
            visit(k - 1, u)
    top = u[0 - bounds[0][0]]
    return top[np.argsort(order)].tolist() if many else float(top)


def _wide_level(moves, weights, memo, u, shift, length, absorb, choice):
    """One ``_sweep`` level in generator blocks, ``(values, argmax)``: the README's "One
    Bellman kernel" gives the rule.  ``memo`` keeps the layout of the sweep's last such level."""
    edge, key = length * (absorb is not None), (shift, length, np.shape(u), absorb is None)
    if memo[:1] != [key]:  # ext: the padding, u, the padding, then the zero window at span
        span = len(u) + 2 * edge
        ext = np.zeros((span + length,) + np.shape(u)[1:])
        windows = np.ndarray((span + 1, length) + ext.shape[1:], float, ext, 0, ext.strides[:1] + ext.strides)
        c = np.array(list(zip_longest(*moves, fillvalue=0)))  # int64, or object beyond it
        start = np.minimum(np.maximum(c + shift, -edge), len(u)).astype(np.intp) + edge
        w = np.array(list(zip_longest(*weights, fillvalue=math.nan)))[..., None]  # nan: a missing atom
        start[np.isnan(w[..., 0])], w[np.isnan(w)] = span, -0.0  # -0.0 times 0.0 adds nothing
        flat, ids = np.arange(ext[:length].size), np.arange(len(moves))[:, None]
        gens = [slice(g.start, g.stop) for g in blocks(range(len(moves)), len(c) * len(flat))]
        memo[:] = key, ext, windows, flat, [(g.start, start[:, g], w[:, g], ids[g]) for g in gens]
    _, ext, windows, flat, gens = memo
    ext[edge : edge + len(u)] = u
    ext[:edge] = ext[-length - edge : -length] = absorb if edge else 0.0  # no padding without absorb
    for g0, at, wg, ids in gens:
        terms = windows[at].reshape(*at.shape, -1)  # terms[a, g, i] = ext[at[a, g] + i]
        terms *= wg
        cand = functools.reduce(operator.iadd, terms)  # atom by atom, into terms[0]
        rank = cand if choice is None else ids == choice  # the chosen generator, or generator 0
        if choice is None and math.isnan(np.maximum.reduce(rank, None)):  # argmax takes NaN, > not
            rank = np.where(np.isnan(rank), np.where(ids == 0, np.inf, -np.inf), rank)
        pick = rank.argmax(0)
        value = cand[pick, flat]
        if g0:  # a later block wins by the strict >, or by holding the choice
            mask = value > best if choice is None else rank[pick, flat]
            value, pick = np.where(mask, value, best), np.where(mask, pick + g0, arg)
        best, arg = value, pick
    return best.reshape(ext[:length].shape), arg


def _weights(set_: AmbiguitySet):
    return [gen.weights for gen in set_.generators]


# -- robust value and policy evaluation --------------------------------


def _upper_terminal(set_, n, f, normalize, state_budget):
    """The frame, its checked state count and the terminal values of an upper sweep."""
    check_horizon(n)
    if normalize and not f.bounded:
        raise InputError("UNBOUNDED_F", f"{f.describe()} is unbounded; use moment mode")
    frame = _int64_frame(set_, n)
    state_count = check_budget(frame.start(n + 1), state_budget)
    return frame, state_count, _terminal_values(set_, n, f, normalize, frame.states(n))


def upper_value(
    set_: AmbiguitySet,
    n: int,
    f: TestFunction,
    normalize: bool = True,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """``robust_value(...).value`` bitwise, without the policy or reachability."""
    return _upper_values(set_, [n], f, normalize, state_budget)[0]


def _upper_values(set_, horizons, f, normalize, state_budget) -> List[float]:
    """:func:`upper_value` at every horizon, all checked first, in list order, from one sweep
    of a row per horizon, or from one sweep each if their terminals outgrow ``state_budget``."""
    rows = [(n, _upper_terminal(set_, n, f, normalize, state_budget)[2]) for n in horizons]
    frame, weights = _frame(set_), _weights(set_)
    if sum(len(u) for _, u in rows) > state_budget:  # the states one sweep holds at once
        return [_sweep(frame.moves, weights, frame.bounds(n), [(n, u)])[0] for n, u in rows]
    return _sweep(frame.moves, weights, frame.bounds(max(horizons)), rows) if rows else []


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
    frame, state_count, u = _upper_terminal(set_, n, f, normalize, state_budget)
    levels, seal = _frame_levels(set_, n, 0)
    record = [choice for _, choice in levels()]
    value = _sweep(frame.moves, _weights(set_), frame.bounds(n), u, record=record)
    return RobustResult(value, seal(), state_count)


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
    argmax policy reproduces the robust value bitwise.  Unreachable states
    never feed reachable ones, so only reachable states need a generator.
    """
    frame, _, u = _upper_terminal(set_, n, f, normalize, state_budget)
    if policy.n != n:
        raise InputError("POLICY_GAP", f"policy is for horizon {policy.n}, not {n}")
    choices, chosen = _reachable_choices(set_, policy, n)
    gaps = _invalid(chosen, len(set_.generators))
    if gaps.any():  # the first in chosen's order: level by level, increasing states
        i = int(np.argmax(gaps))
        k = bisect.bisect_right(range(n), i, key=frame.start)
        state = (k - 1) * frame.a + frame.d * (i - frame.start(k - 1))
        raise InputError("POLICY_GAP", f"reachable state {state} at level {k} has no generator")
    return _sweep(frame.moves, _weights(set_), frame.bounds(n), u, choices)


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

    UPPER maximizes the event's indicator by robust DP.  LOWER, v(A) = -V[-1_A], is
    the negated max of the indicator times ``sign`` -1.0: bitwise the min, as no
    term is negative and the zeros, all -0.0, negate back to 0.0.
    Running-max events keep the triggered paths as one absorbing value.
    """
    check_horizon(n)
    if side not in ("UPPER", "LOWER"):
        raise InputError("BAD_SIDE", f"side must be UPPER or LOWER, got {side!r}")
    event.check_within(n)
    sign = 1.0 if side == "UPPER" else -1.0
    if event.kind in _FLAG_KINDS:
        return sign * _flagged_capacity(set_, n, event, sign, state_budget)
    hit = _event_hit(event.kind, event.threshold, set_.lattice.step)
    return sign * _final_capacity(set_, n, hit, sign, state_budget, event.from_index or 0)


def final_abs_capacities(
    set_: AmbiguitySet, n: int, t, state_budget: int = DEFAULT_STATE_BUDGET
) -> List[float]:
    """``[V(|S_h| >= t) for h = 0..n]`` from one horizon-``n`` sweep.

    The kernel is stationary, so the level-k value at the state where
    S_k = 0 is the horizon-(n - k) capacity.
    """
    check_horizon(n)
    hit = _event_hit("FINAL_ABS_GE", to_fraction(t), set_.lattice.step)
    return _final_capacity(set_, n, hit, 1.0, state_budget, 0, hold_zero=True)


def _final_capacity(set_, n, hit, sign, state_budget, from_index, hold_zero=False):
    """Capacity of ``sign * hit`` on the sum of the increments after level ``from_index``,
    or with ``hold_zero`` the value at the state where S_k = 0 per level, level n first.
    The levels up to ``from_index`` move nothing: a sweep of one-state levels of their own."""
    h = n - from_index
    frame, origin = _int64_frame(set_, h, hold_zero), set_.lattice.origin
    check_budget(from_index + frame.start(h + 1), state_budget)
    u = sign * hit(frame.states(h) + h * origin)
    weights, at_zero = _weights(set_), []
    zero = (-origin - frame.a) // frame.d  # S_k = 0 at j = k zero, a state under hold_zero

    def visit(k, values):
        at_zero.append(float(values[k * zero]))

    bounds = frame.bounds(h)
    value = _sweep(frame.moves, weights, bounds, u, visit=visit if hold_zero else None)
    still = tuple((0,) * len(gc) for gc in set_.coords)
    value = _sweep(still, weights, [(0, 1)] * (from_index + 1), np.array([value]))
    return at_zero if hold_zero else value


def _flagged_capacity(set_, n, event, sign, state_budget):
    """Running-max capacity of ``sign`` times the indicator; triggered paths absorb at ``sign``.

    Level k stores only the untriggered partial sums ``|S_k| < t``.  An increment
    trigger ignores the state, so that kind runs on state 0 and a triggering atom
    moves to state 1, off the stored state: every level holds one state, which
    the kernel steps on Python floats.  The budget counts two flag values per
    ordinary level-state, or per level for increments.
    """
    origin, step = set_.lattice.origin, set_.lattice.step
    if event.kind == "MAX_PARTIAL_ABS_GE":
        frame = _frame(set_)
        check_budget(2 * frame.start(n + 1), state_budget)
        a, d, moves = frame.a + origin, frame.d, frame.moves
        ceil_t = math.ceil(event.threshold / step)  # as in _event_hit
        bounds = [(0, 1)]  # level k keeps the j with |k a + d j| < ceil_t
        for k in range(1, n + 1):
            lo = max(0, -((ceil_t - 1 + k * a) // d))
            hi = min(k * frame.s, (ceil_t - 1 - k * a) // d)
            bounds.append((lo, max(0, hi - lo + 1)))
    else:
        check_budget(2 * (n + 1), state_budget)
        bounds = [(0, 1)] * (n + 1)
        hit = _event_hit(event.kind, event.threshold, step)
        moves = tuple(tuple(int(hit(c + origin)) for c in gc) for gc in set_.coords)
    return _sweep(moves, _weights(set_), bounds, sign * np.zeros(bounds[n][1]), absorb=sign)
