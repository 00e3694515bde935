"""Forward simulation under a fixed kernel policy.

Validates DP values stochastically: simulating the extracted worst-case
policy must reproduce ``policy_value`` within sampling error, and a
constant policy realizes one classical i.i.d. measure from the ambiguity
set.

Randomness is counter-based (Philox keyed by the seed): the full uniform
draw matrix is a pure function of (seed, paths, horizon), path ``i``
consumes row ``i``, and results are bitwise identical across runs and
thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySet
from .errors import InputError, check_budget, check_horizon
from .functions import TestFunction, blocks
from .lattice_dp import (
    DEFAULT_STATE_BUDGET,
    KernelPolicy,
    _frame,
    _frame_levels,
    _int64_frame,
    _invalid,
    _reachable_choices,
    _terminal_values,
)

__all__ = ["SimConfig", "SimResult", "simulate", "constant_policy"]

_SEARCH_CUTS = 256  # from here on a binary search per draw beats a compare pass per cut


@dataclass(frozen=True)
class SimConfig:
    policy: KernelPolicy
    set: AmbiguitySet
    n: int
    paths: int
    seed: int

    def __post_init__(self):
        check_horizon(self.paths, "BAD_PATHS", "paths")
        check_horizon(self.n)
        check_horizon(self.seed, "BAD_SEED", "seed", least=0)
        if self.seed >= 2**128:  # the Philox key range
            raise InputError("BAD_SEED", f"seed must be in [0, 2**128), got {self.seed}")
        if self.policy.n != self.n:
            raise InputError(
                "POLICY_GAP", f"policy is for horizon {self.policy.n}, not {self.n}"
            )


@dataclass(frozen=True)
class SimResult:
    estimate: float
    stderr: float
    paths: int


def constant_policy(
    set_: AmbiguitySet,
    n: int,
    generator_index: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> KernelPolicy:
    """Policy designating one generator at every reachable state.

    Charges the level-states of :func:`~sublinexp.lattice_dp.robust_value`.
    """
    check_horizon(n)
    check_horizon(generator_index, "POLICY_GAP", "generator index", least=0)
    if generator_index >= len(set_.generators):
        raise InputError("POLICY_GAP", f"generator index {generator_index} out of range")
    check_budget(_frame(set_).start(n + 1), state_budget)
    _, seal = _frame_levels(set_, n, generator_index)  # generator g, then -1 at every hole
    return seal()


def simulate(
    config: SimConfig,
    f: TestFunction,
    normalize: bool = True,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SimResult:
    """Sample-mean estimate of E[f(S_n / n)] under the policy's measure.

    At step k a path in state s draws its increment from the generator
    the policy designates at (k, s).  A policy designating one generator
    at every reachable state is the i.i.d. measure, and its paths need no
    walk.  Aggregation order is fixed by path index.  The ``paths * n``
    draws are charged against ``state_budget``.
    """
    set_, n, m = config.set, config.n, config.paths
    frame = _int64_frame(set_, n)
    check_budget(m * n, state_budget, "draws")
    choices, chosen = _reachable_choices(set_, config.policy, n)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    # row blocks drawn in turn are the rows of one (m, n) matrix of Philox words
    draws = ((rows.start, rng.bit_generator.random_raw((len(rows), n))) for rows in blocks(range(m), n))
    low, high = int(chosen.min()), int(chosen.max())
    gap = low < 0 or high >= len(set_.generators)
    if low == high and not gap:
        j = _iid_sums(set_, frame, low, n, m, draws)
    else:
        j = _walk(set_, frame, choices, n, m, draws, gap)
    vals = _terminal_values(set_, n, f, normalize, n * frame.a + frame.d * j)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the doubles is +-inf or NaN
        estimate = float(np.add.reduce(vals) / m)
        stderr = float(np.std(vals, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    if not np.isfinite([estimate, stderr]).all():
        raise InputError("UNBOUNDED_EVAL", f"the mean or spread of {f.describe()} overflows")
    return SimResult(estimate, stderr, m)


# A path's draws are Philox words r, which ``Generator.random`` reads as u = (r >> 11) 2^-53.
# Generator g's atom for u is the number of its inner cumulative weights <= u: searchsorted(cumsum(w),
# u, "right") capped at the last atom (the w-sum rounding edge).  Both return S_n as level n's j.


def _word_thresholds(cuts) -> np.ndarray:
    """T(c) = ceil(c 2^53) 2^11 per increasing cut c: r >= T(c) iff u >= c.  No u reaches
    the last cuts, those with ceil(c 2^53) >= 2^53; they are left out."""
    q = np.ceil(np.ldexp(np.asarray(cuts, dtype=float), 53))
    return q[q < 2.0**53].astype(np.uint64) << np.uint64(11)


def _as_ordered_doubles(words) -> np.ndarray:
    """``words``, in place, as the doubles of bits (r >> 2) + 2^52, positive and normal: r >= T iff
    they are for a threshold T, a multiple of 4.  numpy compares doubles about twice as fast as uint64."""
    words >>= np.uint64(2)
    words += np.uint64(1 << 52)
    return words.view(np.float64)


def _iid_sums(set_, frame, g, n, m, draws):
    """Terminal j under generator ``g`` at every step: with t its frame moves,
    ``n t_0 + sum_i (t_i - t_{i-1}) #{k : u_k >= cumsum(w)_i}``, each count a row of bytes summed."""
    gt = frame.moves[g]
    limits = _word_thresholds(np.cumsum(set_.generators[g].weight_array)[:-1])
    j = np.full(m, n * gt[0], dtype=np.intp)
    for r, words in draws:
        out = j[r : r + len(words)]
        for limit, step in zip(limits, np.diff(gt)):
            hits = (words >= limit).view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(n))
            out += np.multiply(hits, step, dtype=np.intp)
    return j


def _walk(set_, frame, choices, n, m, draws, gap):
    """Terminal j of a per-level walk through the policy's choices.

    Each draw is kept, level-major and in the smallest unsigned dtype, as its
    rank: the number of ``cuts``, the distinct inner cumulative weights of all
    generators, at or below it.  A generator's own inner weights are cuts, so
    the rank fixes its atom: lut[g * R + r] is g's frame move t for rank r.  A
    visited state is reachable, so only with a ``gap``, a reachable choice
    naming no generator, does a level test its visited choices, to name the
    first visited gap.
    """
    inner = [np.cumsum(gen.weight_array)[:-1] for gen in set_.generators]
    cuts = np.array(sorted(set(np.concatenate(inner).tolist())))  # np.unique imports numpy.ma
    R = len(cuts) + 1
    top = len(set_.generators) * R
    at = np.concatenate(([-np.inf], cuts))  # a draw of rank r lies in [at[r], at[r + 1])
    lut = np.concatenate([
        np.asarray(gt, dtype=np.intp)[np.searchsorted(w, at, "right")]
        for w, gt in zip(inner, frame.moves)
    ])
    limits = _word_thresholds(cuts)
    doubles = _as_ordered_doubles(limits.copy())
    ranks = np.empty((n, m), dtype=np.min_scalar_type(R - 1))
    for r, words in draws:
        if len(cuts) >= _SEARCH_CUTS:
            rank = np.searchsorted(limits, words, "right")
        else:  # uint8 ranks, one compare pass per cut on the doubles
            x, rank = _as_ordered_doubles(words), np.zeros(words.shape, dtype=ranks.dtype)
            for limit in doubles:
                rank += (x >= limit).view(np.uint8)
        ranks[:, r : r + len(words)] = rank.T
    j = np.zeros(m, dtype=np.intp)  # S_k as the frame's j at level k
    for k in range(1, n + 1):
        # scale in intp: an int8 choice times R overflows; every path stays
        # on the level's progression, so j indexes the level's choices
        base = np.multiply(choices[k - 1], R, dtype=np.intp)[j]
        if gap and base.view(np.uintp).max() >= top:  # -1 wraps above every index
            bad = (k - 1) * frame.a + frame.d * int(j[np.argmax(_invalid(base, top))])
            raise InputError(
                "POLICY_GAP", f"visited state {bad} at level {k} has no generator"
            )
        base += ranks[k - 1]
        j += lut[base]
    return j
