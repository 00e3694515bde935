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
    # row blocks drawn in turn are the rows of one (m, n) draw
    draws = ((rows.start, rng.random((len(rows), n))) for rows in blocks(range(m), n))
    low, high = int(chosen.min()), int(chosen.max())
    gap = low < 0 or high >= len(set_.generators)
    if low == high and not gap:
        j = _iid_sums(set_, frame, low, n, m, draws)
    else:
        j = _walk(set_, frame, choices, n, m, draws, gap)
    vals = _terminal_values(set_, n, f, normalize, n * frame.a + frame.d * j)
    estimate = float(np.add.reduce(vals) / m)
    if m > 1:
        stderr = float(np.std(vals, ddof=1) / np.sqrt(m))
    else:
        stderr = 0.0
    return SimResult(estimate, stderr, m)


# Generator g's atom for a draw x is the number of its inner cumulative weights
# <= x: searchsorted(cumsum(w), x, "right") capped at the last atom, which guards
# the w-sum rounding edge.  Both helpers return S_n as the frame's j at level n.


def _iid_sums(set_, frame, g, n, m, draws):
    """Terminal j under generator ``g`` at every step: with t its frame moves,
    ``n t_0 + sum_i (t_i - t_{i-1}) #{k : u_k >= cumsum(w)_i}``."""
    gt = frame.moves[g]
    inner = np.cumsum(set_.generators[g].weight_array)[:-1]
    j = np.full(m, n * gt[0], dtype=np.intp)
    for r, u in draws:
        out = j[r : r + len(u)]
        for w, step in zip(inner, np.diff(gt)):
            out += step * np.count_nonzero(u >= w, axis=1)
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
    ranks = np.empty((n, m), dtype=np.min_scalar_type(R - 1))
    for r, u in draws:
        if len(cuts) >= _SEARCH_CUTS:
            rank = np.searchsorted(cuts, u, "right")
        else:
            rank = np.zeros(u.shape, dtype=ranks.dtype)
            for c in cuts:
                rank += u >= c
        ranks[:, r : r + len(u)] = rank.T
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
