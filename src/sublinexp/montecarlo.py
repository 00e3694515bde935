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
from .errors import InputError
from .functions import TestFunction
from .lattice_dp import (
    KernelPolicy, _choice_dtype, _level_bounds, _terminal_values, reachable_masks
)

__all__ = ["SimConfig", "SimResult", "simulate", "constant_policy"]


@dataclass(frozen=True)
class SimConfig:
    policy: KernelPolicy
    set: AmbiguitySet
    n: int
    paths: int
    seed: int

    def __post_init__(self):
        if self.paths < 1:
            raise InputError("BAD_PATHS", "need at least one path")
        if self.n < 1:
            raise InputError("BAD_HORIZON", "horizon must be >= 1")
        if self.policy.n != self.n:
            raise InputError(
                "POLICY_GAP", f"policy is for horizon {self.policy.n}, not {self.n}"
            )


@dataclass(frozen=True)
class SimResult:
    estimate: float
    stderr: float
    paths: int


def constant_policy(set_: AmbiguitySet, n: int, generator_index: int) -> KernelPolicy:
    """Policy designating one generator at every reachable state."""
    if not 0 <= generator_index < len(set_.generators):
        raise InputError("POLICY_GAP", f"generator index {generator_index} out of range")
    bounds, masks = reachable_masks(set_, n)
    dtype = _choice_dtype(len(set_.generators))
    return KernelPolicy(
        n,
        tuple(
            (bounds[k - 1][0], np.where(masks[k - 1], generator_index, -1).astype(dtype))
            for k in range(1, n + 1)
        ),
    )


def simulate(
    config: SimConfig, f: TestFunction, normalize: bool = True
) -> SimResult:
    """Sample-mean estimate of E[f(S_n / n)] under the policy's measure.

    At step k a path in state s draws its increment from the generator
    the policy designates at (k, s).  Aggregation order is fixed by path
    index.
    """
    set_ = config.set
    n, m = config.n, config.paths
    bounds = _level_bounds(set_, n)
    cumw = [np.cumsum(g.weight_array) for g in set_.generators]
    coords = [np.asarray(gc, dtype=np.int64) for gc in set_.coords]
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    u = rng.random((m, n))
    s = np.zeros(m, dtype=np.int64)
    for k in range(1, n + 1):
        lo, length = bounds[k - 1]
        # every path stays inside the level's bounds, so the index is in range
        gen_idx = config.policy.level_choices(k, lo, length)[s - lo]
        gap = (gen_idx < 0) | (gen_idx >= len(set_.generators))
        if gap.any():
            bad = int(s[np.argmax(gap)])
            raise InputError(
                "POLICY_GAP", f"visited state {bad} at level {k} has no generator"
            )
        inc = np.empty(m, dtype=np.int64)
        for g in range(len(set_.generators)):
            sel = gen_idx == g
            if np.any(sel):
                j = np.searchsorted(cumw[g], u[sel, k - 1], side="right")
                j = np.minimum(j, len(coords[g]) - 1)  # guard the w-sum rounding edge
                inc[sel] = coords[g][j]
        s += inc
    vals = _terminal_values(set_, n, f, normalize, s)
    estimate = float(np.add.reduce(vals) / m)
    if m > 1:
        stderr = float(np.std(vals, ddof=1) / np.sqrt(m))
    else:
        stderr = 0.0
    return SimResult(estimate, stderr, m)
