"""The dense forward pass, kept as the reference for ``lattice_dp._reachability``.

Level k's mask is built from level k - 1's by one OR-shift per distinct move,
on the hull of each level, and the callers that read reachability are rebuilt
on these masks as they were before the holes: the -1 marks of a robust policy,
``constant_policy`` and the i.i.d. test of ``simulate``.
``tests/test_reachability.py`` checks that the package gives the same holes,
policies and estimates bit for bit.
"""

import numpy as np

from sublinexp import KernelPolicy, functions, lattice_dp, montecarlo
from sublinexp.lattice_dp import _choice_dtype, _terminal_values

from hull_reference import _move_bounds, robust_records


def dense_masks(moves, n):
    """``(bounds, masks)``: level k's reachable states among its stored ones, k = 0..n."""
    moves = sorted(set(moves))
    bounds = tuple(_move_bounds(moves[0], moves[-1], n))
    masks = tuple(np.zeros(length, dtype=bool) for _, length in bounds)
    masks[0][0 - bounds[0][0]] = True
    for k in range(1, n + 1):  # OR is idempotent, so each distinct move shifts once
        lo_prev, len_prev = bounds[k - 1]
        lo_k, _ = bounds[k]
        for c in moves:
            a = lo_prev + c - lo_k
            masks[k][a : a + len_prev] |= masks[k - 1]
    return bounds, masks


def set_masks(set_, n):
    return dense_masks([c for gc in set_.coords for c in gc], n)


def robust_policy(set_, n, f, normalize=True):
    """The argmax records of the hull's robust sweep, -1 wherever the mask is False."""
    _, bounds, args = robust_records(set_, n, f, normalize)
    _, masks = set_masks(set_, n)
    for k, arg in enumerate(args):
        arg[~masks[k]] = -1
    return KernelPolicy(n, tuple((bounds[k][0], arg) for k, arg in enumerate(args)))


def constant_policy(set_, n, g):
    """One ``np.where`` over the concatenated masks, each level a view of it."""
    bounds, masks = set_masks(set_, n)
    flat = np.where(np.concatenate(masks[:n]), g, -1).astype(_choice_dtype(len(set_.generators)))
    ends = np.cumsum([length for _, length in bounds[:n]])
    return KernelPolicy(
        n, tuple((lo, flat[end - length : end]) for (lo, length), end in zip(bounds, ends))
    )


def simulate(config, f, normalize=True):
    """``(estimate, stderr)`` of ``montecarlo.simulate`` with the i.i.d. test made on the
    hull choices the masks select, and the walk testing every visited level."""
    set_, n, m = config.set, config.n, config.paths
    frame = lattice_dp._frame(set_)
    bounds, masks = set_masks(set_, n)
    hull = [config.policy.level_choices(k, *bounds[k - 1]) for k in range(1, n + 1)]
    chosen = np.concatenate(hull)[np.concatenate(masks[:n])]
    choices = [choice[:: frame.d] for choice in hull]  # the progression, as the walk reads it
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    rows = max(1, functions._BLOCK_CELLS // n)
    blocks = ((r, rng.random((min(rows, m - r), n))) for r in range(0, m, rows))
    g = int(chosen[0])
    if chosen.min() == chosen.max() and 0 <= g < len(set_.generators):
        j = montecarlo._iid_sums(set_, frame, g, n, m, blocks)
    else:
        j = montecarlo._walk(set_, frame, choices, n, m, blocks, True)
    vals = _terminal_values(set_, n, f, normalize, n * frame.a + frame.d * j)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return float(np.add.reduce(vals) / m), stderr
