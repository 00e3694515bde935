"""The numpy-slice Bellman kernel, kept as the loop reference for ``lattice_dp._sweep``.

Every level here runs on per-atom numpy slices, one-state levels included.
``tests/test_kernel_reference.py`` checks that the package's kernel gives the
same values and argmax records bit for bit.
"""

import numpy as np

from sublinexp.lattice_dp import _choice_dtype


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
    level and ``visit(k, u)`` every level.  The order is fixed (states,
    generators, then atoms in increasing-point order), so results are bitwise
    reproducible.
    """
    n = len(bounds) - 1
    fixed = not callable(rule)
    dtype = _choice_dtype(len(weights))
    if visit is not None:
        visit(n, u)
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        lo_k, len_k = bounds[k]
        if absorb is not None:
            pad = np.full(len_prev, absorb)
            u = np.concatenate((pad, u, pad))
        if record is not None:
            arg = record[k - 1] = np.zeros(len_prev, dtype=dtype)
        best = best_absorb = None
        for g in rule[k - 1][1] if fixed else range(len(weights)):
            gm, gw = moves[k - 1][g], weights[g]
            cand = None
            for w, c in zip(gw, gm):
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
                better = rule[k - 1][0] == g if fixed else rule(cand, best)
                np.putmask(best, better, cand)
                if record is not None:
                    np.putmask(arg, better, g)
            if absorb is not None:
                acc = None
                for w in gw:
                    acc = w * absorb if acc is None else acc + w * absorb
                if best_absorb is None or rule(acc, best_absorb):
                    best_absorb = acc
        u, absorb = best, best_absorb
        if visit is not None:
            visit(k - 1, u)
    return float(u[0 - bounds[0][0]])
