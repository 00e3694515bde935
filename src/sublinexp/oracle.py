"""Exponential ground-truth evaluator for tiny instances.

Walks the full history tree with no state merging: every node is a
distinct history of atom draws, and the adversary picks a generator per
node (fully history-dependent kernels).  Because each history node's
subtree enters the total expectation with a nonnegative weight, the
supremum over all history-dependent kernel selections equals the
node-wise maximum computed by this walk; a separate literal enumeration
over selection maps (:func:`enumerate_selections_value`) cross-checks
that identity on even tinier instances.

The walk is deliberately independent of the lattice DP: it works on raw
support values, never merges states, and never consults
:mod:`sublinexp.lattice_dp`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product

from .ambiguity import AmbiguitySet
from .errors import InputError, check_budget, check_horizon
from .functions import TestFunction
from .lattice_dp import PathEvent

DEFAULT_ENUMERATION_BUDGET = 10**6


def _tree_size(fanout: int, depth: int, cap: int) -> int:
    """Nodes of depths 0..depth of a ``fanout``-ary tree, or ``cap + 1`` if more."""
    if fanout == 1:
        return min(depth + 1, cap + 1)
    total, width = 0, 1
    for _ in range(depth + 1):
        total += width
        if total > cap:
            return cap + 1
        width *= fanout
    return total


def _history_extreme(set_: AmbiguitySet, n: int, leaf, maximize: bool, budget: int) -> float:
    """Node-wise extreme over the history tree of E[leaf(exact draws, their float sum)]."""
    check_horizon(n)
    fanout = max(len(g.points) for g in set_.generators)
    count = _tree_size(fanout, n, max(budget, 10**30))
    check_budget(count, budget, "history nodes", "ENUMERATION_BUDGET_EXCEEDED")
    choose = max if maximize else min

    def walk(path: tuple, partial: float) -> float:
        if len(path) == n:
            return leaf(path, partial)
        values = []
        for g in set_.generators:
            acc = 0.0
            for p, e, w in zip(g.points, g.exact, g.weights):
                acc += w * walk(path + (e,), partial + p)
            values.append(acc)
        return choose(values)

    return walk((), 0.0)


def brute_force_value(
    set_: AmbiguitySet,
    n: int,
    f: TestFunction,
    normalize: bool = True,
    maximize: bool = True,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Extreme over all history-dependent kernel selections of E[f(S_n/n)]."""
    return _history_extreme(
        set_, n, lambda _, s: float(f(s / n if normalize else s)), maximize, budget
    )


def brute_force_capacity(
    set_: AmbiguitySet,
    n: int,
    event: PathEvent,
    side: str = "UPPER",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Extreme over history-dependent kernel selections of P(event).

    The event is evaluated directly on the explicit path of partial sums,
    so running-max events need no trigger-flag machinery here.  The sums are
    exact rationals of the points, as config files read them (see
    :class:`~sublinexp.ambiguity.DiscreteDistribution`), compared with the exact threshold.
    """
    if side not in ("UPPER", "LOWER"):
        raise InputError("BAD_SIDE", f"side must be UPPER or LOWER, got {side!r}")
    event.check_within(check_horizon(n))
    t = event.threshold
    kind = event.kind
    fi = event.from_index or 0
    exact = {e: Fraction(*e) for g in set_.generators for e in g.exact}

    def indicator(path, _) -> float:
        increments = [exact[x] for x in path]
        sums = list(accumulate(increments))
        if kind == "FINAL_ABS_GE":
            hit = abs(sums[-1]) >= t
        elif kind == "FINAL_ABS_LT":
            hit = abs(sums[-1]) < t
        elif kind == "FINAL_GT":
            hit = sums[-1] > t
        elif kind == "FINAL_LT":
            hit = sums[-1] < t
        elif kind == "MAX_PARTIAL_ABS_GE":
            hit = max(abs(v) for v in sums) >= t
        elif kind == "MAX_INCREMENT_ABS_GE":
            hit = max(abs(x) for x in increments) >= t
        elif kind == "TAIL_SUM_ABS_GE":
            hit = abs(sums[-1] - (sums[fi - 1] if fi >= 1 else 0)) >= t
        else:  # pragma: no cover - grammar enforced by PathEvent
            raise InputError("UNSUPPORTED_EVENT", kind)
        return 1.0 if hit else 0.0

    return _history_extreme(set_, n, indicator, side == "UPPER", budget)


def enumerate_selections_value(
    set_: AmbiguitySet,
    n: int,
    f: TestFunction,
    normalize: bool = True,
    budget: int = 200_000,
) -> float:
    """Literal max over all kernel-selection maps, by explicit path summation.

    A selection assigns one generator to every history node (keyed by the
    atom-index tuple of the draws so far).  The number of selections is
    ``G ** (#histories)``; this is only feasible for the tiniest
    instances and exists to certify :func:`brute_force_value`.
    """
    check_horizon(n)
    gens = set_.generators
    fanout = max(len(g.points) for g in gens)
    # H histories need no count past the cap's bit length: beyond it G ** H > cap, or G = 1
    count = len(gens) ** _tree_size(fanout, n - 1, max(budget, 10**30).bit_length())
    check_budget(count, budget, "selections", "ENUMERATION_BUDGET_EXCEEDED")
    histories = [h for depth in range(n) for h in product(range(fanout), repeat=depth)]
    best = None
    for assignment in product(range(len(gens)), repeat=len(histories)):
        selection = dict(zip(histories, assignment))

        def expect(depth: int, key: tuple, partial: float, prob: float) -> float:
            if prob == 0.0:
                return 0.0
            if depth == n:
                return prob * float(f(partial / n if normalize else partial))
            g = gens[selection[key]]
            total = 0.0
            for j, (p, w) in enumerate(zip(g.points, g.weights)):
                total += expect(depth + 1, key + (j,), partial + p, prob * w)
            return total

        value = expect(0, (), 0.0, 1.0)
        if best is None or value > best:
            best = value
    return best
