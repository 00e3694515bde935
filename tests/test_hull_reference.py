"""Every sweep entry point on the moves' own progression against the dense hull.

``tests/hull_reference.py`` sweeps every integer state of each level's hull, as
the package did before its frame.  The sets here put their moves on a
progression of step 1, 2 or 3 from any base, on lattice origins -2..2, so that
most levels' hulls hold states the frame never stores.  Floats must agree by
``float.hex``, and a robust policy must designate the hull's argmax at every
reachable state and nothing elsewhere.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sublinexp import (
    PathEvent,
    capacity,
    constant_policy,
    policy_value,
    robust_value,
    upper_value,
)
from sublinexp.counterexamples import heavy_lln_value
from sublinexp.lattice_dp import EVENT_KINDS, final_abs_capacities

import hull_reference as hull
import reachability_reference as reachable
from conftest import make_set, tie_prone_functions
from oracle_helpers import designated, hand_policy


@st.composite
def progression_sets(draw):
    """1-3 generators of 1-4 atoms at coordinates b + d t, t = 0..3, with d in {1, 2, 3},
    b in -3..3, origin -2..2 and step 1 or 1/2; an atom may weigh 0, and maybe one
    generator comes twice, so that ties must go to its first copy."""
    d = draw(st.sampled_from([1, 2, 3]))
    base, origin = draw(st.integers(-3, 3)), draw(st.integers(-2, 2))
    step = draw(st.sampled_from([1, Fraction(1, 2)]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        ts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        raw = draw(st.lists(st.integers(0, 9), min_size=len(ts), max_size=len(ts)))
        raw[0] += 1  # some weight somewhere
        gens.append([(float((origin + base + d * t) * step), r / sum(raw)) for t, r in zip(ts, raw)])
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), gens[draw(st.integers(0, len(gens) - 1))])
    return make_set(*gens, step=step, origin=origin)


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(progression_sets(), st.integers(1, 10), tie_prone_functions(), st.booleans())
def test_upper_robust_and_policy_values(set_, n, f, normalize):
    want, bounds, records = hull.robust_records(set_, n, f, normalize)
    got = robust_value(set_, n, f, normalize)
    assert got.value.hex() == want.hex() == upper_value(set_, n, f, normalize).hex()
    assert hull.upper_value(set_, n, f, normalize).hex() == want.hex()
    # the hull's argmax at every reachable state, and no other state designated
    _, masks = reachable.set_masks(set_, n)
    argmax = {
        (k, lo + int(i)): int(record[i])
        for k, ((lo, _), record, mask) in enumerate(zip(bounds, records, masks), start=1)
        for i in np.flatnonzero(mask)
    }
    assert designated(got.policy) == argmax
    policies = [got.policy, hand_policy(n, argmax)]
    policies += [constant_policy(set_, n, g) for g in range(len(set_.generators))]
    for policy in policies:
        value = policy_value(set_, policy, n, f, normalize)
        assert value.hex() == hull.policy_value(set_, policy, n, f, normalize).hex()


@settings(max_examples=200, deadline=None)
@given(progression_sets(), st.integers(1, 10), st.integers(-3, 8), st.data())
def test_every_capacity_kind_and_side(set_, n, t2, data):
    # the package's LOWER, the negated max, against the hull's own min sweep
    t = Fraction(t2, 2)  # t <= 0 included
    from_index = data.draw(st.integers(0, n))
    for kind in sorted(EVENT_KINDS):
        event = PathEvent(kind, t, from_index if kind == "TAIL_SUM_ABS_GE" else None)
        for side in ("UPPER", "LOWER"):
            got, want = capacity(set_, n, event, side), hull.capacity(set_, n, event, side)
            assert got.hex() == want.hex(), (kind, side)
    assert hexes(final_abs_capacities(set_, n, t)) == hexes(hull.final_abs_capacities(set_, n, t))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12))
def test_heavy_lln_value(K, n):
    assert heavy_lln_value(K, n).hex() == hull.heavy_lln_value(K, n).hex()
