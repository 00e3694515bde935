"""``lattice_dp._sweep`` against its numpy-slice reference, bit for bit.

Each entry point runs twice: once on the package's kernel, once with the
reference of ``tests/kernel_reference.py`` patched in.  Floats must agree by
``float.hex`` and argmax records by ``np.array_equal`` and dtype.  The sets
include a duplicated generator, so ties must go to the first copy on both.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublinexp import (
    PathEvent,
    capacity,
    constant_policy,
    piecewise_linear,
    policy_value,
    robust_value,
    upper_value,
)
from sublinexp import counterexamples, lattice_dp
from sublinexp.counterexamples import heavy_lln_value
from sublinexp.lattice_dp import EVENT_KINDS, final_abs_capacities

from conftest import make_set
from kernel_reference import _sweep as reference_sweep

FINITE = [0.0, -0.0, 0.5, 1.0, -2.0]
SPECIAL = FINITE + [float("nan"), float("inf"), float("-inf")]


def on_both(fn):
    """``(fn() on the package's kernel, fn() on the reference kernel)``."""
    got = fn()
    with mock.patch.object(lattice_dp, "_sweep", reference_sweep), mock.patch.object(
        counterexamples, "_sweep", reference_sweep
    ):
        want = fn()
    return got, want


def hexes(values):
    return [float(v).hex() for v in values]


def assert_same_records(got, want):
    """Per-level argmax arrays equal in value and dtype."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def ambiguity_sets(draw):
    """1-4 generators of 1-4 atoms on coordinates -3..3, origin -1/0/1, step 1 or 1/2,
    and maybe one generator twice, so that ties must go to its first copy."""
    origin = draw(st.sampled_from([-1, 0, 1]))
    step = draw(st.sampled_from([1, Fraction(1, 2)]))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        coords = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
        raw = draw(st.lists(st.integers(1, 9), min_size=len(coords), max_size=len(coords)))
        gens.append([(float((origin + c) * step), r / sum(raw)) for c, r in zip(coords, raw)])
    if draw(st.booleans()):
        twin = gens[draw(st.integers(0, len(gens) - 1))]
        gens.insert(draw(st.integers(0, len(gens))), twin)
    return make_set(*gens, step=step, origin=origin)


@st.composite
def tie_prone_functions(draw):
    """Piecewise-linear functions with few distinct quarter values, so candidates tie."""
    xs = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True))
    ys = draw(st.lists(st.integers(-4, 4), min_size=len(xs), max_size=len(xs)))
    return piecewise_linear([(x / 4, y / 4) for x, y in zip(sorted(xs), ys)])


class TestAgainstTheReference:
    @settings(max_examples=200, deadline=None)
    @given(ambiguity_sets(), st.integers(1, 10), st.integers(-3, 8), st.data())
    def test_every_event_kind_and_side(self, set_, n, t2, data):
        t = Fraction(t2, 2)  # t <= 0 included
        from_index = data.draw(st.integers(0, n))
        for kind in sorted(EVENT_KINDS):
            event = PathEvent(kind, t, from_index if kind == "TAIL_SUM_ABS_GE" else None)
            for side in ("UPPER", "LOWER"):
                got, want = on_both(lambda: capacity(set_, n, event, side))
                assert got.hex() == want.hex(), (kind, side)

    @settings(max_examples=150, deadline=None)
    @given(ambiguity_sets(), st.integers(1, 10), st.integers(-3, 8))
    def test_final_abs_capacities(self, set_, n, t2):
        got, want = on_both(lambda: final_abs_capacities(set_, n, Fraction(t2, 2)))
        assert hexes(got) == hexes(want)

    @settings(max_examples=150, deadline=None)
    @given(ambiguity_sets(), st.integers(1, 10), tie_prone_functions(), st.booleans())
    def test_robust_value_and_policy_value(self, set_, n, f, normalize):
        got, want = on_both(lambda: robust_value(set_, n, f, normalize))
        assert got.value.hex() == want.value.hex()
        assert got.state_count == want.state_count
        assert [lo for lo, _ in got.policy.levels] == [lo for lo, _ in want.policy.levels]
        assert_same_records(
            [choice for _, choice in got.policy.levels], [choice for _, choice in want.policy.levels]
        )
        policies = [got.policy] + [
            constant_policy(set_, n, g) for g in range(len(set_.generators))
        ]
        for policy in policies:
            a, b = on_both(lambda: policy_value(set_, policy, n, f, normalize))
            assert a.hex() == b.hex()
        a, b = on_both(lambda: upper_value(set_, n, f, normalize))
        assert a.hex() == b.hex() == got.value.hex()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 16))
    def test_heavy_lln_value(self, K, n):
        got, want = on_both(lambda: heavy_lln_value(K, n))
        assert got.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(ambiguity_sets(), st.integers(1, 6), st.booleans(), st.data())
    def test_non_finite_values_and_ties(self, set_, n, upper, data):
        # NaN and infinities straight into the kernel: a comparison with NaN is
        # false on both, and an infinite absorbing value takes the same branches
        rule = np.greater if upper else np.less
        weights = [gen.weights for gen in set_.generators]
        bounds = lattice_dp._level_bounds(set_, n)
        width = bounds[n][1]
        u = np.array(data.draw(st.lists(st.sampled_from(SPECIAL), min_size=width, max_size=width)))
        trigger = tuple(tuple(data.draw(st.sampled_from([0, 1])) for _ in gc) for gc in set_.coords)
        absorbing = data.draw(st.sampled_from(SPECIAL))
        cases = [  # (moves, bounds, last level, absorbing value)
            ([set_.coords] * n, bounds, u, None),
            ([trigger] * n, [(0, 1)] * (n + 1), u[:1], absorbing),
        ]
        for moves, b, last, absorb in cases:
            got_record, want_record = [None] * n, [None] * n
            with np.errstate(all="ignore"):
                got = lattice_dp._sweep(moves, weights, b, last.copy(), rule, absorb, got_record)
                want = reference_sweep(moves, weights, b, last.copy(), rule, absorb, want_record)
            assert got.hex() == want.hex()
            assert_same_records(got_record, want_record)

    @settings(max_examples=200, deadline=None)
    @given(ambiguity_sets(), st.integers(1, 6), st.data())
    def test_fixed_choices_among_every_generator(self, set_, n, data):
        # the package designates at a one-state level only the generator chosen
        # there; here every level sweeps all generators and the choice must win
        weights = [gen.weights for gen in set_.generators]
        count = len(weights)
        still = tuple((0,) * len(gc) for gc in set_.coords)
        cases = [  # (moves, bounds): a full lattice, and a chain of frozen one-state levels
            ([set_.coords] * n, lattice_dp._level_bounds(set_, n)),
            ([still] * n, [(0, 1)] * (n + 1)),
        ]
        for moves, b in cases:
            rule = [
                (np.array(data.draw(st.lists(
                    st.integers(-1, count - 1), min_size=b[k - 1][1], max_size=b[k - 1][1]
                )), dtype=np.int8), list(range(count)))
                for k in range(1, n + 1)
            ]
            last = np.array(data.draw(st.lists(
                st.sampled_from(FINITE), min_size=b[n][1], max_size=b[n][1]
            )))
            got = lattice_dp._sweep(moves, weights, b, last.copy(), rule)
            want = reference_sweep(moves, weights, b, last.copy(), rule)
            assert got.hex() == want.hex()


@pytest.mark.parametrize("side", ["UPPER", "LOWER"])
def test_long_chain_of_one_state_levels(side):
    # MAX_INCREMENT_ABS_GE at n = 2000 steps 2,000 one-state levels, each on the
    # value the last one left; rare triggers keep both sides inside (0, 1)
    set_ = make_set(
        [(-1, 0.4995), (1, 0.4995), (2, 0.001)], [(-2, 0.0005), (0, 0.9995)], [(0, 0.9995), (3, 0.0005)]
    )
    event = PathEvent("MAX_INCREMENT_ABS_GE", 2)
    got, want = on_both(lambda: capacity(set_, 2000, event, side))
    assert got.hex() == want.hex()
    assert 0.0 < got < 1.0
