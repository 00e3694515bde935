"""``lattice_dp._sweep`` against its numpy-slice reference, bit for bit.

Each entry point runs twice: once on the package's kernel, once with the
reference of ``tests/kernel_reference.py`` patched in.  Floats must agree by
``float.hex`` and argmax records by ``np.array_equal`` and dtype.  The sets
include a duplicated generator, so ties must go to the first copy on both.
A LOWER capacity runs the negated max on both kernels here; the reference's own
``np.less`` min checks it in ``tests/test_hull_reference.py`` and below, where
the kernel is called directly.
"""

import csv
import json
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublinexp import (
    AmbiguitySet,
    PathEvent,
    capacity,
    constant_policy,
    lln_sweep,
    policy_value,
    robust_value,
    upper_value,
)
from sublinexp import cli, counterexamples, functions, lattice_dp, piecewise_linear, tent
from sublinexp.counterexamples import heavy_lln_value
from sublinexp.lattice_dp import EVENT_KINDS, _choice_dtype, final_abs_capacities

import hull_reference as hull
from conftest import make_set, tie_prone_functions
from kernel_reference import _sweep as reference_sweep

FINITE = [0.0, -0.0, 0.5, 1.0, -2.0]
SPECIAL = FINITE + [float("nan"), float("inf"), float("-inf")]
UNSIGNED = [0.0, 0.5, 1.0, float("inf"), float("nan")]  # a capacity's terms, none negative


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
def sparse_sets(draw):
    """``ambiguity_sets`` with zero-weight atoms, which may widen the move hull,
    and point masses mixed in."""
    set_ = draw(ambiguity_sets())
    origin, step = set_.lattice.origin, set_.lattice.step
    gens = [list(zip(g.points, g.weights)) for g in set_.generators]
    for atoms in gens:
        if draw(st.booleans()):
            atoms.append((float((origin + draw(st.integers(-4, 4))) * step), 0.0))
    for _ in range(draw(st.integers(0, 2))):
        mass = [(float((origin + draw(st.integers(-3, 3))) * step), 1.0)]
        gens.insert(draw(st.integers(0, len(gens))), mass)
    return make_set(*gens, step=step, origin=origin)


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
    @given(ambiguity_sets(), st.integers(1, 6), st.booleans(), st.booleans(), st.data())
    def test_non_finite_values_and_ties(self, set_, n, upper, unsigned, data):
        # NaN and infinities straight into the kernel: a comparison with NaN is
        # false on both, and an infinite absorbing value takes the same branches.
        # The lower side is the negated max of the negated values against the
        # reference's own min.  On values none of which is negative no sum cancels,
        # so they agree by float.hex; with mixed signs a sum may cancel to an exact
        # zero, 0.0 on the min and -0.0 on the max, and that zero's sign may differ.
        values = UNSIGNED if unsigned else SPECIAL
        weights = [gen.weights for gen in set_.generators]
        bounds = hull.level_bounds(set_, n)
        width = bounds[n][1]
        u = np.array(data.draw(st.lists(st.sampled_from(values), min_size=width, max_size=width)))
        trigger = tuple(tuple(data.draw(st.sampled_from([0, 1])) for _ in gc) for gc in set_.coords)
        absorbing = data.draw(st.sampled_from(values))
        cases = [  # (moves, bounds, last level, absorbing value)
            (set_.coords, bounds, u, None),
            (trigger, [(0, 1)] * (n + 1), u[:1], absorbing),
        ]
        for moves, b, last, absorb in cases:
            got_record = [np.zeros(length, _choice_dtype(len(weights))) for _, length in b[:n]]
            want_record = [record.copy() for record in got_record]
            with np.errstate(all="ignore"):
                if upper:
                    got = lattice_dp._sweep(moves, weights, b, last.copy(), absorb=absorb, record=got_record)
                    want = reference_sweep(moves, weights, b, last.copy(), np.greater, absorb, want_record)
                else:
                    negated = None if absorb is None else -absorb
                    got = -lattice_dp._sweep(moves, weights, b, -last, absorb=negated, record=got_record)
                    want = reference_sweep(moves, weights, b, last.copy(), np.less, absorb, want_record)
            if upper or unsigned:
                assert got.hex() == want.hex()
            else:
                assert got.hex() == want.hex() or got == want == 0.0
            assert_same_records(got_record, want_record)

    @settings(max_examples=200, deadline=None)
    @given(ambiguity_sets(), st.integers(1, 6), st.data())
    def test_fixed_choices_among_every_generator(self, set_, n, data):
        # every generator is swept at every level and the choice must win; -1
        # keeps generator 0's candidate, on numpy levels and on one-state levels
        weights = [gen.weights for gen in set_.generators]
        count = len(weights)
        still = tuple((0,) * len(gc) for gc in set_.coords)
        cases = [  # (moves, bounds): a full lattice, and a chain of still one-state levels
            (set_.coords, hull.level_bounds(set_, n)),
            (still, [(0, 1)] * (n + 1)),
        ]
        for moves, b in cases:
            choices = [
                np.array(data.draw(st.lists(
                    st.integers(-1, count - 1), min_size=b[k - 1][1], max_size=b[k - 1][1]
                )), dtype=np.int8)
                for k in range(1, n + 1)
            ]
            last = np.array(data.draw(st.lists(
                st.sampled_from(FINITE), min_size=b[n][1], max_size=b[n][1]
            )))
            got = lattice_dp._sweep(moves, weights, b, last.copy(), choices)
            want = reference_sweep(moves, weights, b, last.copy(), choices)
            assert got.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(ambiguity_sets(), st.lists(st.integers(1, 7), min_size=1, max_size=5), st.data())
    def test_terminal_rows_entering_at_their_own_levels(self, set_, horizons, data):
        # each row (h, values) is the reference's own horizon-h sweep on the first
        # h + 1 levels of the hull, non-finite values and ties included
        weights = [gen.weights for gen in set_.generators]
        bounds = hull.level_bounds(set_, max(horizons))
        rows = [
            (h, np.array(data.draw(st.lists(
                st.sampled_from(SPECIAL), min_size=bounds[h][1], max_size=bounds[h][1]
            ))))
            for h in horizons
        ]
        with np.errstate(all="ignore"):
            got = lattice_dp._sweep(set_.coords, weights, bounds, [(h, u.copy()) for h, u in rows])
            want = [reference_sweep(set_.coords, weights, bounds[: h + 1], u.copy()) for h, u in rows]
        assert hexes(got) == hexes(want)

    @settings(max_examples=100, deadline=None)
    @given(ambiguity_sets(), st.lists(st.integers(1, 10), min_size=1, max_size=5), tie_prone_functions())
    def test_lln_sweep_against_per_horizon_reference_sweeps(self, set_, horizons, f):
        got = [row.dp_value for row in lln_sweep(set_, f, horizons).rows]
        with mock.patch.object(lattice_dp, "_sweep", reference_sweep):
            want = [upper_value(set_, h, f) for h in horizons]
        assert hexes(got) == hexes(want)


@pytest.mark.parametrize("side", ["UPPER", "LOWER"])
def test_long_chain_of_one_state_levels(side):
    # MAX_INCREMENT_ABS_GE at n = 2000 steps 2,000 one-state levels, each on the
    # value the last one left; rare triggers keep both sides inside (0, 1).  The
    # hull reference runs the lower side on its own min, not the negated max
    set_ = make_set(
        [(-1, 0.4995), (1, 0.4995), (2, 0.001)], [(-2, 0.0005), (0, 0.9995)], [(0, 0.9995), (3, 0.0005)]
    )
    event = PathEvent("MAX_INCREMENT_ABS_GE", 2)
    got, want = capacity(set_, 2000, event, side), hull.capacity(set_, 2000, event, side)
    assert got.hex() == want.hex()
    assert 0.0 < got < 1.0


@settings(max_examples=200, deadline=None)
@given(sparse_sets(), st.integers(1, 24), tie_prone_functions(), st.data())
def test_constant_policy_is_its_generators_own_sweep(set_, n, f, data):
    # P_g^n is one measure of the set: its exact value is generator g's sweep
    # alone, which the CLI reports for {"constant": g}
    g = data.draw(st.integers(0, len(set_.generators) - 1))
    alone = AmbiguitySet(set_.lattice, (set_.generators[g],))
    policy = constant_policy(set_, n, g)
    for normalize in (True, False):
        want = policy_value(set_, policy, n, f, normalize)
        assert upper_value(alone, n, f, normalize).hex() == want.hex()


@settings(max_examples=100, deadline=None)
@given(ambiguity_sets(), st.integers(1, 10), tie_prone_functions())
def test_robust_simulate_reports_the_replay_of_its_policy(set_, n, f):
    # the CLI writes the value of the sweep that extracted the policy; replaying
    # that policy must give the same float, ties and a duplicated generator included
    config = {
        "lattice": {"step": str(set_.lattice.step), "origin": set_.lattice.origin},
        "generators": [[list(atom) for atom in zip(g.points, g.weights)] for g in set_.generators],
        "function": {"kind": "pwl", "params": {"breakpoints": [list(p) for p in zip(*f.params)]}},
        "n": n,
        "paths": 20,
        "policy": "robust",
    }
    assert cli.build_set(config) == set_
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "simulate_cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(path), "--out", out, "--quiet"]) == 0
        with open(Path(out) / "simulate.csv", newline="") as handle:
            (row,) = csv.DictReader(handle)
    replay = policy_value(set_, robust_value(set_, n, f).policy, n, f)
    assert float(row["policy_value"]).hex() == replay.hex()


# -- wide levels: at least as many generators as stored states -------------


@st.composite
def wide_sets(draw):
    """4-40 generators of 1-4 atoms, unequal counts, on a window of 2-5 coordinates, so
    that the early levels store no more states than there are generators; one point
    mass, and maybe twins, so that ties must go to the first copy."""
    origin = draw(st.sampled_from([-1, 0, 1]))
    step = draw(st.sampled_from([1, Fraction(1, 2)]))
    low = draw(st.integers(-3, 0))
    window = st.integers(low, low + draw(st.integers(1, 4)))
    gens = [[(float((origin + draw(window)) * step), 1.0)]]
    for _ in range(draw(st.integers(3, 39))):
        coords = draw(st.lists(window, min_size=1, max_size=4, unique=True))
        raw = draw(st.lists(st.integers(1, 9), min_size=len(coords), max_size=len(coords)))
        gens.append([(float((origin + c) * step), r / sum(raw)) for c, r in zip(coords, raw)])
    for _ in range(draw(st.integers(0, 3))):
        twin = gens[draw(st.integers(0, len(gens) - 1))]
        gens.insert(draw(st.integers(0, len(gens))), twin)
    draw(st.randoms()).shuffle(gens)
    return make_set(*gens[:40], step=step, origin=origin)


def wide_levels(set_, bounds):
    """How many of a sweep's steps run in generator blocks: L > 1 states below, G >= L."""
    return sum(1 < length <= len(set_.generators) for _, length in bounds[:-1])


class TestWideLevels:
    @settings(max_examples=100, deadline=None)
    @given(wide_sets(), st.integers(1, 12), tie_prone_functions(), st.booleans())
    def test_robust_value_and_policies(self, set_, n, f, normalize):
        got, want = on_both(lambda: robust_value(set_, n, f, normalize))
        assert got.value.hex() == want.value.hex()
        assert_same_records(
            [choice for _, choice in got.policy.levels], [choice for _, choice in want.policy.levels]
        )
        last = len(set_.generators) - 1
        for policy in (got.policy, constant_policy(set_, n, 0), constant_policy(set_, n, last)):
            a, b = on_both(lambda: policy_value(set_, policy, n, f, normalize))
            assert a.hex() == b.hex()
        a, b = on_both(lambda: upper_value(set_, n, f, normalize))
        assert a.hex() == b.hex() == got.value.hex()

    @settings(max_examples=100, deadline=None)
    @given(wide_sets(), st.integers(1, 10), st.data())
    def test_fixed_choices_invalid_ones_included(self, set_, n, data):
        # -1 and the index one past the last generator keep generator 0's candidate
        weights = [gen.weights for gen in set_.generators]
        count = len(weights)
        bounds = hull.level_bounds(set_, n)
        choice = st.integers(-1, count) if data.draw(st.booleans()) else st.just(-1)
        choices = [
            np.array(data.draw(st.lists(choice, min_size=length, max_size=length)), dtype=np.int8)
            for _, length in bounds[:n]
        ]
        last = np.array(data.draw(st.lists(st.sampled_from(FINITE), min_size=bounds[n][1], max_size=bounds[n][1])))
        got = lattice_dp._sweep(set_.coords, weights, bounds, last.copy(), choices)
        want = reference_sweep(set_.coords, weights, bounds, last.copy(), choices)
        assert got.hex() == want.hex()

    @settings(max_examples=60, deadline=None)
    @given(wide_sets(), st.integers(1, 10), st.integers(-3, 8), st.data())
    def test_every_event_kind_and_side(self, set_, n, t2, data):
        # LOWER: the negated max must give back the min's zeros, 0.0, by float.hex
        t = Fraction(t2, 2)
        from_index = data.draw(st.integers(0, n))
        for kind in sorted(EVENT_KINDS):
            event = PathEvent(kind, t, from_index if kind == "TAIL_SUM_ABS_GE" else None)
            for side in ("UPPER", "LOWER"):
                got, want = on_both(lambda: capacity(set_, n, event, side))
                assert got.hex() == want.hex(), (kind, side)
                assert got.hex() == hull.capacity(set_, n, event, side).hex(), (kind, side)

    @settings(max_examples=60, deadline=None)
    @given(wide_sets(), st.integers(1, 12), st.integers(-3, 8))
    def test_final_abs_capacities(self, set_, n, t2):
        got, want = on_both(lambda: final_abs_capacities(set_, n, Fraction(t2, 2)))
        assert hexes(got) == hexes(want)

    @settings(max_examples=60, deadline=None)
    @given(wide_sets(), st.lists(st.integers(1, 12), min_size=1, max_size=4), tie_prone_functions())
    def test_lln_sweep_rows(self, set_, horizons, f):
        got = [row.dp_value for row in lln_sweep(set_, f, horizons).rows]
        with mock.patch.object(lattice_dp, "_sweep", reference_sweep):
            want = [upper_value(set_, h, f) for h in horizons]
        assert hexes(got) == hexes(want)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_heavy_lln_value_against_the_hull(self, data):
        n = data.draw(st.integers(2, 12))
        K = data.draw(st.sampled_from([
            data.draw(st.integers(1, n - 1)), n, data.draw(st.integers(n + 1, 200))
        ]))
        assert heavy_lln_value(K, n).hex() == hull.heavy_lln_value(K, n).hex()

    @settings(max_examples=100, deadline=None)
    @given(wide_sets(), st.integers(1, 6), st.booleans(), st.booleans(), st.data())
    def test_non_finite_values_and_ties(self, set_, n, upper, unsigned, data):
        # the twin of TestAgainstTheReference's test on wide sets: argmax takes the
        # first NaN, the strict > never picks one after generator 0
        values = UNSIGNED if unsigned else SPECIAL
        weights = [gen.weights for gen in set_.generators]
        bounds = hull.level_bounds(set_, n)
        width = bounds[n][1]
        u = np.array(data.draw(st.lists(st.sampled_from(values), min_size=width, max_size=width)))
        trigger = tuple(tuple(data.draw(st.sampled_from([0, 1])) for _ in gc) for gc in set_.coords)
        absorbing = data.draw(st.sampled_from(values))
        cases = [(set_.coords, bounds, u, None), (trigger, [(0, 1)] * (n + 1), u[:1], absorbing)]
        for moves, b, last, absorb in cases:
            got_record = [np.zeros(length, _choice_dtype(len(weights))) for _, length in b[:n]]
            want_record = [record.copy() for record in got_record]
            with np.errstate(all="ignore"):
                if upper:
                    got = lattice_dp._sweep(moves, weights, b, last.copy(), absorb=absorb, record=got_record)
                    want = reference_sweep(moves, weights, b, last.copy(), np.greater, absorb, want_record)
                else:
                    negated = None if absorb is None else -absorb
                    got = -lattice_dp._sweep(moves, weights, b, -last, absorb=negated, record=got_record)
                    want = reference_sweep(moves, weights, b, last.copy(), np.less, absorb, want_record)
            if upper or unsigned:
                assert got.hex() == want.hex()
            else:
                assert got.hex() == want.hex() or got == want == 0.0
            assert_same_records(got_record, want_record)

    def test_one_sweep_mixes_the_level_forms(self, monkeypatch):
        # five generators on the moves -1, 1, twins and a point mass among them: level
        # k stores k + 1 states, so steps 2-5 run in blocks (G = L at step 5) and
        # steps 6-8 take slices (G = L - 1 at step 6)
        set_ = make_set(
            [(-1, 0.5), (1, 0.5)],
            [(-1, 0.25), (1, 0.75)],
            [(1, 1.0)],
            [(-1, 0.25), (1, 0.75)],
            [(-1, 0.75), (1, 0.25)],
        )
        lengths = []
        wide = lattice_dp._wide_level

        def counted(*args):
            values, arg = wide(*args)
            lengths.append(len(arg))
            return values, arg

        monkeypatch.setattr(lattice_dp, "_wide_level", counted)
        got, want = on_both(lambda: robust_value(set_, 8, tent(0.5, 0.5)))
        assert lengths == [5, 4, 3, 2]
        assert got.value.hex() == want.value.hex()
        assert_same_records([c for _, c in got.policy.levels], [c for _, c in want.policy.levels])

    @pytest.mark.parametrize("cells", [8, 40])
    def test_levels_across_several_generator_blocks(self, cells):
        # _BLOCK_CELLS small: every wide level spans several blocks of 1-4 generators,
        # joined by the strict >; the 20 generators are 4 distinct ones, 5 times over
        set_ = make_set(*[[(-1, w), (0, 0.5 - w / 2), (1, 0.5 - w / 2)] for w in (0.5, 0.25, 0.5, 0.125)] * 5)
        f = piecewise_linear([(-1, 1), (-0.25, 0), (0, 0.5), (1, 0.5)])
        with mock.patch.object(functions, "_BLOCK_CELLS", cells):
            for n in (1, 4, 9):
                assert wide_levels(set_, lattice_dp._frame(set_).bounds(n)) == min(n - 1, 9)
                got, want = on_both(lambda: robust_value(set_, n, f))
                assert got.value.hex() == want.value.hex()
                assert_same_records(
                    [c for _, c in got.policy.levels], [c for _, c in want.policy.levels]
                )
                for g in (0, 7):
                    a, b = on_both(lambda: policy_value(set_, constant_policy(set_, n, g), n, f))
                    assert a.hex() == b.hex()
                for side in ("UPPER", "LOWER"):
                    a, b = on_both(lambda: capacity(set_, n, PathEvent("MAX_PARTIAL_ABS_GE", 2), side))
                    assert a.hex() == b.hex()
                rows = [row.dp_value for row in lln_sweep(set_, f, [n, 1, n]).rows]
                assert hexes(rows) == hexes([want.value, upper_value(set_, 1, f), want.value])


class TestAbsorbingFixedPoint:
    # the kernel stops stepping the absorbing value once a step returns it bitwise
    # unchanged; the reference steps it at every level
    DRIFT = 0.5 + 2.0**-52  # 0.5 + DRIFT sums to 1 + 2^-52 in floats

    @pytest.mark.parametrize("side", ["UPPER", "LOWER"])
    @pytest.mark.parametrize("kind", sorted(lattice_dp._FLAG_KINDS))
    def test_a_drifting_absorbing_value(self, kind, side):
        set_ = make_set([(-1, 0.5), (1, self.DRIFT)], [(-2, 0.25), (0, 0.5), (2, 0.25)])
        assert 0.5 + self.DRIFT == 1 + 2.0**-52
        for n in (1, 2, 40, 300):
            got, want = on_both(lambda: capacity(set_, n, PathEvent(kind, 1), side))
            assert got.hex() == want.hex()
            assert got.hex() == hull.capacity(set_, n, PathEvent(kind, 1), side).hex()
            if side == "UPPER":  # 1 + 2^-52 more at every level: it never settles
                assert got > 1.0

    def test_values_that_settle_at_once(self):
        # HEAVY absorbs at 0.0, which one step keeps; +1.0 on weights summing to 1.0
        for K, n in ((3, 9), (200, 20), (10**6, 40)):
            got, want = on_both(lambda: heavy_lln_value(K, n))
            assert got.hex() == want.hex()
        set_ = make_set([(-1, 0.5), (1, 0.5)], [(-1, 0.25), (0, 0.5), (1, 0.25)])
        for kind in sorted(lattice_dp._FLAG_KINDS):
            for side in ("UPPER", "LOWER"):
                got, want = on_both(lambda: capacity(set_, 60, PathEvent(kind, 2), side))
                assert got.hex() == want.hex()
