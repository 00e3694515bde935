import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublinexp import (
    ABS,
    IDENTITY,
    SQUARE,
    InputError,
    abs_excess,
    clamp,
    constant,
    linear_expect,
    piecewise_linear,
    psi_fn,
    sublinear_expect,
    tent,
    validate_ambiguity_set,
)
from sublinexp.ambiguity import DiscreteDistribution, LatticeSpec, to_fraction
from sublinexp import functions

from conftest import make_set, random_pwl, random_set
from oracle_helpers import pwl_add, pwl_negate, pwl_scale


class TestValidation:
    def test_singleton_point_mass_is_valid(self):
        s = validate_ambiguity_set({"step": 1, "generators": [[(0, 1.0)]]})
        assert len(s.generators) == 1
        assert s.generators[0].points == (0.0,)

    def test_symmetric_two_point_is_valid(self):
        s = validate_ambiguity_set({"step": 1, "generators": [[(-1, 0.5), (1, 0.5)]]})
        assert s.generators[0].points == (-1.0, 1.0)

    def test_weight_sum_error(self):
        with pytest.raises(InputError) as e:
            validate_ambiguity_set({"step": 1, "generators": [[(0, 0.5), (2, 0.49)]]})
        assert e.value.code == "WEIGHT_SUM"

    @pytest.mark.parametrize("weight", [float("nan"), "nan", float("inf")])
    def test_non_finite_weight_is_weight_sum(self, weight):
        with pytest.raises(InputError) as e:
            validate_ambiguity_set({"step": 1, "generators": [[(-1, weight), (1, 0.5)]]})
        assert e.value.code == "WEIGHT_SUM"

    def test_negative_weight_error(self):
        with pytest.raises(InputError) as e:
            validate_ambiguity_set({"step": 1, "generators": [[(0, 1.5), (1, -0.5)]]})
        assert e.value.code == "NEGATIVE_WEIGHT"

    def test_off_lattice_error(self):
        with pytest.raises(InputError) as e:
            validate_ambiguity_set({"step": 2, "generators": [[(1, 1.0)]]})
        assert e.value.code == "OFF_LATTICE"

    def test_fractional_step_accepts_decimal_points(self):
        s = validate_ambiguity_set({"step": 0.5, "generators": [[(-1.5, 0.5), (1, 0.5)]]})
        assert s.coords == ((-3, 2),)

    def test_empty_set_error(self):
        with pytest.raises(InputError) as e:
            validate_ambiguity_set({"step": 1, "generators": []})
        assert e.value.code == "EMPTY_SET"

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            validate_ambiguity_set({"step": 1, "generators": [[(0, 1.0)]], "bogus": 1})

    def test_duplicate_points_coalesce(self):
        s = validate_ambiguity_set({"step": 1, "generators": [[(1, 0.25), (1, 0.25), (0, 0.5)]]})
        assert s.generators[0].points == (0.0, 1.0)
        assert s.generators[0].weights == (0.5, 0.5)


class TestRationals:
    @pytest.mark.parametrize(
        "x", [float("inf"), float("-inf"), float("nan"), "abc", "1/0", "", "inf", None, [1]]
    )
    def test_malformed_rational_is_coded(self, x):
        with pytest.raises(InputError) as e:
            to_fraction(x)
        assert e.value.code == "BAD_RATIONAL"

    def test_well_formed_rationals(self):
        assert to_fraction(0.1) == Fraction(1, 10)
        assert to_fraction("-1/3") == Fraction(-1, 3)
        assert to_fraction(7) == 7 and to_fraction(Fraction(2, 3)) == Fraction(2, 3)


def _fraction_coordinate(lattice, point):
    """The coordinate computed in fractions: (point - origin*step) / step."""
    q = (to_fraction(point) - lattice.origin * lattice.step) / lattice.step
    if q.denominator != 1:
        raise InputError(
            "OFF_LATTICE", f"point {to_fraction(point)} is not an integer multiple of step {lattice.step}"
        )
    return int(q)


class TestCoordinate:
    @settings(max_examples=400, deadline=None)
    @given(
        step=st.sampled_from([1, 2, "0.1", "0.05", "1/3", Fraction(2, 7)]),
        origin=st.integers(-3, 3),
        k=st.integers(-(10**6), 10**6) | st.integers(-(10**18), 10**18),
        off=st.sampled_from([0, 1, -1]),
        exact=st.booleans(),
    )
    def test_integer_coordinate_equals_the_fraction_formula(self, step, origin, k, off, exact):
        lattice = LatticeSpec(to_fraction(step), origin)
        point = (origin + k) * lattice.step
        if not exact:  # the nearest float, or one ulp off it
            point = float(point)
            if off:
                point = math.nextafter(point, off * math.inf)
            assert to_fraction(point) == Fraction(repr(point))
        try:
            want = _fraction_coordinate(lattice, point)
        except InputError as e:
            with pytest.raises(InputError) as got:
                lattice.coordinate(point)
            assert (got.value.code, got.value.message) == ("OFF_LATTICE", e.message)
        else:
            assert lattice.coordinate(point) == want and type(lattice.coordinate(point)) is int


class TestLinearExpect:
    def test_symmetric_mean_zero(self):
        d = make_set([(-1, 0.5), (1, 0.5)]).generators[0]
        assert linear_expect(d, IDENTITY) == 0.0

    def test_heavy_index_two_mean_one(self):
        # {0: 1/2, 2: 1/2} has mean exactly 1
        d = make_set([(0, 0.5), (2, 0.5)]).generators[0]
        assert linear_expect(d, IDENTITY) == 1.0

    def test_point_mass_square(self):
        d = make_set([(5, 1.0)]).generators[0]
        assert linear_expect(d, SQUARE) == 25.0

    def test_unbounded_overflow(self):
        d = make_set([(10**200, 1.0)], step="1e200").generators[0]
        with np.errstate(over="ignore"), pytest.raises(InputError) as e:
            linear_expect(d, SQUARE)
        assert e.value.code == "UNBOUNDED_EVAL"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-80, 80), min_size=1, max_size=40, unique=True),
        st.data(),
        st.sampled_from([("clamp", clamp), ("psi", psi_fn), ("abs_excess", abs_excess)]),
    )
    def test_column_rows_are_the_scalar_expectations(self, coords, data, kind):
        # 1-40 atoms: numpy's pairwise sum unrolls by 8, so each row must be reduced alone
        weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(coords), max_size=len(coords)))
        total = sum(weights)
        d = DiscreteDistribution.from_pairs([(c / 4, w / total) for c, w in zip(coords, weights)])
        params = data.draw(st.lists(st.integers(1, 25), min_size=1, max_size=12))
        name, make = kind
        rows = linear_expect(d, functions.column(name, params))
        assert [v.hex() for v in rows.tolist()] == [linear_expect(d, make(p)).hex() for p in params]


class TestSublinearExpect:
    def test_square_over_two_generators(self, coin_or_rest):
        sv = sublinear_expect(coin_or_rest, SQUARE)
        assert sv.upper == 1.0 and sv.argmax_upper == 1
        assert sv.lower == 0.0 and sv.argmin_lower == 0

    def test_identity_mean_interval(self, biased_pair):
        sv = sublinear_expect(biased_pair, IDENTITY)
        assert sv.upper == 0.5 and sv.lower == 0.0

    def test_constant_preserving(self, biased_pair):
        sv = sublinear_expect(biased_pair, constant(3.25))
        assert sv.upper == sv.lower == 3.25

    def test_tie_breaks_to_lowest_index(self):
        s = make_set([(0, 1.0)], [(0, 1.0)])
        sv = sublinear_expect(s, IDENTITY)
        assert sv.argmax_upper == 0 and sv.argmin_lower == 0

    def test_attainment_is_exact(self, biased_pair):
        f = tent(0.3, 1.2)
        sv = sublinear_expect(biased_pair, f)
        assert sv.upper == linear_expect(biased_pair.generators[sv.argmax_upper], f)
        assert sv.lower == linear_expect(biased_pair.generators[sv.argmin_lower], f)


class TestAxioms:
    """Monotonicity, constant preserving, sub-additivity, positive homogeneity."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_axiom_suite_randomized(self, seed):
        rng = np.random.default_rng(seed)
        s = random_set(rng)
        f = random_pwl(rng)
        g = random_pwl(rng)
        lam = float(rng.uniform(0, 3))
        c = float(rng.uniform(-2, 2))
        uf = sublinear_expect(s, f)
        ug = sublinear_expect(s, g)
        # (a) monotonicity: f <= f + |g| pointwise
        nonneg = piecewise_linear(
            [(x, abs(y)) for x, y in zip(g.params[0], g.params[1])]
        )
        assert sublinear_expect(s, pwl_add(f, nonneg)).upper >= uf.upper - 1e-12
        # (b) constant preserving
        uc = sublinear_expect(s, constant(c))
        assert uc.upper == pytest.approx(c, abs=1e-12)
        # (c) sub-additivity
        assert sublinear_expect(s, pwl_add(f, g)).upper <= uf.upper + ug.upper + 1e-12
        # (d) positive homogeneity
        assert sublinear_expect(s, pwl_scale(f, lam)).upper == pytest.approx(
            lam * uf.upper, abs=1e-12
        )
        # lower is exactly -upper(-f), and every generator sits in between
        assert uf.lower == -sublinear_expect(s, pwl_negate(f)).upper
        for gen in s.generators:
            assert uf.lower - 1e-12 <= linear_expect(gen, f) <= uf.upper + 1e-12

    def test_bounded_builtins_report_bounded(self):
        assert clamp(3).bounded and tent(0, 1).bounded and psi_fn(2).bounded
        assert ABS.bounded
        assert not SQUARE.bounded and not IDENTITY.bounded


class TestFunctionParameters:
    @pytest.mark.parametrize("points", [[1, 2], [[1, 2, 3]], [], 5, [[0, 1], 2]])
    def test_malformed_breakpoints_are_coded(self, points):
        with pytest.raises(InputError) as info:
            piecewise_linear(points)
        assert info.value.code == "BAD_FUNCTION" and "breakpoints" in info.value.message

    def test_breakpoints_may_be_any_iterable_of_pairs(self):
        f = piecewise_linear(zip([1.0, 0.0], [0.0, 1.0]))
        assert f.params == ((0.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: clamp(float("nan")),
            lambda: tent(float("nan"), 1.0),
            lambda: tent(0.0, float("nan")),
            lambda: abs_excess(float("nan")),
            lambda: constant(float("nan")),
            lambda: piecewise_linear([(0.0, float("nan"))]),
            lambda: piecewise_linear([(float("nan"), 0.0), (1.0, 1.0)]),
        ],
    )
    def test_nan_parameter_is_coded(self, make):
        with pytest.raises(InputError) as info:
            make()
        assert info.value.code == "BAD_FUNCTION"

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("clamp", ("x",)),  # not a number
            ("clamp", (True,)),  # a bool is not a number
            ("clamp", ()),  # parameter counts other than the kind's
            ("tent", (1.0,)),
            ("abs", (1.0,)),
            ("psi", (1, 2)),
            ("clamp", 1.0),  # not a tuple
            ("pwl", (1,)),  # not an (xs, ys) pair
            ("pwl", (1, 2)),
            ("pwl", ((0.0, 1.0), (1.0,))),
            ("pwl", ((), ())),
            ("pwl", (("a",), (1.0,))),
            ("pwl", ((0.0,), (None,))),
            ("pwl", ((1.0, 0.0), (0.0, 1.0))),  # decreasing breakpoints
            ("tent", (0.0, -1.0)),  # a halfwidth that is not positive
            ("tent", (0.0, 0.0)),
            ("cube", ()),  # not a kind
            (["abs"], ()),
        ],
    )
    def test_malformed_parameters_are_coded(self, kind, params):
        with pytest.raises(InputError) as info:
            functions.TestFunction(kind, params)
        assert info.value.code == "BAD_FUNCTION"
        if kind == "tent" and len(params) == 2:
            assert info.value.message == "tent halfwidth must be positive"

    @pytest.mark.parametrize(
        "kind, level, least",
        [
            ("clamp", -1, 0),  # [1, -1]: an empty interval
            ("clamp", -1e-300, 0),
            ("clamp", np.array([[1.0], [-1.0]]), 0),  # one row of a column
            ("psi", 0, 1),
            ("psi", 0.5, 1),
            ("psi", np.array([[2.0], [0.0]]), 1),
        ],
    )
    def test_level_below_its_least_is_refused(self, kind, level, least):
        with pytest.raises(InputError) as info:
            functions.TestFunction(kind, (level,))
        assert (info.value.code, info.value.message) == ("BAD_FUNCTION", f"{kind} level must be at least {least}")
        assert functions.TestFunction(kind, (least,))(0.5) == (0.0 if kind == "clamp" else 0.5)
