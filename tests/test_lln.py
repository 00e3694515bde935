from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublinexp import (
    IDENTITY,
    BudgetError,
    EngineError,
    InputError,
    ParametricFamily,
    RAMP_DOWN,
    SQUARE,
    chebyshev_bound_check,
    clamp,
    family_expect,
    linear_expect,
    lln_sweep,
    maximal_dist_value,
    ottaviani_check,
    peng_condition_report,
    psi_fn,
    robust_value,
    tent,
    truncated_means,
    upper_value,
)
from sublinexp import functions, lattice_dp
from sublinexp.lattice_dp import DEFAULT_STATE_BUDGET
from sublinexp.ambiguity import sublinear_expect

from conftest import make_set, tie_prone_functions
from oracle_helpers import family_lower_expect, psi, psi_grid_sup


class TestPsi:
    def test_closed_form_values(self):
        assert psi(5, 5.0) == 5.0
        assert psi(5, 4.0) == 0.0
        assert psi(5, 4.5) == 2.5
        assert psi(5, -7.0) == 5.0
        assert psi(1, 0.5) == 0.5

    def test_vectorized(self):
        out = psi(3, np.array([0.0, 2.5, 3.0, -10.0]))
        assert out.tolist() == [0.0, 1.5, 3.0, 3.0]

    def test_bad_level(self):
        with pytest.raises(InputError):
            psi(0, 1.0)

    @pytest.mark.parametrize("level", [2.5, 0.5, "x", None, float("nan"), float("inf")])
    def test_non_integral_or_non_numeric_level(self, level):
        with pytest.raises(InputError) as e:
            psi(level, 3.0)
        assert e.value.code == "BAD_LEVEL"
        with pytest.raises(InputError) as e:
            psi_fn(level)
        assert e.value.code == "BAD_FUNCTION"

    def test_integral_float_level_is_that_integer(self):
        assert psi_fn(3.0) == psi_fn(3)
        assert psi(3.0, 2.5) == psi(3, 2.5) == 1.5

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 100), st.floats(-250, 250, allow_nan=False))
    def test_indicator_sandwich(self, n, x):
        lower = n * (abs(x) >= n)
        upper = n * (abs(x) >= n - 1)
        assert lower <= psi(n, x) <= upper

    def test_bitwise_equal_to_the_closed_form(self):
        xs = np.concatenate([np.linspace(-12.0, 12.0, 2401), [-0.0, np.inf, -np.inf]])
        for n in (1, 2, 5, 10, 100):
            former = n * np.clip(np.abs(xs) - (n - 1), 0.0, 1.0)
            assert psi(n, xs).tobytes() == former.tobytes()
            for x in xs[::97]:
                got = psi(n, float(x))
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(former[xs == x][0]).tobytes()

    def test_matches_function_object(self):
        xs = np.linspace(-8, 8, 101)
        f = psi_fn(4)
        assert np.array_equal(np.asarray(f(xs)), psi(4, xs))

    def test_grid_sup_matches_literal_scan(self):
        rng = np.random.default_rng(11)
        step = 1e-3
        for _ in range(20):
            n = int(rng.integers(1, 5))
            x = float(rng.uniform(-(n + 2), n + 2))
            lo = int(np.floor((x - 2) / step))
            hi = int(np.ceil((x + 2) / step))
            ys = np.arange(lo, hi + 1) * step
            literal = np.max(n * (np.abs(ys) >= n) - n * np.abs(ys - x))
            assert psi_grid_sup(n, x, y_step=step) == pytest.approx(literal, abs=1e-12)

    def test_grid_sup_close_to_exact_sup(self):
        # the grid sup differs from psi by at most n * (grid spacing)
        for n in (1, 3, 7):
            xs = np.linspace(-n - 2, n + 2, 201)
            g = psi_grid_sup(n, xs, y_step=1e-3)
            assert np.all(np.abs(g - psi(n, xs)) <= n * 1e-3 + 1e-12)


class TestTruncatedMeans:
    def test_biased_pair(self, biased_pair):
        tm = truncated_means(biased_pair, 1)
        assert (tm.mu_lower, tm.mu_upper) == (0.0, 0.5)

    def test_clamp_actually_truncates(self):
        s = make_set([(0, 0.5), (4, 0.5)])
        assert truncated_means(s, 2).mu_upper == 1.0  # (0 + 2)/2
        assert truncated_means(s, 4).mu_upper == 2.0

    def test_heavy_family(self):
        fam = ParametricFamily("HEAVY", 10)
        tm = truncated_means(fam, 2)
        # sup over k of E_k[clamp_2] = min(k,2)/k is 1; inf sits at k=10
        assert tm.mu_upper == 1.0
        assert tm.mu_lower == pytest.approx(2 / 10, abs=1e-15)

    def test_bad_level(self, coin):
        with pytest.raises(InputError):
            truncated_means(coin, 0)

    @pytest.mark.parametrize("name, T", [("EXM3", 1), ("EXM3", 57), ("HEAVY", 1), ("HEAVY", 90)])
    def test_family_bounds_from_one_scan(self, name, T):
        fam = ParametricFamily(name, T)
        for n in (1, 2, 7, 40, 5000):
            tm = truncated_means(fam, n)
            assert tm.mu_upper == family_expect(fam, clamp(n)).value
            assert tm.mu_lower == family_lower_expect(fam, clamp(n))


class TestConditionReport:
    def test_bounded_set_all_conditions_clean(self, biased_pair):
        rep = peng_condition_report(biased_pair, 6)
        assert [r.n for r in rep.rows] == [1, 2, 3, 4, 5, 6]
        for r in rep.rows[1:]:  # support is {-1, 1}: tails vanish from n = 2
            assert r.nV_tail == 0.0 and r.psi_expect == 0.0
            assert (r.mu_lower_n, r.mu_upper_n) == (0.0, 0.5)
        assert "satisfied" in rep.condition_i_trend
        assert rep.mu_upper_limit == 0.5 and rep.mu_lower_limit == 0.0
        assert rep.warnings == ()

    @pytest.mark.parametrize("block", [1, 40, 1 << 16])
    def test_set_rows_are_the_per_n_expectations(self, monkeypatch, block):
        # each block of rows scans one table per generator; a row is the scalar path's,
        # ties (a repeated generator, one at 0) going to the first generator as there
        monkeypatch.setattr(functions, "_BLOCK_CELLS", block)
        rng = np.random.default_rng(block)
        for _ in range(4):
            gens = []
            for _ in range(3):
                coords = rng.choice(np.arange(-40, 41), size=int(rng.integers(1, 12)), replace=False)
                weights = rng.random(len(coords)) + 0.05
                gens.append(list(zip((coords / 4).tolist(), (weights / weights.sum()).tolist())))
            s = make_set(*gens, gens[1], [(0, 1.0)], step=0.25)
            rep = peng_condition_report(s, 15)
            for r in rep.rows:
                tail = max(sum(Fraction(w) for p, w in zip(g.points, g.weights) if abs(p) >= r.n)
                           for g in s.generators)
                mu = sublinear_expect(s, clamp(r.n))
                want = (float(r.n * tail), sublinear_expect(s, psi_fn(r.n)).upper, mu.lower, mu.upper)
                got = (r.nV_tail, r.psi_expect, r.mu_lower_n, r.mu_upper_n)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_heavy_family_condition_i_fails(self):
        rep = peng_condition_report(ParametricFamily("HEAVY", 64), 8)
        for r in rep.rows:  # index k = n attains tail mass 1/n exactly
            assert r.nV_tail == 1.0
            assert r.mu_upper_n == 1.0
        assert "violated" in rep.condition_i_trend
        assert rep.mu_upper_limit == 1.0
        assert rep.mu_lower_limit is None  # n/64 keeps drifting

    def test_exm3_small_scale_matches_direct_summation(self):
        trunc = 30
        rep = peng_condition_report(ParametricFamily("EXM3", trunc), 5)
        fam = ParametricFamily("EXM3", trunc)
        for r in rep.rows:
            direct_psi = max(
                linear_expect(fam.generator(j), psi_fn(r.n)) for j in range(1, trunc + 1)
            )
            direct_mu = max(
                linear_expect(fam.generator(j), clamp(r.n)) for j in range(1, trunc + 1)
            )
            assert r.psi_expect == pytest.approx(direct_psi, abs=1e-12)
            assert r.mu_upper_n == pytest.approx(direct_mu, abs=1e-12)

    @pytest.mark.parametrize("name, T", [("EXM3", 3), ("EXM3", 12), ("HEAVY", 9)])
    def test_warnings_follow_the_tail_argmax(self, name, T):
        fam = ParametricFamily(name, T)
        rep = peng_condition_report(fam, 30)
        expected = [
            f"FAMILY_TRUNCATION_WARNING: tail sup at n={n} limited by truncation"
            for n in range(1, 31)
            if fam.truncation_binding_for_tail(n)
        ]
        assert list(rep.warnings) == expected
        for r in rep.rows:
            value, _ = fam.tail_capacity_fraction(r.n)
            assert r.nV_tail == float(r.n * value)

    def test_truncation_warning_surfaces(self):
        rep = peng_condition_report(ParametricFamily("HEAVY", 4), 6)
        assert any("FAMILY_TRUNCATION_WARNING" in w for w in rep.warnings)

    def test_bad_n_max(self, coin):
        with pytest.raises(InputError):
            peng_condition_report(coin, 1)


class TestOneScan:
    """``truncated_means(source, n)`` is row n of ``peng_condition_report``, bit for bit."""

    @staticmethod
    def assert_rows_agree(source, n_max):
        rep = peng_condition_report(source, n_max)
        for r in rep.rows:
            tm = truncated_means(source, r.n)
            assert (tm.mu_lower.hex(), tm.mu_upper.hex()) == (r.mu_lower_n.hex(), r.mu_upper_n.hex())

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_sets_with_repeated_generators_and_signed_zero_ties(self, monkeypatch, block):
        monkeypatch.setattr(functions, "_BLOCK_CELLS", block)
        # zero means tie at +0.0: the sums start from 0.0, so the point -0.0 gives +0.0 too
        pair = [(-1, 0.5), (1, 0.5)]
        for gens in ([(-0.0, 1.0)], [(0, 1.0)], pair, pair), ([(0, 1.0)], pair, [(-0.0, 1.0)], pair):
            s = make_set(*gens)
            self.assert_rows_agree(s, 6)
            tm = truncated_means(s, 2)
            assert (tm.mu_lower.hex(), tm.mu_upper.hex()) == ("0x0.0p+0", "0x0.0p+0")
        rng = np.random.default_rng(27)
        for _ in range(5):
            gens = [list(zip(rng.choice(np.arange(-30, 31), 4, replace=False).tolist(),
                             [0.125, 0.25, 0.25, 0.375])) for _ in range(2)]
            self.assert_rows_agree(make_set(gens[0], gens[1], gens[0], [(0, 1.0)]), 25)

    @pytest.mark.parametrize("name, T", [("EXM3", 1), ("EXM3", 40), ("HEAVY", 9), ("HEAVY", 70)])
    def test_families(self, name, T):
        self.assert_rows_agree(ParametricFamily(name, T), 60)

    def test_a_level_past_the_floats_is_bad_function(self, coin):
        for source in (coin, ParametricFamily("HEAVY", 5)):
            with pytest.raises(InputError) as e:
                truncated_means(source, 10**400)
            assert e.value.message.startswith("clamp level must be a decimal number, got 1000")
            assert e.value.code == "BAD_FUNCTION"

    @pytest.mark.parametrize("name", ["EXM3", "HEAVY"])
    def test_a_truncation_too_small_names_the_clamp(self, monkeypatch, name):
        scan = ParametricFamily.per_index_expectations

        def escaping(self, f):  # the clamp at level 4 climbs strictly to the truncation
            values = np.atleast_2d(scan(self, f)).copy()
            if f.kind == "clamp":
                values[np.ravel(f.params[0]) == 4.0] = np.arange(self.truncation)
            return values.reshape(np.shape(scan(self, f)))

        monkeypatch.setattr(ParametricFamily, "per_index_expectations", escaping)
        fam = ParametricFamily(name, 30)
        for call in (lambda: truncated_means(fam, 4), lambda: peng_condition_report(fam, 7)):
            with pytest.raises(BudgetError) as e:
                call()
            assert str(e.value) == ("TRUNCATION_TOO_SMALL: running max still strictly increasing "
                                    "over the last 10 of 30 indices for clamp(4)")
        assert truncated_means(fam, 3).mu_upper == peng_condition_report(fam, 3).rows[2].mu_upper_n


@pytest.mark.parametrize(
    "call, code",
    [
        (lambda s: chebyshev_bound_check(s, 3, "x"), "BAD_EPS"),
        (lambda s: chebyshev_bound_check(s, 3, None), "BAD_EPS"),
        (lambda s: ottaviani_check(s, 3, "x", 0.5), "BAD_ALPHA"),
        (lambda s: ottaviani_check(s, 3, 1.0, "x"), "BAD_C"),
        (lambda s: ottaviani_check(s, 3, 1.0, None), "BAD_C"),
        (lambda s: maximal_dist_value(RAMP_DOWN, "a", 1.0), "BAD_INTERVAL"),
        (lambda s: maximal_dist_value(RAMP_DOWN, 0.0, None), "BAD_INTERVAL"),
        (lambda s: maximal_dist_value(RAMP_DOWN, float("nan"), 1.0), "BAD_INTERVAL"),
        (lambda s: maximal_dist_value(RAMP_DOWN, 0.0, float("nan")), "BAD_INTERVAL"),
    ],
)
def test_non_numbers_are_coded(coin, call, code):
    with pytest.raises(InputError) as e:
        call(coin)
    assert e.value.code == code


class TestMaximalDistValue:
    def test_degenerate_interval(self):
        assert maximal_dist_value(RAMP_DOWN, 1.0, 1.0) == 0.0

    def test_interior_knot_wins(self):
        f = tent(0.25, 0.25)
        assert maximal_dist_value(f, 0.0, 0.5) == 1.0

    def test_endpoint_wins(self):
        assert maximal_dist_value(RAMP_DOWN, 0.25, 0.75) == 0.75

    def test_empty_interval(self):
        with pytest.raises(InputError) as e:
            maximal_dist_value(RAMP_DOWN, 1.0, 0.0)
        assert e.value.code == "BAD_INTERVAL"

    def test_unbounded_rejected(self):
        with pytest.raises(InputError):
            maximal_dist_value(SQUARE, 0.0, 1.0)


class TestSweep:
    def test_error_shrinks_along_doubling_horizons(self, biased_pair):
        rep = lln_sweep(biased_pair, tent(0.25, 0.25), [4, 8, 16, 32])
        errs = [r.abs_error for r in rep.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert all(r.limit_value == 1.0 for r in rep.rows)

    def test_rows_carry_exact_difference(self, biased_pair):
        rep = lln_sweep(biased_pair, RAMP_DOWN, [2, 4])
        for r in rep.rows:
            assert r.abs_error == abs(r.dp_value - r.limit_value)

    def test_single_generator_plain_lln(self, coin):
        rep = lln_sweep(coin, tent(0.0, 0.5), [16, 64])
        assert rep.rows[-1].abs_error < rep.rows[0].abs_error


@st.composite
def sweep_sets(draw):
    """1-3 generators of 1-3 atoms on the moves origin + d x, x in -3..3, d 1 to 3 (so the
    moves' gcd may exceed 1), step 1 or 1/2; or every generator the one move (s = 0)."""
    origin = draw(st.sampled_from([-1, 0, 1]))
    step = draw(st.sampled_from([1, Fraction(1, 2)]))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()) and draw(st.booleans()):
        x = draw(st.integers(-3, 3))
        gens = [[(float((origin + d * x) * step), 1.0)]] * draw(st.integers(1, 3))
    else:
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            xs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
            raw = draw(st.lists(st.integers(1, 9), min_size=len(xs), max_size=len(xs)))
            gens.append([(float((origin + d * x) * step), r / sum(raw)) for x, r in zip(xs, raw)])
    return make_set(*gens, step=step, origin=origin)


class TestOnePass:
    """``lln_sweep`` checks every horizon first, then sweeps once with each horizon's
    terminal entering at its own level; every row is its own horizon's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(sweep_sets(), st.lists(st.integers(1, 12), min_size=1, max_size=5),
           tie_prone_functions())
    def test_rows_equal_their_horizons(self, set_, horizons, f):
        rep = lln_sweep(set_, f, horizons)
        assert [r.n for r in rep.rows] == horizons
        for h, row in zip(horizons, rep.rows):
            tm = truncated_means(set_, h)
            limit = maximal_dist_value(f, tm.mu_lower, tm.mu_upper)
            assert row.dp_value.hex() == robust_value(set_, h, f).value.hex()
            assert row.limit_value.hex() == limit.hex()
            assert row.abs_error.hex() == abs(row.dp_value - limit).hex()

    @pytest.mark.parametrize("horizons", [[1], [5, 1, 5, 3], [2, 9, 9, 1, 4], [7, 7]])
    def test_one_kernel_call(self, biased_pair, horizons):
        with mock.patch.object(lattice_dp, "_sweep", wraps=lattice_dp._sweep) as sweep:
            rep = lln_sweep(biased_pair, tent(0.25, 0.25), horizons)
        assert sweep.call_count == 1 and [r.n for r in rep.rows] == horizons
        assert [r.dp_value for r in rep.rows] == [robust_value(biased_pair, h, tent(0.25, 0.25)).value
                                                  for h in horizons]

    @pytest.mark.parametrize("copies, calls", [(6, 1), (7, 7)])
    def test_terminals_past_the_budget_sweep_alone(self, biased_pair, copies, calls):
        # horizon 10 on biased_pair: 66 level-states and a terminal of 11, so a
        # budget of 66 holds six terminals in one sweep but not seven
        with mock.patch.object(lattice_dp, "_sweep", wraps=lattice_dp._sweep) as sweep:
            rep = lln_sweep(biased_pair, RAMP_DOWN, [10] * copies, state_budget=66)
        assert sweep.call_count == calls
        assert max(sum(len(u) for _, u in call.args[3]) for call in sweep.call_args_list) <= 66
        assert {r.dp_value.hex() for r in rep.rows} == {robust_value(biased_pair, 10, RAMP_DOWN).value.hex()}
        with pytest.raises(BudgetError):
            lln_sweep(biased_pair, RAMP_DOWN, [10] * copies, state_budget=65)

    def test_an_empty_list_sweeps_nothing(self, biased_pair):
        with mock.patch.object(lattice_dp, "_sweep", wraps=lattice_dp._sweep) as sweep:
            assert lln_sweep(biased_pair, RAMP_DOWN, []).rows == []
        assert sweep.call_count == 0

    @pytest.mark.parametrize("horizons, budget", [
        ([3, 0, 5], DEFAULT_STATE_BUDGET),
        ([4, 2.5, -1], DEFAULT_STATE_BUDGET),
        ([2, 40, 0], 100),  # the budget refuses 40 before 0 is read
        ([2, 10**10], DEFAULT_STATE_BUDGET),
    ])
    def test_mixed_lists_refuse_at_the_first_refused_horizon(self, biased_pair, horizons, budget):
        with pytest.raises(EngineError) as want:
            for h in horizons:
                upper_value(biased_pair, h, RAMP_DOWN, state_budget=budget)
        with mock.patch.object(lattice_dp, "_sweep", wraps=lattice_dp._sweep) as sweep:
            with pytest.raises(EngineError) as got:
                lln_sweep(biased_pair, RAMP_DOWN, horizons, state_budget=budget)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert sweep.call_count == 0

    def test_unbounded_and_overflowing_inputs_keep_their_codes(self, coin):
        with pytest.raises(InputError) as e:
            lln_sweep(coin, SQUARE, [2, 3])
        assert e.value.code == "UNBOUNDED_F"
        fine = make_set([(-1, 0.5), (1, 0.5)], step="1e-15")
        with pytest.raises(InputError) as e:
            lln_sweep(fine, RAMP_DOWN, [3, 10**4])
        assert e.value.code == "BAD_LATTICE"


class TestChebyshev:
    def test_coin_small_horizon(self, coin):
        chk = chebyshev_bound_check(coin, 2, 1.0)
        assert chk.lhs == 0.0 and chk.rhs == 4.0 and chk.holds

    def test_bound_holds_on_random_sets(self):
        rng = np.random.default_rng(17)
        from conftest import random_set

        for _ in range(25):
            s = random_set(rng)
            n = int(rng.integers(2, 7))
            eps = float(rng.uniform(0.1, 2.0))
            assert chebyshev_bound_check(s, n, eps).holds

    def test_bad_eps(self, coin):
        with pytest.raises(InputError):
            chebyshev_bound_check(coin, 2, 0.0)

    def test_nan_eps_is_bad_eps(self, coin):
        with pytest.raises(InputError) as e:
            chebyshev_bound_check(coin, 2, float("nan"))
        assert e.value.code == "BAD_EPS"

    def test_eps_whose_square_underflows_gives_the_infinite_bound(self, biased_pair):
        # eps * eps is subnormal at 1e-160 (8 / (n eps^2) overflows to inf) and 0.0 at 1e-300
        tiny = chebyshev_bound_check(biased_pair, 8, 1e-160)
        assert tiny.rhs == float("inf") and tiny.holds
        assert chebyshev_bound_check(biased_pair, 8, 1e-300) == tiny
