import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublinexp import (
    ABS,
    BudgetError,
    IDENTITY,
    InputError,
    ParametricFamily,
    RAMP_DOWN,
    SQUARE,
    abs_excess,
    clamp,
    exm3_report,
    family_expect,
    heavy_lln_lower_bound,
    heavy_lln_value,
    linear_expect,
    piecewise_linear,
    psi_fn,
    tent,
)

from sublinexp.functions import column

from oracle_helpers import family_lower_expect

# -- oracles: the atom-by-atom scans the closed forms replace ------------


def atom_scan_expectations(truncation, fs, chunk_atoms=1_000_000):
    """E_j[f] over EXM3 indices 1..truncation for each callable in ``fs``, summing
    all T(T+1)/2 atoms k*j in chunks."""
    outs = [np.empty(truncation) for _ in fs]
    f1s = [float(f(1.0)) for f in fs]
    for out, f1 in zip(outs, f1s):
        out[0] = f1
    j = 2
    while j <= truncation:
        hi, atoms = j, j
        while hi < truncation and atoms + hi + 1 <= chunk_atoms:
            hi += 1
            atoms += hi
        js = np.arange(j, hi + 1)
        starts = np.concatenate(([0], np.cumsum(js)[:-1]))
        kk = np.arange(int(js.sum())) - np.repeat(starts, js) + 1
        points = kk * np.repeat(js, js).astype(float)
        jf = js.astype(float)
        for f, f1, out in zip(fs, f1s, outs):
            sums = np.add.reduceat(np.asarray(f(points), dtype=float), starts)
            out[j - 1 : hi] = (1.0 - 1.0 / jf**2) * f1 + sums / jf**3
        j = hi + 1
    return outs


def fraction_tails(family, threshold):
    """P_j(|X| >= threshold) for j = 1..truncation, one Fraction per index."""
    t = Fraction(threshold)
    out = []
    for j in range(1, family.truncation + 1):
        if family.name == "HEAVY":
            out.append(Fraction(1) if t <= 0 else Fraction(1, j) if j >= t else Fraction(0))
        elif j == 1:
            out.append(Fraction(1) if t <= 1 else Fraction(0))
        else:
            k0 = max(1, math.ceil(t / j))
            mass = Fraction(j - k0 + 1 if k0 <= j else 0, j**3)
            out.append(mass + 1 - Fraction(1, j * j) if t <= 1 else mass)
    return out


def heavy_full_sweep(K, n):
    """E_K[ramp(S_n / n)] maximized over every index k = 1..K at every state 0..level*K."""
    u = np.asarray(RAMP_DOWN(np.arange(n * K + 1) / n), dtype=float)
    for level in range(n, 0, -1):
        length = (level - 1) * K + 1
        best = None
        for k in range(1, K + 1):
            cand = (1.0 - 1.0 / k) * u[:length] + (1.0 / k) * u[k : k + length]
            best = cand if best is None else np.where(cand > best, cand, best)
        u = best
    return float(u[0])


def scan_tolerance(truncation, f, abs_scan):
    """1e-12 of E_j[|f|], or of f's height on [1, T^2] times the 1/j^2 mass past the atom 1,
    plus 2^-1075 per rounding of either scan at index j.

    A bounded kind rounds relative to its height (a tent's 1 - |x - c|/h near
    its edges), so where E_j[|f|] is far below it neither scan is closer to
    the exact value than that; unbounded kinds are nonnegative on the atoms.
    The relative bound vanishes where the values are subnormal, and there each
    rounding may also err by half the least subnormal, 2^-1075 (the standard
    model's absolute term).  At index j with k knots the atom scan rounds at
    most 6 times in each of its j values of f (``np.interp``), j - 1 times in
    their sum and 11 times after it, f(1) included; the closed form at most 16
    times in each of its k + 1 segments and 11 times after them: at most
    7j + 16k + 37 < 20 (j + k + 2) in all.
    """
    height = 0.0
    if f.bounded:
        top = float(truncation) ** 2
        height = max(abs(float(f(x))) for x in [1.0, top] + [x for x in f.knots() if 1 < x < top])
    js = np.arange(1, truncation + 1, dtype=float)
    underflow = np.ldexp(20 * (js + len(f.knots()) + 2), -1075)  # even multiples of 2^-1075: exact
    return 1e-12 * np.maximum(abs_scan, height / js**2) + underflow


def assert_matches_atom_scan(truncation, f, closed):
    (scan, abs_scan) = atom_scan_expectations(truncation, [f, lambda x: np.abs(f(x))])
    assert np.all(np.abs(closed - scan) <= scan_tolerance(truncation, f, abs_scan)), (
        f.describe(),
        truncation,
    )


KINDS = ("abs", "square", "identity", "clamp", "tent", "psi", "abs_excess", "pwl")
FIXED = {"abs": ABS, "square": SQUARE, "identity": IDENTITY}


@st.composite
def exm3_functions(draw):
    """A truncation T <= 2000 and a function of any kind, knots on atoms k*j or anywhere."""
    T = draw(st.integers(1, 2000))
    on_atom = st.tuples(st.integers(1, T), st.integers(1, T)).map(lambda kj: float(kj[0] * kj[1]))
    anywhere = st.floats(-5.0, T * T + 5.0, allow_nan=False)
    knot = st.one_of(on_atom, anywhere)
    positive = st.one_of(on_atom, st.floats(0.01, T * T + 5.0))
    kind = draw(st.sampled_from(KINDS))
    if kind == "clamp":
        f = clamp(draw(positive))
    elif kind == "tent":
        f = tent(draw(knot), draw(positive))
    elif kind == "psi":
        f = psi_fn(draw(st.one_of(on_atom.map(int), st.integers(1, T * T + 2))))
    elif kind == "abs_excess":
        f = abs_excess(draw(st.one_of(on_atom, st.floats(0.0, T * T + 5.0))))
    elif kind == "pwl":
        xs = sorted(set(draw(st.lists(knot, min_size=1, max_size=6))))
        ys = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs), max_size=len(xs)))
        f = piecewise_linear(zip(xs, ys))
    else:
        f = FIXED[kind]
    return T, f


class TestGenerators:
    def test_heavy_generator_shape(self):
        d = ParametricFamily("HEAVY", 10).generator(5)
        assert d.points == (0.0, 5.0)
        assert d.weights == (0.8, 0.2)

    def test_heavy_every_mean_is_one(self):
        fam = ParametricFamily("HEAVY", 30)
        for k in (1, 2, 7, 30):
            assert linear_expect(fam.generator(k), IDENTITY) == pytest.approx(1.0, abs=1e-15)

    def test_exm3_index_one_is_point_mass(self):
        d = ParametricFamily("EXM3", 5).generator(1)
        assert d.points == (1.0,) and d.weights == (1.0,)

    def test_exm3_atoms_and_rational_weights(self):
        d = ParametricFamily("EXM3", 5).generator(3)
        assert d.points == (1.0, 3.0, 6.0, 9.0)
        # 1 - 1/9 on the fixed atom, 1/27 on each multiple of 3
        assert Fraction(d.weights[0]).limit_denominator(100) == Fraction(8, 9)
        assert sum(Fraction(w).limit_denominator(100) for w in d.weights) == 1

    def test_index_bounds(self):
        fam = ParametricFamily("EXM3", 4)
        with pytest.raises(InputError):
            fam.generator(0)
        with pytest.raises(InputError):
            fam.generator(5)

    def test_unknown_family(self):
        with pytest.raises(InputError):
            ParametricFamily("NOPE", 3)

    @pytest.mark.parametrize("truncation", [0, -1, 2.5, 2.0, True, "3", 100.5, 1000.0])
    def test_truncation_is_an_integer_from_one(self, truncation):
        # refused where the family is made, not later inside a numpy scan
        makers = [lambda name=name: ParametricFamily(name, truncation) for name in ("EXM3", "HEAVY")]
        if isinstance(truncation, float) and truncation >= 40:  # past TRUNCATION_TOO_SMALL
            makers.append(lambda: exm3_report(truncation, [10], [10]))
        for make in makers:
            with pytest.raises(InputError) as e:
                make()
            assert e.value.code == "BAD_FAMILY"
            assert e.value.message == f"truncation must be an integer >= 1, got {truncation!r}"


class TestFamilyExpect:
    def test_vectorized_scan_matches_per_generator_summation(self):
        for name, trunc in (("HEAVY", 40), ("EXM3", 40)):
            fam = ParametricFamily(name, trunc)
            f = psi_fn(3)
            scan = fam.per_index_expectations(f)
            direct = [linear_expect(fam.generator(j), f) for j in range(1, trunc + 1)]
            assert np.allclose(scan, direct, atol=1e-12)

    def test_heavy_identity_supremum(self):
        fe = family_expect(ParametricFamily("HEAVY", 20), IDENTITY)
        assert fe.value == pytest.approx(1.0, abs=1e-15)

    def test_exm3_psi2_attained_inside_small_truncation(self):
        fe = family_expect(ParametricFamily("EXM3", 3), psi_fn(2))
        assert fe.value == 0.5 and fe.argmax_index == 2

    def test_lower_expectation_is_min(self):
        fam = ParametricFamily("HEAVY", 10)
        f = RAMP_DOWN
        direct = min(linear_expect(fam.generator(j), f) for j in range(1, 11))
        assert family_lower_expect(fam, f) == pytest.approx(direct, abs=1e-15)

    def test_supremum_monotone_in_truncation(self):
        f = abs_excess(5.0)
        vals = [
            family_expect(ParametricFamily("EXM3", t), f).value for t in (25, 50, 100)
        ]
        assert vals[0] <= vals[1] <= vals[2]

    def test_truncation_too_small(self):
        # E_k[(|X| - 1)^+] = (k - 1)/k keeps climbing with k for HEAVY
        with pytest.raises(BudgetError) as e:
            family_expect(ParametricFamily("HEAVY", 50), abs_excess(1.0))
        assert e.value.code == "TRUNCATION_TOO_SMALL"


    def test_sup_past_the_doubles_is_unbounded_eval(self):
        # E_j[(|X| + 1.7e308)^+] rounds to a finite value, but EXM3's segment sums overflow
        fam = ParametricFamily("EXM3", 100)
        for f in (abs_excess(-1.7e308), column("abs_excess", [1.0, -1.7e308, 2.0])):
            with pytest.raises(InputError) as e:
                family_expect(fam, f)
            assert e.value.code == "UNBOUNDED_EVAL"
            assert e.value.message == "abs_excess(-1.7e+308) overflows on the EXM3 family, truncation 100"
        assert family_expect(ParametricFamily("HEAVY", 100), abs_excess(-1.7e308)).value == pytest.approx(1.7e308)


class TestClosedFormScan:
    @settings(max_examples=120, deadline=None)
    @given(exm3_functions())
    # subnormal values: at j = 98 the two scans differ by one least subnormal, 2^-1074
    @example((276, piecewise_linear([(0, 0), (27324, 2.2250738585072014e-308)])))
    def test_matches_atom_scan(self, case):
        T, f = case
        assert_matches_atom_scan(T, f, ParametricFamily("EXM3", T).per_index_expectations(f))

    def test_every_kind_at_truncation_ten_thousand(self):
        T = 10_000
        fs = [
            ABS,
            SQUARE,
            IDENTITY,
            clamp(5_000),  # on the atoms 50 * 100, ...
            tent(250_000.0, 40_000.5),  # integer centre, edges off the atoms
            psi_fn(100),
            abs_excess(99.5),
            piecewise_linear([(0.0, 1.0), (3_000.0, -2.0), (77_777.7, 4.0), (5e7, 0.5)]),
        ]
        fam = ParametricFamily("EXM3", T)
        scans = atom_scan_expectations(T, fs + [lambda x, f=f: np.abs(f(x)) for f in fs])
        for f, scan, abs_scan in zip(fs, scans, scans[len(fs) :]):
            closed = fam.per_index_expectations(f)
            assert np.all(np.abs(closed - scan) <= scan_tolerance(T, f, abs_scan)), f.describe()

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 10**6),
        st.one_of(st.integers(1, 10**7), st.floats(1e-300, 1e13)),
        st.sampled_from([-1, 0, 1]),
    )
    def test_float_ceil_of_a_knot_over_an_index_is_exact(self, j, m, nudge):
        # the segment edges take ceil(x / j) in floats, also one ulp off a multiple of j
        x = float(m * j) if isinstance(m, int) else m
        x = float(np.nextafter(x, nudge * np.inf)) if nudge else x
        assert math.ceil(x / j) == math.ceil(Fraction(x) / j)

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 40])
    def test_integer_valued_atoms_sum_bitwise(self, T):
        # integer knots on integer atoms: every partial sum is an exact integer
        fam = ParametricFamily("EXM3", T)
        fs = [psi_fn(4), clamp(6), abs_excess(3.0), ABS, tent(12.0, 4.0)]
        for f, scan in zip(fs, atom_scan_expectations(T, fs)):
            assert np.array_equal(fam.per_index_expectations(f), scan), f.describe()


class TestTailCapacity:
    def test_heavy_exact_values(self):
        fam = ParametricFamily("HEAVY", 50)
        assert fam.tail_capacity_fraction(10) == (Fraction(1, 10), 10)

    def test_exm3_matches_direct_counting(self):
        fam = ParametricFamily("EXM3", 60)
        for t in (2, 5, 10, 30):
            value, _ = fam.tail_capacity_fraction(t)
            direct = max(
                sum(w for p, w in zip(g.points, g.weights) if abs(p) >= t)
                for g in (fam.generator(j) for j in range(1, 61))
            )
            assert float(value) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("name", ["EXM3", "HEAVY"])
    @pytest.mark.parametrize("T", [1, 2, 3, 13, 200, 10_000])
    def test_exact_supremum_matches_fraction_oracle(self, name, T):
        fam = ParametricFamily(name, T)
        thresholds = [-3, 0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(77, 3), 100,
                      T - 1, T, T + 1, Fraction(2 * T * T - 1, 2), T * T, T * T + 1, 10**30]
        for t in thresholds:
            tails = fraction_tails(fam, t)
            best = max(tails)
            assert fam.tail_capacity_fraction(t) == (best, tails.index(best) + 1), t
            assert fam.tail_fractions(t) == tails, t

    def test_near_ties_pick_the_exact_maximum(self):
        # indices 2528 and 2530 carry 1263/2528^3 and 1266/2530^3 at t = 3199874,
        # within 1e-9 of each other: both are shortlisted and compared exactly
        fam = ParametricFamily("EXM3", 5000)
        for t in (3199874, 3224873, 3266538, 3291537):
            tails = fraction_tails(fam, t)
            best = max(tails)
            assert fam.tail_capacity_fraction(t) == (best, tails.index(best) + 1)

    def test_first_index_wins_ties(self):
        # below the smallest atom every index carries mass 1; past the largest, 0
        for name, low, T in (("EXM3", 1, 30), ("HEAVY", 0, 30)):
            fam = ParametricFamily(name, T)
            for t in (low, Fraction(low) - Fraction(1, 3), -10):
                assert fam.tail_capacity_fraction(t) == (1, 1)
            beyond = T * T + 1 if name == "EXM3" else T + 1
            assert fam.tail_capacity_fraction(beyond) == (0, 1)
            assert fam.tail_capacity_fraction(Fraction(2 * beyond - 1, 2)) == (0, 1)

    def test_binding_from_a_known_argmax(self):
        fam = ParametricFamily("EXM3", 40)
        for t in (2, 30, 900, 1500, 1601):
            _, arg = fam.tail_capacity_fraction(t)
            assert fam.truncation_binding_for_tail(t, arg) == (arg >= 35)

    def test_binding_detection(self):
        # HEAVY's untruncated tail sup at 8 sits at index 8, whatever the truncated argmax
        for T, binding in ((5, True), (50, False)):
            fam = ParametricFamily("HEAVY", T)
            assert fam.truncation_binding_for_tail(8, fam.tail_capacity_fraction(8)[1]) == binding


class TestExm3Report:
    def test_report_shape_and_values(self):
        rep = exm3_report(100, [2.0], [10])
        (lam, excess), = rep.lambda_rows
        assert lam == 2.0
        fam = ParametricFamily("EXM3", 100)
        assert excess == family_expect(fam, abs_excess(2.0)).value
        (m, psi_val, m_tail), = rep.m_rows
        assert m == 10
        assert psi_val == family_expect(fam, psi_fn(10)).value
        tail, _ = fam.tail_capacity_fraction(10)
        assert m_tail == 10 * float(tail)

    def test_psi_equals_scaled_tail_on_integer_atoms(self):
        # every atom is an integer, so psi_m is m * [|x| >= m] on the support
        rep = exm3_report(200, [], [5, 10, 20])
        for _, psi_val, m_tail in rep.m_rows:
            assert psi_val == pytest.approx(m_tail, abs=1e-12)

    def test_truncation_guard_for_lambda(self):
        with pytest.raises(BudgetError) as e:
            exm3_report(10, [5.0], [])
        assert e.value.code == "TRUNCATION_TOO_SMALL"

    @pytest.mark.parametrize("truncation", ["3", 0, True])
    def test_truncation_is_checked_before_the_lambdas(self, truncation):
        with pytest.raises(InputError) as e:
            exm3_report(truncation, [10], [10])
        assert e.value.code == "BAD_FAMILY"

    def test_truncation_is_charged_once_every_lambda_and_m_is_read(self):
        with pytest.raises(BudgetError, match="^STATE_BUDGET_EXCEEDED: 1000000000 family indices exceed"):
            exm3_report(10**9, [10.0], [10])
        for lambdas, ms in (([10.0], [0]), ([math.nan], [10])):
            with pytest.raises(InputError) as e:
                exm3_report(10**9, lambdas, ms)
            assert e.value.code == "BAD_FUNCTION"
        assert exm3_report(100, [2.0], [10], state_budget=100).m_rows
        with pytest.raises(BudgetError, match="^STATE_BUDGET_EXCEEDED: 100 family indices exceed budget 99$"):
            exm3_report(100, [200.0], [10], state_budget=99)  # before its 4·max λ check

    @pytest.mark.parametrize("m", [0, -3, 2.5])
    def test_tail_level_must_be_a_positive_integer(self, m):
        with pytest.raises(InputError) as e:
            exm3_report(100, [2.0], [m])
        assert e.value.code == "BAD_FUNCTION"


class TestHeavyLln:
    def test_tiny_instances(self):
        assert heavy_lln_value(1, 1) == 0.0  # K=1 walks straight to 1
        assert heavy_lln_value(5, 1) == 0.8

    def test_matches_closed_form(self):
        for K, n in [(10, 3), (50, 8), (200, 20)]:
            assert heavy_lln_value(K, n) == pytest.approx(
                heavy_lln_lower_bound(K, n), abs=1e-12
            )

    def test_k200_n20_value(self):
        assert heavy_lln_value(200, 20) == pytest.approx(0.9046104802746175, abs=1e-12)

    def test_state_budget(self):
        with pytest.raises(BudgetError):
            heavy_lln_value(1000, 1000, state_budget=100)

    def test_large_truncation_runs_at_the_default_budget(self):
        # the charge is the swept work, 1601 level-states x 40 generators, not (n + 1)(n K + 1)
        # the bound up to the rounding of 40 float products, as in CRITERION 7
        assert heavy_lln_value(10**6, 40) >= heavy_lln_lower_bound(10**6, 40) - 1e-12
        with pytest.raises(BudgetError) as e:
            heavy_lln_value(10**5, 40, state_budget=64039)
        assert e.value.message == "64040 level-states x generators exceed budget 64039"

    def test_charge_is_the_swept_work_and_never_above_the_old_charge(self):
        for K in range(1, 30):
            for n in range(1, 30):
                levels = sum(min(level * K, n - 1) + 1 for level in range(n + 1))
                swept = len(range(1, min(K, n - 1) + 1)) + (K >= n)
                with pytest.raises(BudgetError) as e:
                    heavy_lln_value(K, n, state_budget=0)
                charge = int(e.value.message.split()[0])
                assert charge == levels * swept
                assert charge <= (n + 1) * (n * K + 1)

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            heavy_lln_value(0, 5)
        with pytest.raises(InputError):
            heavy_lln_value(5, 0)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 24])
    def test_bitwise_equal_to_the_full_sweep(self, n):
        # K = n - 1, n, n + 1 pin the dominance list: only k < n and k = K are swept
        for K in sorted({1, 2, 3, 7, 19, 27, 63, n - 1, n, n + 1, 200} - {0}):
            got, want = heavy_lln_value(K, n), heavy_full_sweep(K, n)
            assert got.hex() == want.hex(), (K, n)

    def test_generator_weights_differ_in_the_last_bit(self):
        # why heavy_lln_value builds its own weights instead of using the generators
        differ = [k for k in range(2, 400) if float(Fraction(k - 1, k)) != 1.0 - 1.0 / k]
        assert differ[:6] == [3, 7, 19, 27, 63, 171]
        fam = ParametricFamily("HEAVY", 3)
        assert fam.generator(3).weights[0] != 1.0 - 1.0 / 3
