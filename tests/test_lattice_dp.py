import functools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublinexp import (
    AmbiguitySet,
    BudgetError,
    InputError,
    KernelPolicy,
    LatticeSpec,
    PathEvent,
    SQUARE,
    brute_force_capacity,
    brute_force_value,
    capacity,
    constant_policy,
    piecewise_linear,
    policy_value,
    robust_value,
    sublinear_expect,
    tent,
    upper_value,
)
from sublinexp import lattice_dp
from sublinexp.cli import main
from sublinexp.counterexamples import heavy_lln_value
from sublinexp.inequalities import capacity_product_identity, ottaviani_check
from sublinexp.lattice_dp import (
    EVENT_KINDS,
    _FLAG_KINDS,
    _event_hit,
    final_abs_capacities,
    reachable_masks,
)
from sublinexp.lln import chebyshev_bound_check, lln_sweep, peng_condition_report, truncated_means
from sublinexp.montecarlo import SimConfig, simulate
from sublinexp.oracle import enumerate_selections_value

import hull_reference as hull
import reachability_reference as reachable
from conftest import make_set, random_pwl, random_set
from oracle_helpers import designated, hand_policy

ABS_CLIPPED = piecewise_linear([(-1, 1), (0, 0), (1, 1)])
KINDS = sorted(EVENT_KINDS)


def fraction_hit(kind, value: Fraction, t: Fraction) -> bool:
    """The event's test on an exact real value: the reference for the integer tests."""
    if kind == "FINAL_ABS_LT":
        return abs(value) < t
    if kind == "FINAL_GT":
        return value > t
    if kind == "FINAL_LT":
        return value < t
    return abs(value) >= t


class TestRobustValue:
    def test_freeze_or_spread_two_steps(self, coin_or_rest):
        assert robust_value(coin_or_rest, 2, ABS_CLIPPED).value == 0.5

    def test_horizon_one_reduces_to_single_step(self, biased_pair):
        f = tent(0.25, 0.25)
        assert robust_value(biased_pair, 1, f).value == sublinear_expect(biased_pair, f).upper

    def test_moment_mode_variance_sum(self, coin):
        assert robust_value(coin, 2, SQUARE, normalize=False).value == 2.0

    def test_unbounded_rejected_in_normalized_mode(self, coin):
        with pytest.raises(InputError) as e:
            robust_value(coin, 2, SQUARE)
        assert e.value.code == "UNBOUNDED_F"
        assert e.value.message == "square is unbounded; for f(S_n) use normalize=False (Python API)"

    def test_state_budget(self, coin):
        with pytest.raises(BudgetError) as e:
            robust_value(coin, 10, ABS_CLIPPED, state_budget=10)
        assert e.value.code == "STATE_BUDGET_EXCEEDED"


class TestCapacity:
    def test_final_abs_upper_single_generator(self, coin):
        assert capacity(coin, 2, PathEvent("FINAL_ABS_GE", 2), "UPPER") == 0.5

    def test_final_abs_lower_nature_freezes(self, coin_or_rest):
        assert capacity(coin_or_rest, 2, PathEvent("FINAL_ABS_GE", 2), "LOWER") == 0.0

    def test_final_abs_upper_two_generators(self, coin_or_rest):
        assert capacity(coin_or_rest, 2, PathEvent("FINAL_ABS_GE", 2), "UPPER") == 0.5

    @pytest.mark.parametrize("kind", ["MAX_PARTIAL_ABS_GE", "MAX_INCREMENT_ABS_GE", "FINAL_ABS_GE"])
    def test_lower_zero_is_positive(self, coin_or_rest, kind):
        # LOWER negates an upper sweep whose zeros are all -0.0: an exact 0 reads 0.0
        v = capacity(coin_or_rest, 3, PathEvent(kind, 2), "LOWER")
        assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_duality_with_complement(self, biased_pair):
        for a in (1, 2, 3):
            v_lower = capacity(biased_pair, 3, PathEvent("FINAL_ABS_GE", a), "LOWER")
            v_upper_c = capacity(biased_pair, 3, PathEvent("FINAL_ABS_LT", a), "UPPER")
            assert abs(v_lower - (1.0 - v_upper_c)) <= 1e-12

    def test_monotone_in_threshold(self, biased_pair):
        vals = [
            capacity(biased_pair, 4, PathEvent("FINAL_ABS_GE", a), "UPPER")
            for a in (0, 1, 2, 3, 4, 5)
        ]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_increment_stationarity(self, biased_pair):
        for origin in (0, 1, -2):
            s = AmbiguitySet(LatticeSpec(1, origin), biased_pair.generators)
            for k in (0, 1, 2):
                tail = capacity(s, 4, PathEvent("TAIL_SUM_ABS_GE", 2, from_index=k), "UPPER")
                fresh = capacity(s, 4 - k, PathEvent("FINAL_ABS_GE", 2), "UPPER")
                assert tail == fresh

    def test_tail_sum_on_shifted_lattice(self):
        # coordinates 0 and 1 are the points 1 and 2: a frozen level adds no real value
        s = make_set([(1, 0.5), (2, 0.5)], origin=1)
        empty_tail = PathEvent("TAIL_SUM_ABS_GE", 1, from_index=3)
        beyond_max = PathEvent("TAIL_SUM_ABS_GE", 5, from_index=1)
        assert capacity(s, 3, empty_tail) == 0.0
        assert capacity(s, 3, beyond_max) == 0.0
        for t, k in [(2, 1), (3, 1), (4, 1), (2, 2), (1, 2), (0, 3)]:
            ev = PathEvent("TAIL_SUM_ABS_GE", t, from_index=k)
            assert capacity(s, 3, ev) == brute_force_capacity(s, 3, ev)

    def test_final_abs_capacities_match_per_horizon_capacity(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            origin = int(rng.integers(-2, 3))
            step = Fraction(int(rng.integers(1, 4)), int(rng.choice([1, 4, 10])))
            s = random_set(rng, step=step, origin=origin)
            n = int(rng.integers(1, 25))
            t = Fraction(int(rng.integers(-4, 3 * n)), 2) * step
            by_h = final_abs_capacities(s, n, t)
            assert len(by_h) == n + 1
            assert by_h[0] == (1.0 if t <= 0 else 0.0)
            ev = PathEvent("FINAL_ABS_GE", t)
            assert by_h[1:] == [capacity(s, h, ev) for h in range(1, n + 1)]

    def test_singleton_collapse(self, coin):
        for kind, t in [("FINAL_ABS_GE", 2), ("MAX_PARTIAL_ABS_GE", 1), ("FINAL_GT", 0)]:
            ev = PathEvent(kind, t)
            assert capacity(coin, 3, ev, "UPPER") == capacity(coin, 3, ev, "LOWER")

    def test_max_increment_event(self, coin):
        # every increment has |X| = 1
        assert capacity(coin, 3, PathEvent("MAX_INCREMENT_ABS_GE", 1), "UPPER") == 1.0
        assert capacity(coin, 3, PathEvent("MAX_INCREMENT_ABS_GE", 2), "UPPER") == 0.0

    @pytest.mark.parametrize("side", ["UPPER", "LOWER"])
    def test_jumps_past_the_stored_partial_sums_absorb(self, side):
        # atoms far beyond the few untriggered states of each level
        s = make_set([(-1000, 0.3), (0, 0.5), (1, 0.2)], [(0, 0.6), (2, 0.4)])
        for n in (1, 2, 3, 4):
            for t in (-1, 0, 1, 2, 3, 999, 1000, 1001, 3000):
                ev = PathEvent("MAX_PARTIAL_ABS_GE", t)
                assert capacity(s, n, ev, side) == pytest.approx(
                    brute_force_capacity(s, n, ev, side), abs=1e-12
                )

    @pytest.mark.parametrize("kind", sorted(_FLAG_KINDS))
    @pytest.mark.parametrize("side", ["UPPER", "LOWER"])
    def test_absorbing_value_is_extremized_bitwise(self, kind, side):
        # weight sums 1 -/+ 4e-13 make the triggered value differ by generator
        s = make_set([(-5, 0.5), (0, 0.5 - 4e-13)], [(0, 0.5 + 4e-13), (5, 0.5)])
        for n in (1, 2, 3, 4):
            ev = PathEvent(kind, 5)
            assert capacity(s, n, ev, side) == brute_force_capacity(s, n, ev, side)

    def test_increment_budget_counts_one_state_per_level(self):
        # V(max_k |X_k| >= 2) = 1 - (1 - p)^n, p the largest (smallest) one-step tail
        s = make_set([(0, 0.999), (2, 0.001)], [(-1, 0.5), (1, 0.4995), (3, 0.0005)])
        n, budget = 3000, 10_000  # the former charge, 2 * (n + 1)^2 states, is refused
        ev = PathEvent("MAX_INCREMENT_ABS_GE", 2)
        assert capacity(s, n, ev, "UPPER", state_budget=budget) == pytest.approx(
            1 - 0.999**n, rel=1e-12
        )
        assert capacity(s, n, ev, "LOWER", state_budget=budget) == pytest.approx(
            1 - 0.9995**n, rel=1e-12
        )
        with pytest.raises(BudgetError) as e:
            capacity(s, n, ev, state_budget=2 * (n + 1) - 1)
        assert e.value.code == "STATE_BUDGET_EXCEEDED"

    def test_partial_budget_refusals_unchanged(self, biased_pair):
        n = 40
        charged = 2 * sum(k + 1 for k in range(n + 1))  # both flags over every level's progression
        ev = PathEvent("MAX_PARTIAL_ABS_GE", 3)
        with pytest.raises(BudgetError) as e:
            capacity(biased_pair, n, ev, state_budget=charged - 1)
        assert e.value.message == f"{charged} level-states exceed budget {charged - 1}"
        assert 0.0 < capacity(biased_pair, n, ev, state_budget=charged) <= 1.0

    def test_unsupported_event(self):
        with pytest.raises(InputError) as e:
            PathEvent("FINAL_EQ", 1)
        assert e.value.code == "UNSUPPORTED_EVENT"

    def test_capacity_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_set(rng)
            ev = PathEvent("MAX_PARTIAL_ABS_GE", int(rng.integers(0, 5)))
            v = capacity(s, 3, ev, "UPPER")
            w = capacity(s, 3, ev, "LOWER")
            assert 0.0 <= w <= v <= 1.0 + 1e-12


class TestEventPredicates:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(KINDS),
        st.sampled_from([Fraction("0.1"), Fraction("0.05"), Fraction(1, 4), Fraction(3)]),
        st.integers(-2, 2),
        st.integers(0, 12),
        st.one_of(st.integers(-40, 40), st.fractions(-40, 40, max_denominator=12)),
    )
    def test_integer_test_equals_fraction_test(self, kind, step, origin, level, units):
        # integer units are lattice multiples of the step, including 0 and negatives
        t = units * step
        states = np.arange(-60, 61)
        got = _event_hit(kind, t, step)(states + level * origin)
        want = [fraction_hit(kind, (int(s) + level * origin) * step, t) for s in states]
        assert got.tolist() == want


@pytest.mark.parametrize("origin", [-1, 0, 1, 2])
@pytest.mark.parametrize("side", ["UPPER", "LOWER"])
@pytest.mark.parametrize("kind", KINDS)
def test_capacity_matches_brute_force_on_integer_steps(kind, side, origin):
    # integer steps; test_capacity_matches_brute_force_on_decimal_steps takes decimal ones
    rng = np.random.default_rng([KINDS.index(kind), origin + 1, side == "UPPER"])
    for _ in range(4):
        step = int(rng.integers(1, 4))
        s = random_set(rng, max_generators=2, step=step, origin=origin)
        n = int(rng.integers(1, 6))
        t = Fraction(int(rng.integers(-2, 2 * (3 + abs(origin)) * n)), 2) * step
        k = int(rng.integers(0, n + 1)) if kind == "TAIL_SUM_ABS_GE" else None
        ev = PathEvent(kind, t, k)
        assert capacity(s, n, ev, side) == pytest.approx(
            brute_force_capacity(s, n, ev, side), abs=1e-12
        )


@pytest.mark.parametrize("step", ["1/4", 0.1, "0.3"])
@pytest.mark.parametrize("side", ["UPPER", "LOWER"])
@pytest.mark.parametrize("kind", KINDS)
def test_capacity_matches_brute_force_on_decimal_steps(kind, side, step):
    # the oracle sums each path exactly, so thresholds at a sum of decimal steps are exact too
    rng = np.random.default_rng([KINDS.index(kind), side == "UPPER", int(step == 0.1)])
    unit = Fraction(step) if isinstance(step, str) else Fraction(str(step))
    for _ in range(6):
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            coords = rng.choice(np.arange(-3, 4), size=int(rng.integers(1, 4)), replace=False)
            weights = rng.random(len(coords)) + 0.05
            gens.append([(float(int(c) * unit), w) for c, w in zip(coords, weights / weights.sum())])
        s = make_set(*gens, step=step)
        n = int(rng.integers(1, 5))
        t = int(rng.integers(-2, 4 * n)) * unit
        k = int(rng.integers(0, n + 1)) if kind == "TAIL_SUM_ABS_GE" else None
        ev = PathEvent(kind, t, k)
        assert capacity(s, n, ev, side) == pytest.approx(
            brute_force_capacity(s, n, ev, side), abs=1e-12
        )


class TestPolicyValue:
    def test_constant_uniform_policy(self, coin_or_rest):
        pol = hand_policy(2, {(1, 0): 1, (2, -1): 1, (2, 0): 1, (2, 1): 1})
        f = piecewise_linear([(-1, 1), (0, 0), (1, 1)])
        assert policy_value(coin_or_rest, pol, 2, f) == 0.5

    def test_constant_freeze_policy(self, coin_or_rest):
        pol = hand_policy(2, {(1, 0): 0, (2, -1): 0, (2, 0): 0, (2, 1): 0})
        assert policy_value(coin_or_rest, pol, 2, ABS_CLIPPED) == 0.0

    def test_policy_gap(self, coin_or_rest):
        pol = hand_policy(2, {(1, 0): 1})
        with pytest.raises(InputError) as e:
            policy_value(coin_or_rest, pol, 2, ABS_CLIPPED)
        assert e.value.code == "POLICY_GAP"

    def test_horizon_mismatch_comes_before_the_budget(self, coin_or_rest):
        # horizon 10**5 would exceed the default state budget
        pol = robust_value(coin_or_rest, 3, ABS_CLIPPED).policy
        with pytest.raises(InputError, match="^POLICY_GAP: policy is for horizon 3, not 100000$"):
            policy_value(coin_or_rest, pol, 10**5, ABS_CLIPPED)
        with pytest.raises(InputError, match="^BAD_HORIZON"):
            policy_value(coin_or_rest, pol, 0, ABS_CLIPPED)

    def test_extracted_policy_reproduces_value_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            s = random_set(rng)
            f = random_pwl(rng)
            n = int(rng.integers(1, 5))
            res = robust_value(s, n, f)
            assert policy_value(s, res.policy, n, f) == res.value
        for n in (64, 256):
            for _ in range(3):
                s = random_set(rng)
                f = random_pwl(rng)
                res = robust_value(s, n, f)
                assert policy_value(s, res.policy, n, f) == res.value


def all_generator_policy_value(set_, policy, n, f, normalize=True):
    """The fixed-policy sweep that evaluates every generator at every level, as a reference."""
    bounds = hull.level_bounds(set_, n)
    lo, length = bounds[n]
    u = lattice_dp._terminal_values(set_, n, f, normalize, np.arange(lo, lo + length))
    for k in range(n, 0, -1):
        lo_prev, len_prev = bounds[k - 1]
        choice = policy.level_choices(k, lo_prev, len_prev)
        best = None
        for g, (gc, gen) in enumerate(zip(set_.coords, set_.generators)):
            cand = None
            for w, c in zip(gen.weights, gc):
                a = lo_prev + c - bounds[k][0]
                cand = w * u[a : a + len_prev] if cand is None else cand + w * u[a : a + len_prev]
            best = cand if best is None else np.where(choice == g, cand, best)
        u = best
    return float(u[0 - bounds[0][0]])


def random_entries(rng, bounds, masks, count):
    """A generator at every reachable state of levels 1..n, and at some unreachable ones
    any index, even one out of range."""
    entries = {}
    for k in range(1, len(bounds)):
        lo, length = bounds[k - 1]
        for i in range(length):
            if masks[k - 1][i]:
                entries[k, lo + i] = int(rng.integers(0, count))
            elif rng.random() < 0.5:
                entries[k, lo + i] = int(rng.integers(0, count + 2))
    return entries


class TestFixedPolicyRule:
    """``policy_value`` gives each reachable state its designated generator's candidate."""

    def test_robust_and_constant_policies(self):
        rng = np.random.default_rng(5150)
        for n in (1, 3, 17, 90):
            for _ in range(4):
                s = random_set(rng, max_generators=4, max_atoms=4)
                f = random_pwl(rng)
                policies = [robust_value(s, n, f).policy]
                policies += [constant_policy(s, n, g) for g in range(len(s.generators))]
                for pol in policies:
                    assert policy_value(s, pol, n, f) == all_generator_policy_value(s, pol, n, f)
                assert policy_value(s, pol, n, SQUARE, False) == all_generator_policy_value(
                    s, pol, n, SQUARE, False
                )

    def test_random_gap_free_policies(self):
        rng, knock = np.random.default_rng(6160), np.random.default_rng(6161)
        for trial in range(30):
            s = random_set(rng, max_generators=4, max_atoms=3, span=2 + trial % 3)
            n = int(rng.integers(1, 25))
            count = len(s.generators)
            bounds, masks = reachable_masks(s, n)
            entries = random_entries(rng, bounds, masks, count)
            pol = hand_policy(n, entries)
            f = random_pwl(rng)
            assert policy_value(s, pol, n, f) == all_generator_policy_value(s, pol, n, f)
            # the moves times d = 1, 2 or 3, some reachable states knocked out: the
            # gap named is the first that a search over the dense masks finds
            d = 1 + trial // 3 % 3
            s = make_set(*([(d * x, w) for x, w in zip(g.points, g.weights)] for g in s.generators))
            bounds, masks = reachable.set_masks(s, n)
            entries = random_entries(knock, bounds, masks, count)
            reached = [(k, st) for k, st in entries if masks[k - 1][st - bounds[k - 1][0]]]
            for i in knock.choice(len(reached), size=min(len(reached), 3), replace=False):
                if knock.random() < 0.5:
                    del entries[reached[i]]
                else:
                    entries[reached[i]] = count + int(knock.integers(0, 2))
            pol = hand_policy(n, entries)
            for k in range(1, n + 1):
                choice = pol.level_choices(k, *bounds[k - 1])
                gap = masks[k - 1] & ((choice < 0) | (choice >= count))
                if gap.any():
                    state = bounds[k - 1][0] + int(np.argmax(gap))
                    break
            with pytest.raises(InputError) as e:
                policy_value(s, pol, n, f)
            assert e.value.message == f"reachable state {state} at level {k} has no generator"

    @pytest.mark.parametrize("n", [0, -1])
    def test_horizon_below_one(self, biased_pair, n):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as e:
                policy_value(biased_pair, KernelPolicy(n, ()), n, ABS_CLIPPED)
        assert e.value.code == "BAD_HORIZON"

    def test_level_count_is_the_horizon(self, biased_pair):
        levels = constant_policy(biased_pair, 3, 0).levels
        for n, wrong in ((3, ()), (3, levels[:2]), (2, levels), (4, levels), (3, None), (3, iter(levels))):
            with pytest.raises(InputError) as e:
                KernelPolicy(n, wrong)
            assert e.value.code == "BAD_POLICY"
        assert KernelPolicy(3, levels).n == 3

    @pytest.mark.parametrize(
        "level",
        [(0, np.array([1.5])), (0, [1]), (0, np.array([[1]])), ("0", np.array([1])), (np.array([1]),),
         (0, np.array([1], dtype=np.uint8)), (0, np.array([True])), (0.5, np.array([1])), (1.0, np.array([1])),
         (True, np.array([1]))],
        ids=["float choice", "list choice", "2-D choice", "string lo", "1-tuple", "unsigned choice", "bool choice",
             "fractional lo", "integral float lo", "bool lo"],
    )
    def test_level_is_an_integer_and_a_signed_integer_array(self, level):
        # a float choice once read as generator 0 by policy_value and as 1 by simulate
        with pytest.raises(InputError) as e:
            KernelPolicy(1, (level,))
        assert e.value.code == "BAD_POLICY" and e.value.message.startswith("level 1")

    def test_lo_is_any_integer_state(self):
        for lo in (-3, np.int64(-3), 2**70):
            pol = KernelPolicy(1, ((lo, np.array([-1, 1], dtype=np.int8)),))
            assert list(pol.level_choices(1, lo, 2)) == [-1, 1]
        assert designated(hand_policy(1, {(1, -3): 1})) == {(1, -3): 1}

    @pytest.mark.parametrize(
        "gens, d",
        [
            ([[(-1, 0.5), (1, 0.5)], [(-1, 0.25), (1, 0.75)]], 2),  # biased_pair
            ([[(-1, 0.5), (2, 0.5)], [(-1, 0.25), (2, 0.75)]], 3),
            ([[(-2, 0.5), (4, 0.5)], [(1, 1.0)]], 3),
        ],
    )
    def test_levels_and_step_rebuild_a_built_policy(self, gens, d):
        s, n, f = make_set(*gens), 6, tent(0.25, 0.25)
        for built in (robust_value(s, n, f).policy, constant_policy(s, n, 0), constant_policy(s, n, 1)):
            assert built.step == d
            rebuilt = KernelPolicy(n, built.levels, built.step)
            assert designated(rebuilt) == designated(built)
            assert policy_value(s, rebuilt, n, f).hex() == policy_value(s, built, n, f).hex()
            want, got = (simulate(SimConfig(p, s, n, 500, 3), f) for p in (built, rebuilt))
            assert (got.estimate.hex(), got.stderr.hex()) == (want.estimate.hex(), want.stderr.hex())

    @pytest.mark.parametrize("step", [0, -2, 1.5, 2.0, True, "2"])
    def test_step_is_an_integer_from_one(self, biased_pair, step):
        levels = constant_policy(biased_pair, 3, 0).levels
        with pytest.raises(InputError) as e:
            KernelPolicy(3, levels, step)
        assert e.value.code == "BAD_POLICY" and "policy step" in e.value.message

    def test_unbounded_function_needs_moment_mode(self, biased_pair):
        pol = constant_policy(biased_pair, 4, 1)
        with pytest.raises(InputError) as e:
            policy_value(biased_pair, pol, 4, SQUARE)
        assert e.value.code == "UNBOUNDED_F"
        assert policy_value(biased_pair, pol, 4, SQUARE, normalize=False) == upper_value(
            AmbiguitySet(biased_pair.lattice, biased_pair.generators[1:]), 4, SQUARE, False
        )

    def test_first_reachable_gap_is_named(self, coin_or_rest):
        pol = hand_policy(3, {(1, 0): 1, (2, -1): 1, (2, 1): 0, (3, 0): 5})
        with pytest.raises(InputError) as e:
            policy_value(coin_or_rest, pol, 3, ABS_CLIPPED)
        assert e.value.message == "reachable state 0 at level 2 has no generator"


HORIZON_ENTRY_POINTS = {
    "upper_value": lambda s, n: upper_value(s, n, ABS_CLIPPED),
    "robust_value": lambda s, n: robust_value(s, n, ABS_CLIPPED),
    "policy_value": lambda s, n: policy_value(s, constant_policy(s, 2, 0), n, ABS_CLIPPED),
    "capacity": lambda s, n: capacity(s, n, PathEvent("FINAL_ABS_GE", 1)),
    "final_abs_capacities": lambda s, n: final_abs_capacities(s, n, 1),
    "KernelPolicy": lambda s, n: KernelPolicy(n, ()),
    "constant_policy": lambda s, n: constant_policy(s, n, 0),
    "SimConfig": lambda s, n: SimConfig(constant_policy(s, 2, 0), s, n, 10, 0),
    "ottaviani_check": lambda s, n: ottaviani_check(s, n, 1.0, 0.5),
    "capacity_product_identity": lambda s, n: capacity_product_identity(s, n, 1),
    "brute_force_value": lambda s, n: brute_force_value(s, n, ABS_CLIPPED),
    "enumerate_selections_value": lambda s, n: enumerate_selections_value(s, n, ABS_CLIPPED),
    "heavy_lln_value": lambda s, n: heavy_lln_value(50, n),
    "chebyshev_bound_check": lambda s, n: chebyshev_bound_check(s, n, 0.5),
    # truncation and clamp levels follow the horizon rule under their own codes
    "heavy_lln_value truncation": lambda s, n: heavy_lln_value(n, 5),
    "truncated_means": lambda s, n: truncated_means(s, n),
    "peng_condition_report": lambda s, n: peng_condition_report(s, n),
}
HORIZON_CODES = {
    "heavy_lln_value": "BAD_FAMILY",
    "heavy_lln_value truncation": "BAD_FAMILY",
    "truncated_means": "BAD_LEVEL",
    "peng_condition_report": "BAD_LEVEL",
}


@pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, 3.0, True])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_horizon_is_an_integer_from_one(biased_pair, entry, n):
    with pytest.raises(InputError) as e:
        HORIZON_ENTRY_POINTS[entry](biased_pair, n)
    assert e.value.code == HORIZON_CODES.get(entry, "BAD_HORIZON")


def test_levels_from_one_and_two_are_accepted(biased_pair):
    assert heavy_lln_value(1, 5) == 0.0 < heavy_lln_value(3, 5)
    assert truncated_means(biased_pair, 1).n == 1
    assert len(peng_condition_report(biased_pair, 2).rows) == 2
    with pytest.raises(InputError) as e:
        peng_condition_report(biased_pair, 1)
    assert str(e.value) == "BAD_LEVEL: n_max must be an integer >= 2, got 1"


class TestSharedReachability:
    @pytest.mark.parametrize("policy", ["robust", {"constant": 1}])
    def test_one_forward_pass_per_simulate_job(self, monkeypatch, tmp_path, policy):
        passes = []
        body = lattice_dp._reachability.__wrapped__

        def counted(moves, n):
            passes.append((moves, n))
            return body(moves, n)

        monkeypatch.setattr(lattice_dp, "_reachability", functools.lru_cache(maxsize=1)(counted))
        cfg = tmp_path / "simulate.json"
        cfg.write_text(json.dumps({
            "generators": [[[-1, 0.5], [1, 0.5]], [[-1, 0.25], [0, 0.25], [2, 0.5]]],
            "function": {"kind": "tent", "params": {"center": 0.25, "halfwidth": 0.5}},
            "n": 40, "paths": 500, "seed": 3, "policy": policy,
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        assert passes == [((0, 1, 2, 3), 40)]  # the moves -1, 0, 1, 2 on their frame

    def test_masks_are_read_only(self, biased_pair):
        bounds, masks = reachable_masks(biased_pair, 5)
        assert reachable_masks(biased_pair, 5)[1] is masks
        with pytest.raises(ValueError):
            masks[2][0] = True

    def test_masks_charge_their_cells(self):
        # the moves -1 and 3 on step 1e-15 are d = 4e15 apart: the dense hull of
        # n = 3 holds d s n (n + 1) / 2 + n + 1 = 2.4e16 + 4 cells
        wide = make_set([(-1, 0.5), (3, 0.5)], step="1e-15")
        with pytest.raises(BudgetError) as e:
            reachable_masks(wide, 3)
        assert str(e.value) == (
            "STATE_BUDGET_EXCEEDED: 24000000000000004 level-states exceed budget 50000000"
        )
        with pytest.raises(InputError) as e:
            reachable_masks(wide, 10**4)
        assert e.value.code == "BAD_LATTICE"

    def test_holes_are_read_only(self):
        s = make_set([(-1, 0.5), (2, 0.5)], [(0, 1.0)])  # a hole at every level from 1
        holes, flat = lattice_dp._reachability(lattice_dp._frame(s).steps, 40)
        assert len(flat) == 39 and all(len(h) == 1 for h in holes[1:])
        assert all(h is holes[3] for h in holes[3:])  # from level 3 on, one pattern
        for array in (flat, holes[1], holes[40]):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_policy_levels_are_read_only(self, biased_pair):
        # a sealed policy's levels are views of its read-only array; a policy
        # given writeable levels marks them read-only itself
        robust = robust_value(biased_pair, 6, tent(0.25, 0.25)).policy
        policies = [
            robust,
            constant_policy(biased_pair, 6, 1),
            hand_policy(2, {(1, 0): 1, (2, -1): 0, (2, 1): 1}),
            KernelPolicy(6, robust.levels, robust.step),
            KernelPolicy(1, ((0, np.array([0, 1])),)),
        ]
        for policy in policies:
            for _, choice in policy.levels:
                assert not choice.flags.writeable
                with pytest.raises(ValueError):
                    choice[0] = 0


class TestOracleEquivalence:
    def test_values_match_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            s = random_set(rng)
            f = random_pwl(rng)
            n = int(rng.integers(1, 5))
            assert robust_value(s, n, f).value == pytest.approx(
                brute_force_value(s, n, f), abs=1e-9
            )

    def test_capacities_match_brute_force(self):
        rng = np.random.default_rng(123)
        kinds = ["FINAL_ABS_GE", "FINAL_GT", "FINAL_LT", "MAX_PARTIAL_ABS_GE", "MAX_INCREMENT_ABS_GE"]
        for _ in range(40):
            s = random_set(rng)
            n = int(rng.integers(1, 5))
            ev = PathEvent(str(rng.choice(kinds)), int(rng.integers(0, 2 * n + 2)))
            assert capacity(s, n, ev, "UPPER") == pytest.approx(
                brute_force_capacity(s, n, ev, "UPPER"), abs=1e-9
            )


class TestReachableMasks:
    @pytest.mark.parametrize(
        "gens",
        [
            [[(-2, 0.5), (2, 0.5)]],  # gcd 2: odd states never reached
            [[(-2, 0.5), (2, 0.5)], [(0, 0.5), (2, 0.5)]],  # coordinate 2 shared
            [[(-1, 0.5), (1, 0.5)], [(-1, 0.25), (1, 0.75)], [(1, 1.0)]],
            [[(0, 0.2), (3, 0.8)], [(3, 0.5), (5, 0.5)], [(-4, 0.5), (3, 0.5)]],
        ],
    )
    def test_masks_are_the_sumsets(self, gens):
        s = make_set(*gens)
        moves = {c for gc in s.coords for c in gc}
        for n in range(1, 7):
            bounds, masks = reachable_masks(s, n)
            level = {0}
            for k in range(n + 1):
                lo, length = bounds[k]
                assert sorted(lo + np.flatnonzero(masks[k])) == sorted(level)
                assert len(masks[k]) == length
                level = {x + c for x in level for c in moves}


    def test_masks_lie_on_the_hull_and_the_count_on_the_frame(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_set(rng, max_generators=4, max_atoms=4, span=5)
            d = lattice_dp._frame(s).d
            for n in (1, 2, 7, 40):
                bounds, masks = reachable_masks(s, n)
                assert bounds == tuple(hull.level_bounds(s, n))
                assert lattice_dp._frame(s).start(n + 1) == sum(len(mask[::d]) for mask in masks)

    def test_hold_zero_frame_holds_zero_and_spans_the_widened_levels(self):
        rng = np.random.default_rng(32)
        zero_in_hull = set()
        for origin in range(-3, 4):
            for _ in range(8):
                s = random_set(rng, max_generators=2, max_atoms=3, span=2, origin=origin)
                frame = lattice_dp._frame(s, hold_zero=True)
                moves = {c for gc in s.coords for c in gc}
                zero_in_hull.add(min(moves) <= -origin <= max(moves))
                every = moves | {-origin}
                assert frame.a == min(every) and frame.d == (math.gcd(*(c - frame.a for c in every)) or 1)
                for n in (1, 2, 7, 40):
                    widened = hull.level_bounds(s, n, hold_zero=True)
                    for k, (lo, length) in enumerate(widened):
                        states = frame.states(k)  # both ends of the widened hull, and S_k = 0
                        assert (states[0], states[-1]) == (lo, lo + length - 1)
                        assert -k * origin in set(states.tolist())
                    count = frame.start(n + 1)
                    assert count == sum(len(frame.states(k)) for k in range(n + 1))
        assert zero_in_hull == {True, False}

    def test_every_entry_point_refuses_before_building_a_level(self, biased_pair):
        # the biased pair stores the k + 1 states of its progression at level k:
        # (n + 1)(n + 2) / 2 in all, and a tail sum from m charges m one-state
        # levels and the same count at horizon n - m
        n, m = 10**6, 5 * 10**5
        f = tent(0.25, 0.25)
        states = lambda h: (h + 1) * (h + 2) // 2
        calls = [
            (lambda: upper_value(biased_pair, n, f, state_budget=1000), states(n)),
            (lambda: robust_value(biased_pair, n, f, state_budget=1000), states(n)),
            # held at S_k = 0, the move 0 joins: every state of the hull, (n + 1)^2
            (lambda: final_abs_capacities(biased_pair, n, 1, state_budget=1000), (n + 1) ** 2),
        ]
        for kind in KINDS:
            event = PathEvent(kind, 1, m if kind == "TAIL_SUM_ABS_GE" else None)
            charge = {
                "MAX_PARTIAL_ABS_GE": 2 * states(n),
                "MAX_INCREMENT_ABS_GE": 2 * (n + 1),
                "TAIL_SUM_ABS_GE": m + states(n - m),
            }.get(kind, states(n))
            calls.append((lambda e=event: capacity(biased_pair, n, e, state_budget=1000), charge))
        for call, charge in calls:
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError) as e:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert e.value.code == "STATE_BUDGET_EXCEEDED"
            assert e.value.message == f"{charge} level-states exceed budget 1000"
            assert peak < 2**20

    @pytest.mark.parametrize("n", [256, 257])
    def test_reachable_choices_keep_narrow_dtypes(self, n):
        # steps of two: level k's progression holds k + 1 states, every one reachable
        s = make_set([(-1, 0.5), (1, 0.5)], [(-1, 0.25), (1, 0.75)])
        pol = robust_value(s, n, tent(0.25, 0.25)).policy
        choices, chosen = lattice_dp._reachable_choices(s, pol, n)
        assert chosen.dtype == np.int8
        assert len(chosen) == n * (n + 1) // 2
        _, masks = reachable_masks(s, n)
        assert np.array_equal(chosen, np.concatenate([c[m[::2]] for c, m in zip(choices, masks)]))

    def test_reachable_choices_trust_only_a_policy_built_on_the_frame(self, monkeypatch):
        # a built policy hands over its array; one rewrapped from its levels shares
        # their .base but is read level by level, and both give the same choices
        s = make_set([(-1, 0.5), (2, 0.5)], [(-1, 0.25), (0, 0.25), (2, 0.5)])  # d = 1
        n = 30
        built = robust_value(s, n, tent(0.25, 0.25)).policy
        rewrapped = KernelPolicy(n, built.levels)
        assert rewrapped.levels[0][1].base is built.levels[0][1].base
        reads = []
        read = KernelPolicy.level_choices
        monkeypatch.setattr(KernelPolicy, "level_choices", lambda *a: reads.append(a) or read(*a))
        got = lattice_dp._reachable_choices(s, built, n)
        assert reads == []
        want = lattice_dp._reachable_choices(s, rewrapped, n)
        assert len(reads) == n
        assert np.array_equal(got[1], want[1]) and all(map(np.array_equal, got[0], want[0]))
        other = make_set([(-2, 0.5), (4, 0.5)], [(-2, 0.25), (0, 0.25), (4, 0.5)])  # d = 2
        lattice_dp._reachable_choices(other, built, n)  # another frame: read level by level
        assert len(reads) == 2 * n

    def test_reachable_choices_cover_the_holes(self):
        # moves {-1, 0, 2}: state 2k - 1, just below level k's top, is a hole at
        # every level k >= 1, and holds -1 in a robust policy
        s = make_set([(-1, 0.5), (2, 0.5)], [(0, 1.0)])
        n = 30
        pol = robust_value(s, n, tent(0.25, 0.25)).policy
        choices, chosen = lattice_dp._reachable_choices(s, pol, n)
        _, masks = reachable_masks(s, n)
        reachable = np.concatenate([c[m] for c, m in zip(choices, masks[:n])])
        assert (reachable >= 0).all() and (np.concatenate(choices) < 0).any()
        assert len(chosen) == sum(len(c) for c in choices)
        assert set(chosen.tolist()) == set(reachable.tolist())


class TestUpperValue:
    def test_equals_robust_value_bitwise(self):
        rng = np.random.default_rng(808)
        for n in (1, 8, 64, 256):
            for _ in range(4):
                s = random_set(rng, max_generators=4, max_atoms=4)
                f = random_pwl(rng)
                assert upper_value(s, n, f) == robust_value(s, n, f).value
        s = random_set(rng)
        assert upper_value(s, 6, SQUARE, normalize=False) == robust_value(
            s, 6, SQUARE, normalize=False
        ).value

    def test_lln_sweep_and_oracle_build_no_masks(self, monkeypatch, biased_pair, tmp_path):
        def refuse(*args):
            raise AssertionError("reachability computed")

        monkeypatch.setattr(lattice_dp, "_reachability", refuse)
        f = tent(0.25, 0.25)
        report = lln_sweep(biased_pair, f, [4, 16, 64])
        assert [r.dp_value for r in report.rows] == [upper_value(biased_pair, n, f) for n in (4, 16, 64)]
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({
            "generators": [[[-1, 0.5], [1, 0.5]], [[-1, 0.25], [1, 0.75]]],
            "function": {"kind": "abs"}, "n": 3,
        }))
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        with pytest.raises(AssertionError):
            robust_value(biased_pair, 4, f)

    def test_refusals_at_the_same_budgets(self, biased_pair, tmp_path, capsys):
        f = tent(0.25, 0.25)
        n = 12
        result = robust_value(biased_pair, n, f)
        need = result.state_count
        assert need == sum(k + 1 for k in range(n + 1))  # the progression, every other state
        for call in (
            lambda b: robust_value(biased_pair, n, f, state_budget=b),
            lambda b: upper_value(biased_pair, n, f, state_budget=b),
            lambda b: lln_sweep(biased_pair, f, [2, n], state_budget=b),
            lambda b: policy_value(biased_pair, result.policy, n, f, state_budget=b),
            lambda b: constant_policy(biased_pair, n, 1, state_budget=b),
        ):
            call(need)
            with pytest.raises(BudgetError) as e:
                call(need - 1)
            assert e.value.code == "STATE_BUDGET_EXCEEDED"
        cfg = tmp_path / "oracle.json"
        need = robust_value(biased_pair, 4, f).state_count  # the oracle enumerates histories
        for budget, status in ((need, 0), (need - 1, 2)):
            cfg.write_text(json.dumps({
                "generators": [[[-1, 0.5], [1, 0.5]], [[-1, 0.25], [1, 0.75]]],
                "function": {"kind": "abs"}, "n": 4, "budgets": {"states": budget},
            }))
            argv = ["oracle", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]
            assert main(argv) == status
        assert "STATE_BUDGET_EXCEEDED" in capsys.readouterr().err


class TestInt64Coordinates:
    """States are int64 lattice coordinates: a sum of n steps must fit, or BAD_LATTICE."""

    f = piecewise_linear([(0, 0), (3, 1)])

    @staticmethod
    def pair(step):  # the coordinates -1 and 3 on step 1, -10^15 and 3 10^15 on step 1e-15
        return make_set([(-1, 0.01), (3, 0.99)], step=step)

    def values(self, s, n):
        f = self.f
        return [
            upper_value(s, n, f),
            robust_value(s, n, f).value,
            policy_value(s, robust_value(s, n, f).policy, n, f),
            capacity(s, n, PathEvent("FINAL_GT", 9000)),
            capacity(s, n, PathEvent("TAIL_SUM_ABS_GE", 9000, 1)),
            *final_abs_capacities(s, n, 9000)[-3:],
            simulate(SimConfig(constant_policy(s, n, 0), s, n, 20, seed=1), f).estimate,
        ]

    def test_the_last_horizon_that_fits_is_bitwise_step_one(self):
        # 3074 * 3e15 < 2^63 - 1 < 3075 * 3e15
        want, got = self.values(self.pair(1), 3074), self.values(self.pair("1e-15"), 3074)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("step, n", [("1e-15", 3075), ("1e-15", 4000), ("1e-16", 4000), ("1e-300", 3)])
    def test_a_sum_past_int64_is_refused(self, step, n):
        s, f = self.pair(step), self.f
        calls = [
            lambda: upper_value(s, n, f),
            lambda: robust_value(s, n, f),
            lambda: policy_value(s, constant_policy(s, n, 0), n, f),
            lambda: capacity(s, n, PathEvent("FINAL_GT", 11600)),
            lambda: capacity(s, n, PathEvent("FINAL_ABS_LT", 1), "LOWER"),
            lambda: final_abs_capacities(s, n, 1),
            lambda: simulate(SimConfig(constant_policy(s, n, 0), s, n, 5, seed=1), f),
        ]
        for call in calls:
            with pytest.raises(InputError) as e:
                call()
            assert e.value.code == "BAD_LATTICE"
            assert f" {n} steps " in e.value.message and str(Fraction(step)) in e.value.message

    def test_a_spacing_past_int64_is_refused(self):
        # level 1 holds -2^62 and 2^62, which fit, 2^63 apart on the frame, which does not
        assert upper_value(make_set([(-(2**61), 0.5), (2**61, 0.5)]), 1, self.f) == 0.5
        with pytest.raises(InputError) as e:
            upper_value(make_set([(-(2**62), 0.5), (2**62, 0.5)]), 1, self.f)
        assert e.value.code == "BAD_LATTICE"

    def test_running_max_capacities_form_no_states(self):
        event = PathEvent("MAX_PARTIAL_ABS_GE", 11600)
        got = [capacity(self.pair(step), 4000, event) for step in (1, "1e-15")]
        assert [v.hex() for v in got] == [(0.9999999999999944).hex()] * 2
        jump = PathEvent("MAX_INCREMENT_ABS_GE", 2)
        assert capacity(self.pair("1e-300"), 3, jump) == capacity(self.pair(1), 3, jump) == 1 - 0.01**3
