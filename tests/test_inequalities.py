import numpy as np
import pytest

from sublinexp import (
    BudgetError,
    InputError,
    PathEvent,
    capacity,
    capacity_product_identity,
    ottaviani_check,
)
from sublinexp.inequalities import HOLDS, VACUOUS, VIOLATED

from conftest import make_set, random_set
from oracle_helpers import exponential_lower_bound


class TestOttaviani:
    def test_vacuous_when_premise_exceeds_c(self, coin):
        rep = ottaviani_check(coin, 2, 1.0, 0.5)
        assert rep.premise_value == 1.0
        assert rep.status == VACUOUS

    def test_holds_for_large_alpha(self, coin):
        rep = ottaviani_check(coin, 2, 2.0, 0.5)
        assert rep.premise_value == 0.0
        assert rep.lhs == 0.0 and rep.rhs == 1.0
        assert rep.status == HOLDS

    def test_freeze_generator_holds(self, coin_or_rest):
        rep = ottaviani_check(coin_or_rest, 3, 2.0, 0.5)
        assert rep.status in (HOLDS, VACUOUS)
        if rep.status == HOLDS:
            assert rep.lhs <= rep.rhs + 1e-12

    def test_doubled_alpha_past_the_doubles_is_exact(self, biased_pair):
        # 2 alpha overflows the floats: the event is |S_k| >= 2 * 10**308 exactly
        assert ottaviani_check(biased_pair, 4, 1e308, 0.5) == ottaviani_check(biased_pair, 4, 1e300, 0.5)
        near = make_set([(1e308, 1.0)], step=1e308)  # S_2 = 2 * 10**308 reaches it
        rep = ottaviani_check(near, 2, 1e308, 0.5)
        assert (rep.premise_value, rep.lhs, rep.rhs, rep.status) == (1.0, 1.0, 2.0, VACUOUS)

    def test_parameter_validation(self, coin):
        with pytest.raises(InputError):
            ottaviani_check(coin, 2, 1.0, 0.0)
        with pytest.raises(InputError):
            ottaviani_check(coin, 2, 1.0, 1.0)
        with pytest.raises(InputError):
            ottaviani_check(coin, 2, 0.0, 0.5)
        with pytest.raises(InputError):
            ottaviani_check(coin, 0, 1.0, 0.5)

    def test_nan_alpha_is_bad_alpha(self, coin):
        with pytest.raises(InputError) as e:
            ottaviani_check(coin, 2, float("nan"), 0.5)
        assert e.value.code == "BAD_ALPHA"

    def test_never_violated_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            s = random_set(rng)
            n = int(rng.integers(1, 5))
            alpha = float(rng.integers(1, 3 * n + 1))
            c = float(rng.uniform(0.05, 0.95))
            rep = ottaviani_check(s, n, alpha, c)
            assert rep.status != VIOLATED
            if rep.status == HOLDS:
                assert rep.premise_value <= c + 1e-12


class TestOttavianiSweep:
    """The one-sweep premise and final capacity against one capacity DP per horizon."""

    CASES = [
        # support {1, 2, 3}: 0 lies outside the hull of every generator
        (make_set([(1, 0.5), (2, 0.5)], [(2, 0.25), (3, 0.75)]), 3.0),
        (make_set([(-1, 0.5), (1, 0.5)], [(-1, 0.25), (1, 0.75)], origin=1), 2.0),
        (make_set([(-0.25, 0.5), (1.0, 0.5)], [(0.25, 1.0)], step="1/4", origin=2), 0.5),
        (make_set([(-0.25, 0.5), (1.0, 0.5)], [(0.25, 1.0)], step="1/4", origin=2), 0.3),
        # points 0.1 and 0.3 on origin -1: positive support off a zero origin
        (make_set([(0.1, 0.5), (0.3, 0.5)], [(0.3, 1.0)], step=0.1, origin=-1), 0.4),
    ]

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_premise_and_final_match_per_horizon_capacities(self, case, n):
        s, alpha = self.CASES[case]
        ev = PathEvent("FINAL_ABS_GE", alpha)
        rep = ottaviani_check(s, n, alpha, 0.5)
        assert rep.premise_value == max([0.0] + [capacity(s, h, ev) for h in range(1, n)])
        assert rep.rhs == capacity(s, n, ev) / (1.0 - 0.5)

    def test_budget_counts_the_widened_sweep(self):
        # a point mass at 5: level k holds 1 state, widened by the move 0 to the
        # k + 1 states 0, 5, .., 5k on the progression of step 5
        s = make_set([(5, 1.0)])
        widened = sum(k + 1 for k in range(11))
        ottaviani_check(s, 10, 1.0, 0.5, state_budget=widened)
        with pytest.raises(BudgetError) as e:
            ottaviani_check(s, 10, 1.0, 0.5, state_budget=widened - 1)
        assert e.value.code == "STATE_BUDGET_EXCEEDED"


class TestProductIdentity:
    def test_fair_coin_exact(self):
        s = make_set([(0, 0.5), (1, 0.5)])
        rep = capacity_product_identity(s, 2, 1.0)
        assert rep.lhs == 0.75 and rep.rhs == 0.75 and rep.delta == 0.0

    def test_threshold_above_support(self, coin):
        rep = capacity_product_identity(coin, 3, 2.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_certain_event(self, coin):
        rep = capacity_product_identity(coin, 3, 1.0)
        assert rep.lhs == 1.0 and rep.rhs == 1.0

    def test_identity_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            s = random_set(rng)
            n = int(rng.integers(1, 6))
            t = float(rng.integers(0, 5))
            rep = capacity_product_identity(s, n, t)
            assert rep.delta <= 1e-9

    def test_exponential_bound_below_rhs(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            s = random_set(rng)
            n = int(rng.integers(1, 6))
            t = float(rng.integers(0, 5))
            rep = capacity_product_identity(s, n, t)
            assert exponential_lower_bound(s, n, t) <= rep.rhs + 1e-12

    def test_bad_horizon(self, coin):
        with pytest.raises(InputError):
            capacity_product_identity(coin, 0, 1.0)
