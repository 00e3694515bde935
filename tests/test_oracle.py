import time

import numpy as np
import pytest

from sublinexp import (
    BudgetError,
    InputError,
    PathEvent,
    brute_force_capacity,
    capacity,
    brute_force_value,
    enumerate_selections_value,
    piecewise_linear,
    policy_value,
    robust_value,
)

from conftest import make_set, random_pwl, random_set
from oracle_helpers import designated, hand_policy

ABS_CLIPPED = piecewise_linear([(-1, 1), (0, 0), (1, 1)])


class TestBruteForceValue:
    def test_freeze_or_spread(self, coin_or_rest):
        assert brute_force_value(coin_or_rest, 2, ABS_CLIPPED) == 0.5

    def test_minimize_side(self, coin_or_rest):
        assert brute_force_value(coin_or_rest, 2, ABS_CLIPPED, maximize=False) == 0.0

    def test_moment_mode(self, coin):
        sq = piecewise_linear([(-2, 4), (-1, 1), (0, 0), (1, 1), (2, 4)])
        assert brute_force_value(coin, 2, sq, normalize=False) == 2.0

    def test_budget_guard(self, biased_pair):
        with pytest.raises(BudgetError) as e:
            brute_force_value(biased_pair, 4, ABS_CLIPPED, budget=5)
        assert e.value.code == "ENUMERATION_BUDGET_EXCEEDED"


class TestBruteForceCapacity:
    def test_final_abs(self, coin_or_rest):
        ev = PathEvent("FINAL_ABS_GE", 2)
        assert brute_force_capacity(coin_or_rest, 2, ev, "UPPER") == 0.5
        assert brute_force_capacity(coin_or_rest, 2, ev, "LOWER") == 0.0

    def test_running_max_dominates_final(self, biased_pair):
        for a in (1, 2):
            peak = brute_force_capacity(
                biased_pair, 3, PathEvent("MAX_PARTIAL_ABS_GE", a), "UPPER"
            )
            final = brute_force_capacity(
                biased_pair, 3, PathEvent("FINAL_ABS_GE", a), "UPPER"
            )
            assert peak >= final

    def test_tail_from_beyond_the_horizon_is_refused(self, coin):
        ev = PathEvent("TAIL_SUM_ABS_GE", 1, 5)
        for fn in (capacity, brute_force_capacity):
            with pytest.raises(InputError) as e:
                fn(coin, 2, ev)
            assert str(e.value) == "UNSUPPORTED_EVENT: from_index 5 beyond horizon 2"

    def test_events_are_tested_on_exact_sums(self):
        # in floats 0.1 + 0.2 > 0.3, but only 0.2 + 0.2 exceeds 0.3
        s = make_set([(0.1, 0.5), (0.2, 0.5)], step=0.1)
        for kind, want in (("FINAL_GT", 0.25), ("FINAL_LT", 0.25), ("TAIL_SUM_ABS_GE", 0.75)):
            ev = PathEvent(kind, 0.3, 0 if kind == "TAIL_SUM_ABS_GE" else None)
            assert brute_force_capacity(s, 2, ev) == capacity(s, 2, ev) == want


class TestSelectionEnumeration:
    def test_matches_tree_recursion_on_tiny_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            s = random_set(rng, max_generators=2, max_atoms=2, span=2)
            f = random_pwl(rng)
            n = int(rng.integers(1, 4))
            lhs = enumerate_selections_value(s, n, f)
            rhs = brute_force_value(s, n, f)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_budget_guard(self, biased_pair):
        with pytest.raises(BudgetError) as e:
            enumerate_selections_value(biased_pair, 4, ABS_CLIPPED, budget=3)
        assert e.value.message == "32768 selections exceed budget 3"  # 2 ** 15 histories


class TestEnumerationRefusals:
    """Refusals decided from the counts alone, whatever their size."""

    @pytest.mark.parametrize("n", [16, 17])
    def test_selections_of_any_size(self, biased_pair, n):
        # 2 ** (2 ** n - 1) selections: 19,729 digits at n = 16
        start = time.perf_counter()
        with pytest.raises(BudgetError) as e:
            enumerate_selections_value(biased_pair, n, ABS_CLIPPED)
        assert time.perf_counter() - start < 1.0
        assert e.value.code == "ENUMERATION_BUDGET_EXCEEDED"
        assert e.value.message == "10**30 or more selections exceed budget 200000"

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: brute_force_value(s, 20_000, ABS_CLIPPED),
            lambda s: brute_force_capacity(s, 20_000, PathEvent("FINAL_ABS_GE", 1)),
        ],
    )
    def test_history_nodes_of_any_size(self, biased_pair, call):
        start = time.perf_counter()
        with pytest.raises(BudgetError) as e:
            call(biased_pair)
        assert time.perf_counter() - start < 1.0
        assert e.value.message == "10**30 or more history nodes exceed budget 1000000"

    def test_counts_of_up_to_30_digits_are_printed(self, biased_pair):
        # 2 ** 99 - 1 nodes has 30 digits, 2 ** 100 - 1 has 31
        for n, shown in ((98, str(2**99 - 1)), (99, "10**30 or more")):
            with pytest.raises(BudgetError) as e:
                brute_force_value(biased_pair, n, ABS_CLIPPED, budget=10)
            assert e.value.message == f"{shown} history nodes exceed budget 10"
        point_masses = make_set([(0, 1.0)], [(1, 1.0)])
        with pytest.raises(BudgetError) as e:
            brute_force_value(point_masses, 10**9, ABS_CLIPPED, budget=10)
        assert e.value.message == f"{10**9 + 1} history nodes exceed budget 10"


class TestPolicyDominance:
    def test_no_policy_beats_the_robust_value(self):
        """Any measurable kernel policy is dominated by the DP optimum."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_set(rng, max_generators=2)
            f = random_pwl(rng)
            n = int(rng.integers(1, 4))
            res = robust_value(s, n, f)
            # constant policies at each generator index
            for gi in range(len(s.generators)):
                entries = {
                    key: gi for key in designated(res.policy)
                }
                val = policy_value(s, hand_policy(n, entries), n, f)
                assert val <= res.value + 1e-9
