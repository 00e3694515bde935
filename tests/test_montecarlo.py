import numpy as np
import pytest

from sublinexp import (
    InputError,
    KernelPolicy,
    SimConfig,
    constant_policy,
    piecewise_linear,
    policy_value,
    robust_value,
    simulate,
    tent,
)

from conftest import make_set, random_pwl, random_set

ABS_CLIPPED = piecewise_linear([(-1, 1), (0, 0), (1, 1)])


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, biased_pair):
        pol = constant_policy(biased_pair, 4, 1)
        cfg = SimConfig(pol, biased_pair, 4, 2000, seed=7)
        a = simulate(cfg, ABS_CLIPPED)
        b = simulate(cfg, ABS_CLIPPED)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_different_seed_differs(self, biased_pair):
        pol = constant_policy(biased_pair, 4, 1)
        a = simulate(SimConfig(pol, biased_pair, 4, 2000, seed=7), ABS_CLIPPED)
        b = simulate(SimConfig(pol, biased_pair, 4, 2000, seed=8), ABS_CLIPPED)
        assert a.estimate != b.estimate


class TestEstimates:
    def test_point_mass_zero_stderr(self, point_mass):
        pol = constant_policy(point_mass, 3, 0)
        res = simulate(SimConfig(pol, point_mass, 3, 500, seed=1), ABS_CLIPPED)
        assert res.estimate == 0.0 and res.stderr == 0.0

    def test_single_path_zero_stderr(self, coin):
        pol = constant_policy(coin, 2, 0)
        res = simulate(SimConfig(pol, coin, 2, 1, seed=3), ABS_CLIPPED)
        assert res.stderr == 0.0 and res.paths == 1

    def test_constant_policy_matches_policy_value(self):
        rng = np.random.default_rng(77)
        for trial in range(8):
            s = random_set(rng, max_generators=2)
            f = random_pwl(rng)
            n = int(rng.integers(1, 5))
            gi = int(rng.integers(0, len(s.generators)))
            pol = constant_policy(s, n, gi)
            exact = policy_value(s, pol, n, f)
            res = simulate(SimConfig(pol, s, n, 40_000, seed=trial), f)
            tol = max(4.0 * res.stderr, 1e-9)
            assert abs(res.estimate - exact) <= tol

    def test_robust_policy_matches_dp_value(self, biased_pair):
        f = tent(0.25, 0.25)
        res_dp = robust_value(biased_pair, 6, f)
        sim = simulate(SimConfig(res_dp.policy, biased_pair, 6, 60_000, seed=5), f)
        assert abs(sim.estimate - res_dp.value) <= max(4.0 * sim.stderr, 1e-9)

    def test_policy_rebuilt_from_entries_simulates_bitwise(self):
        rng = np.random.default_rng(64)
        for n in (64, 256):
            s = random_set(rng)
            f = random_pwl(rng)
            pol = robust_value(s, n, f).policy
            a = simulate(SimConfig(pol, s, n, 2000, seed=n), f)
            rebuilt = KernelPolicy.from_entries(n, pol.entries)
            b = simulate(SimConfig(rebuilt, s, n, 2000, seed=n), f)
            assert (a.estimate, a.stderr) == (b.estimate, b.stderr)

    def test_hundreds_of_generators(self):
        # point masses at 0..199: the worst case for an increasing f is the last one
        points = make_set(*[[(j, 1.0)] for j in range(200)])
        f = piecewise_linear([(0, 0), (199, 1)])
        res = robust_value(points, 3, f)
        assert res.policy.get(1, 0) == 199
        assert policy_value(points, res.policy, 3, f) == res.value
        pol = constant_policy(points, 3, 199)
        sim = simulate(SimConfig(pol, points, 3, 10, seed=0), f)
        assert sim.estimate == 1.0

    def test_moment_mode(self, coin):
        sq = piecewise_linear([(-3, 9), (-2, 4), (-1, 1), (0, 0), (1, 1), (2, 4), (3, 9)])
        pol = constant_policy(coin, 2, 0)
        res = simulate(SimConfig(pol, coin, 2, 50_000, seed=9), sq, normalize=False)
        assert abs(res.estimate - 2.0) <= 4.0 * res.stderr


class TestValidation:
    def test_policy_gap_detected(self, coin_or_rest):
        pol = KernelPolicy.from_entries(2, {(1, 0): 1})  # level 2 missing entirely
        with pytest.raises(InputError) as e:
            simulate(SimConfig(pol, coin_or_rest, 2, 10, seed=0), ABS_CLIPPED)
        assert e.value.code == "POLICY_GAP"

    @pytest.mark.parametrize(
        "entries",
        [
            {(1, 0): 0, (2, -1): 1, (2, 1): 1},  # state 0 is a hole in level 2's array
            {(1, 0): 0, (2, 1): 1},  # state 0 lies below level 2's array
        ],
    )
    def test_policy_gap_inside_and_outside_level_array(self, coin_or_rest, entries):
        # generator 0 freezes the walk, so every path visits state 0 at level 2
        pol = KernelPolicy.from_entries(2, entries)
        calls = [
            lambda: pol.get(2, 0),
            lambda: policy_value(coin_or_rest, pol, 2, ABS_CLIPPED),
            lambda: simulate(SimConfig(pol, coin_or_rest, 2, 10, seed=0), ABS_CLIPPED),
        ]
        for call in calls:
            with pytest.raises(InputError) as e:
                call()
            assert e.value.code == "POLICY_GAP"

    def test_designated_generator_out_of_range(self, coin_or_rest):
        pol = KernelPolicy.from_entries(2, {(1, 0): 2, (2, -1): 1, (2, 0): 1, (2, 1): 1})
        assert pol.get(1, 0) == 2
        for call in (
            lambda: policy_value(coin_or_rest, pol, 2, ABS_CLIPPED),
            lambda: simulate(SimConfig(pol, coin_or_rest, 2, 10, seed=0), ABS_CLIPPED),
        ):
            with pytest.raises(InputError) as e:
                call()
            assert e.value.code == "POLICY_GAP"

    @pytest.mark.parametrize("entries", [{(0, 0): 1}, {(3, 0): 1}, {(1, 0): -1}])
    def test_unrepresentable_entries_rejected(self, entries):
        with pytest.raises(InputError) as e:
            KernelPolicy.from_entries(2, entries)
        assert e.value.code == "BAD_POLICY"

    def test_horizon_mismatch(self, coin):
        pol = constant_policy(coin, 3, 0)
        with pytest.raises(InputError):
            SimConfig(pol, coin, 2, 10, seed=0)

    def test_bad_paths(self, coin):
        pol = constant_policy(coin, 2, 0)
        with pytest.raises(InputError):
            SimConfig(pol, coin, 2, 0, seed=0)

    def test_bad_generator_index(self, coin):
        with pytest.raises(InputError):
            constant_policy(coin, 2, 5)
