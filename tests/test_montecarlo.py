import tracemalloc

import numpy as np
import pytest

from sublinexp import (
    SQUARE,
    BudgetError,
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
from sublinexp import functions, montecarlo
from sublinexp.lattice_dp import DEFAULT_STATE_BUDGET, _terminal_values

from conftest import make_set, random_pwl, random_set
from hull_reference import level_bounds

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

    @pytest.mark.parametrize("index", [0.5, 1.0, True, -1, "0", None])
    def test_generator_index_is_an_integer(self, coin_or_rest, index):
        with pytest.raises(InputError) as e:
            constant_policy(coin_or_rest, 2, index)
        assert e.value.code == "POLICY_GAP"
        assert e.value.message == f"generator index must be an integer >= 0, got {index!r}"

    @pytest.mark.parametrize(
        "entry", [((1, 0), 1.5), ((1, 0), 1.0), ((1, 0), True), ((1.0, 0), 1), ((1, 0.5), 1)]
    )
    def test_entries_are_integers(self, entry):
        with pytest.raises(InputError) as e:
            KernelPolicy.from_entries(1, dict([entry]))
        assert e.value.code == "BAD_POLICY"
        assert KernelPolicy.from_entries(1, {(1, -3): 1}).get(1, -3) == 1  # any integer state

    @pytest.mark.parametrize("field, value", [
        ("paths", 2.5), ("paths", True), ("paths", 0), ("seed", 1.5), ("seed", True),
        ("seed", -1), ("seed", 2**128),
    ])
    def test_paths_and_seed_are_integers(self, coin, field, value):
        kwargs = {"paths": 10, "seed": 0, field: value}
        with pytest.raises(InputError) as e:
            SimConfig(constant_policy(coin, 2, 0), coin, 2, **kwargs)
        assert e.value.code == {"paths": "BAD_PATHS", "seed": "BAD_SEED"}[field]


def reference_simulate(config, f, normalize=True):
    """The per-generator ``searchsorted`` loop that ``simulate`` replaced, as a reference."""
    set_, n, m = config.set, config.n, config.paths
    bounds = level_bounds(set_, n)
    cumw = [np.cumsum(g.weight_array) for g in set_.generators]
    coords = [np.asarray(gc, dtype=np.int64) for gc in set_.coords]
    u = np.random.Generator(np.random.Philox(key=config.seed)).random((m, n))
    s = np.zeros(m, dtype=np.int64)
    for k in range(1, n + 1):
        lo, length = bounds[k - 1]
        gen_idx = config.policy.level_choices(k, lo, length)[s - lo]
        assert np.all((gen_idx >= 0) & (gen_idx < len(set_.generators)))
        inc = np.empty(m, dtype=np.int64)
        for g in range(len(set_.generators)):
            sel = gen_idx == g
            if np.any(sel):
                j = np.searchsorted(cumw[g], u[sel, k - 1], side="right")
                j = np.minimum(j, len(coords[g]) - 1)
                inc[sel] = coords[g][j]
        s += inc
    vals = _terminal_values(set_, n, f, normalize, s)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return float(np.add.reduce(vals) / m), stderr


def draw_on_cumulative_weights(monkeypatch, set_):
    """Replace the Philox stream by draws on and next to every cumulative weight of
    ``set_``, repeated from the start of each block; returns the draws."""
    edges = [np.cumsum(g.weight_array) for g in set_.generators]
    draws = np.concatenate([[0.0, np.nextafter(1.0, 0.0)]] + [
        np.concatenate([e, np.nextafter(e, 0.0), np.nextafter(e, 2.0)]) for e in edges
    ])
    draws = draws[(draws >= 0) & (draws < 1)]

    class Drawn:
        def __init__(self, bit_generator):
            pass

        def random(self, shape):
            return np.resize(draws, shape[0] * shape[1]).reshape(shape)

    monkeypatch.setattr(np.random, "Generator", Drawn)
    return draws


def assert_matches_reference(config, f, normalize=True):
    res = simulate(config, f, normalize)
    assert (res.estimate, res.stderr) == reference_simulate(config, f, normalize)
    return res


class TestSimulationStep:
    """``simulate`` counts inner cumulative weights <= u; the reference searches them."""

    def test_sixty_generators_last_index(self):
        # choice 59 times 3 atoms overflows an int8 product
        gens = [[(g - 30, 0.25), (g - 29, 0.5), (g - 28, 0.25)] for g in range(60)]
        s = make_set(*gens)
        f = piecewise_linear([(-31, 0), (32, 1)])
        pol = constant_policy(s, 4, 59)
        assert pol.levels[0][1].dtype == np.int8
        res = assert_matches_reference(SimConfig(pol, s, 4, 3000, seed=2), f)
        assert abs(res.estimate - policy_value(s, pol, 4, f)) <= 4 * res.stderr

    def test_zero_weight_atoms(self):
        s = make_set([(-2, 0.0), (0, 0.5), (1, 0.0), (3, 0.5)], [(-1, 0.0), (2, 1.0)],
                     [(0, 0.3), (1, 0.7), (2, 0.0)])
        f = random_pwl(np.random.default_rng(5), lo=-2, hi=3)
        for g in range(3):
            assert_matches_reference(SimConfig(constant_policy(s, 5, g), s, 5, 4000, seed=g), f)
        assert_matches_reference(SimConfig(robust_value(s, 5, f).policy, s, 5, 4000, seed=9), f)

    @pytest.mark.parametrize("excess", [1e-13, -1e-13])
    def test_rounding_edge_of_the_weight_sum(self, monkeypatch, excess):
        s = make_set([(-1, 0.3), (0, 0.3), (1, 0.4 + excess)], [(-1, 0.5), (2, 0.5 + excess)])
        draws = draw_on_cumulative_weights(monkeypatch, s)
        f = piecewise_linear([(-1, 0), (2, 1)])
        for g in range(2):
            pol = constant_policy(s, 3, g)
            assert_matches_reference(SimConfig(pol, s, 3, 3 * len(draws) + 1, seed=0), f)

    def test_generators_with_different_atom_counts(self):
        s = make_set([(0, 1.0)], [(-1, 0.5), (1, 0.5)], [(-2, 0.1), (-1, 0.2), (1, 0.3), (3, 0.4)])
        rng = np.random.default_rng(11)
        f = random_pwl(rng)
        pol = robust_value(s, 12, f).policy
        assert_matches_reference(SimConfig(pol, s, 12, 5000, seed=4), f)
        entries = {key: (key[0] + key[1]) % 3 for key in pol.entries}
        mixed = KernelPolicy.from_entries(12, entries)
        assert_matches_reference(SimConfig(mixed, s, 12, 5000, seed=5), f)

    @pytest.mark.parametrize("paths", [1, 20_000])
    def test_one_and_many_paths(self, biased_pair, paths):
        f = tent(0.25, 0.25)
        for pol in (robust_value(biased_pair, 9, f).policy, constant_policy(biased_pair, 9, 1)):
            res = assert_matches_reference(SimConfig(pol, biased_pair, 9, paths, seed=31), f)
            assert res.paths == paths

    def test_robust_policy_with_unreachable_states(self):
        # odd states are unreachable under steps of two: the policy stores the
        # even ones, every one reachable, and reads -1 at the odd ones
        s = make_set([(-2, 0.5), (2, 0.5)], [(0, 0.5), (2, 0.5)])
        f = tent(0.5, 1.0)
        pol = robust_value(s, 7, f).policy
        assert pol.step == 2 and all((choice >= 0).all() for _, choice in pol.levels)
        assert pol.level_choices(3, -4, 9)[1::2].tolist() == [-1] * 4
        assert_matches_reference(SimConfig(pol, s, 7, 5000, seed=8), f)

    def test_random_sets_match_reference(self):
        rng = np.random.default_rng(2024)
        for trial in range(12):
            s = random_set(rng, max_generators=4, max_atoms=4)
            f = random_pwl(rng)
            n = int(rng.integers(1, 40))
            pol = robust_value(s, n, f).policy
            assert_matches_reference(SimConfig(pol, s, n, 1500, seed=trial), f)


def walk_simulate(config, f, normalize=True):
    """The per-level walk over one ``(paths, n)`` draw matrix that ``simulate`` used for every policy."""
    set_, n, m = config.set, config.n, config.paths
    bounds = level_bounds(set_, n)
    J = max(len(gc) for gc in set_.coords)
    top = len(set_.generators) * J
    th = np.full((J - 1, top), np.inf)
    co = np.zeros(top, dtype=np.intp)
    for g, (gen, gc) in enumerate(zip(set_.generators, set_.coords)):
        th[: len(gc) - 1, g * J] = np.cumsum(gen.weight_array)[:-1]
        co[g * J : g * J + len(gc)] = np.asarray(gc) - bounds[1][0]  # less the lowest move
    u = np.random.Generator(np.random.Philox(key=config.seed)).random((m, n))
    rel = np.zeros(m, dtype=np.intp)
    for k in range(1, n + 1):
        lo, length = bounds[k - 1]
        choice = config.policy.level_choices(k, lo, length)
        base = (choice.astype(np.intp) * J)[rel]
        if base.min() < 0 or base.max() >= top:
            bad = lo + int(rel[np.argmax((base < 0) | (base >= top))])
            raise InputError("POLICY_GAP", f"visited state {bad} at level {k} has no generator")
        x = u[:, k - 1].copy()
        idx = base
        for row in th:
            idx = idx + (row[base] <= x)
        rel += co[idx]
    vals = _terminal_values(set_, n, f, normalize, rel + bounds[n][0])
    stderr = float(np.std(vals, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return float(np.add.reduce(vals) / m), stderr


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return call


def assert_takes(monkeypatch, path, config, f, normalize=True):
    """``simulate`` takes ``path`` ("iid" or "walk") and matches the walk bitwise."""
    other = {"iid": "_walk", "walk": "_iid_sums"}[path]
    monkeypatch.setattr(montecarlo, other, refuse(other))
    res = simulate(config, f, normalize)
    assert (res.estimate, res.stderr) == walk_simulate(config, f, normalize)
    monkeypatch.undo()
    return res


class TestIidSums:
    """A policy designating one generator at every reachable state sums counts, without a walk."""

    @pytest.mark.parametrize("block_draws", [1 << 16, 7])
    def test_random_sets(self, monkeypatch, block_draws):
        rng = np.random.default_rng(4242)
        for trial in range(20):
            s = random_set(rng, max_generators=3, max_atoms=3)
            f = random_pwl(rng)
            n = int(rng.integers(1, 50))
            m = int(rng.integers(1, 3000))
            for g in range(len(s.generators)):
                monkeypatch.setattr(functions, "_BLOCK_CELLS", block_draws)
                pol = constant_policy(s, n, g)
                assert_takes(monkeypatch, "iid", SimConfig(pol, s, n, m, seed=trial), f)

    def test_one_two_and_three_atoms_with_zero_weights(self, monkeypatch):
        s = make_set([(1, 1.0)], [(-1, 0.0), (2, 1.0)], [(-2, 0.4), (0, 0.0), (3, 0.6)],
                     [(-1, 0.5), (1, 0.5)])
        f = random_pwl(np.random.default_rng(6), lo=-2, hi=3)
        for g in range(4):
            pol = constant_policy(s, 7, g)
            res = assert_takes(monkeypatch, "iid", SimConfig(pol, s, 7, 2500, seed=g), f)
            if g == 0:  # a point mass: every path ends at 7
                assert res.stderr == pytest.approx(0.0, abs=1e-15)
            assert_takes(monkeypatch, "iid", SimConfig(pol, s, 7, 2500, seed=g), SQUARE, False)

    @pytest.mark.parametrize("excess", [1e-13, -1e-13])
    def test_weights_summing_off_one(self, monkeypatch, excess):
        s = make_set([(-1, 0.3), (0, 0.3), (1, 0.4 + excess)], [(-1, 0.5), (2, 0.5 + excess)])
        f = piecewise_linear([(-1, 0), (2, 1)])
        for g in range(2):
            pol = constant_policy(s, 5, g)
            assert_takes(monkeypatch, "iid", SimConfig(pol, s, 5, 4000, seed=3), f)

    @pytest.mark.parametrize("paths", [1, 2, 9363, 2 * 9362 + 5])
    def test_path_counts_on_and_off_the_block(self, monkeypatch, biased_pair, paths):
        n = 7  # 9362 rows per block of 1 << 16 draws
        pol = constant_policy(biased_pair, n, 1)
        res = assert_takes(monkeypatch, "iid", SimConfig(pol, biased_pair, n, paths, seed=5),
                           tent(0.25, 0.25))
        assert res.paths == paths

    def test_single_generator_robust_policy(self, monkeypatch, biased_pair):
        # an increasing f makes the upward-biased generator the argmax everywhere
        f = piecewise_linear([(-1, 0), (1, 1)])
        pol = robust_value(biased_pair, 40, f).policy
        assert set(pol.entries.values()) == {1}
        assert pol.step == 2 and all((choice == 1).all() for _, choice in pol.levels)
        assert_takes(monkeypatch, "iid", SimConfig(pol, biased_pair, 40, 3000, seed=1), f)


class TestWalk:
    def test_unvisited_gap_and_mixed_generators_take_the_walk(self, monkeypatch, coin_or_rest):
        f = tent(0.5, 1.0)
        # generator 0 freezes the walk at 0: the other reachable states are never visited
        frozen = KernelPolicy.from_entries(6, {(k, 0): 0 for k in range(1, 7)})
        res = assert_takes(monkeypatch, "walk", SimConfig(frozen, coin_or_rest, 6, 500, seed=2), f)
        assert res.estimate == f(np.zeros(1))[0]
        with pytest.raises(InputError) as e:
            policy_value(coin_or_rest, frozen, 6, f)
        assert e.value.code == "POLICY_GAP"
        mixed = robust_value(coin_or_rest, 9, f).policy
        assert set(mixed.entries.values()) == {0, 1}
        assert_takes(monkeypatch, "walk", SimConfig(mixed, coin_or_rest, 9, 2000, seed=3), f)

    @pytest.mark.parametrize("block_draws", [1 << 16, 5])
    def test_random_mixed_policies(self, monkeypatch, block_draws):
        rng = np.random.default_rng(99)
        for trial in range(10):
            s = random_set(rng, max_generators=4, max_atoms=4)
            if len(s.generators) < 2:
                continue
            n = int(rng.integers(2, 30))
            pol = constant_policy(s, n, 0)
            entries = {key: int(rng.integers(0, len(s.generators))) for key in pol.entries}
            entries[1, 0] = 0
            entries[2, min(s.coords[0])] = 1
            monkeypatch.setattr(functions, "_BLOCK_CELLS", block_draws)
            mixed = KernelPolicy.from_entries(n, entries)
            assert_takes(monkeypatch, "walk", SimConfig(mixed, s, n, 777, seed=trial), random_pwl(rng))

    def test_visited_gap_keeps_its_message(self, coin_or_rest):
        pol = KernelPolicy.from_entries(3, {(1, 0): 1, (2, -1): 1, (2, 0): 1, (3, 0): 1})
        config = SimConfig(pol, coin_or_rest, 3, 50, seed=0)
        with pytest.raises(InputError) as want:
            walk_simulate(config, ABS_CLIPPED)
        with pytest.raises(InputError) as got:
            simulate(config, ABS_CLIPPED)
        assert got.value.code == "POLICY_GAP" and str(got.value) == str(want.value)


class TestHorizonAndBudgets:
    @pytest.mark.parametrize("n", [0, -1])
    def test_constant_policy_refuses_a_horizon_below_one(self, coin, n):
        with pytest.raises(InputError) as e:
            constant_policy(coin, n, 0)
        assert e.value.code == "BAD_HORIZON"

    def test_constant_policy_charges_the_robust_level_states(self, monkeypatch, biased_pair):
        n = 20
        need = robust_value(biased_pair, n, ABS_CLIPPED).state_count
        assert constant_policy(biased_pair, n, 1, state_budget=need).n == n
        monkeypatch.setattr(montecarlo, "_frame_levels", refuse("_frame_levels"))
        with pytest.raises(BudgetError) as e:
            constant_policy(biased_pair, n, 1, state_budget=need - 1)
        assert e.value.code == "STATE_BUDGET_EXCEEDED"

    def test_simulate_charges_its_draws(self, monkeypatch, biased_pair):
        n, m = 6, 250
        pol = constant_policy(biased_pair, n, 0)
        assert simulate(SimConfig(pol, biased_pair, n, m, seed=1), ABS_CLIPPED,
                        state_budget=n * m).paths == m
        monkeypatch.setattr(np.random, "Generator", refuse("Generator"))
        monkeypatch.setattr(montecarlo, "_reachable_choices", refuse("_reachable_choices"))
        for paths, budget in ((m, n * m - 1), (10**12, DEFAULT_STATE_BUDGET)):
            with pytest.raises(BudgetError) as e:
                simulate(SimConfig(pol, biased_pair, n, paths, seed=1), ABS_CLIPPED,
                         state_budget=budget)
            assert e.value.code == "STATE_BUDGET_EXCEEDED" and "draws" in e.value.message


def distinct_cuts(set_):
    return len({float(w) for g in set_.generators for w in np.cumsum(g.weight_array)[:-1]})


class TestRankWalk:
    """Each draw is kept as its rank among the generators' distinct inner cumulative
    weights; the walk must match ``walk_simulate`` bitwise at the edges of that coding."""

    def test_rank_dtype_widens_past_255_cuts(self, monkeypatch):
        # 130 three-atom generators: 260 distinct cuts, so ranks need uint16
        gens = [[(-1, (g + 1) / 400), (0, 0.5), (1, 0.5 - (g + 1) / 400)] for g in range(130)]
        s = make_set(*gens)
        assert distinct_cuts(s) == 260
        rng = np.random.default_rng(130)
        n = 6
        entries = {key: int(rng.integers(0, 130)) for key in constant_policy(s, n, 0).entries}
        pol = KernelPolicy.from_entries(n, entries)
        assert_takes(monkeypatch, "walk", SimConfig(pol, s, n, 3000, seed=1), random_pwl(rng))

    @pytest.mark.parametrize(
        "gens",
        [
            [[(0, 1.0)], [(2, 1.0)], [(-1, 1.0)]],  # no cuts at all: one rank
            [[(0, 1.0)], [(-1, 0.0), (1, 0.5), (2, 0.5)], [(-2, 0.3), (0, 0.0), (1, 0.7)]],
            [[(-2, 0.25), (0, 0.0), (1, 0.0), (3, 0.75)], [(-1, 0.25), (2, 0.75)], [(1, 1.0)]],
        ],
    )
    def test_one_atom_generators_and_zero_weight_atoms(self, monkeypatch, gens):
        s = make_set(*gens)
        f = random_pwl(np.random.default_rng(len(gens[1])), lo=-2, hi=3)
        n = 8
        entries = {(k, x): (k + x) % 3 for k, x in constant_policy(s, n, 0).entries}
        mixed = KernelPolicy.from_entries(n, entries)
        assert_takes(monkeypatch, "walk", SimConfig(mixed, s, n, 4000, seed=n), f)
        assert_takes(monkeypatch, "walk", SimConfig(mixed, s, n, 4000, seed=n), SQUARE, False)

    @pytest.mark.parametrize("excess", [1e-13, -1e-13])
    def test_weights_summing_off_one_with_draws_on_every_cut(self, monkeypatch, excess):
        s = make_set([(-1, 0.3), (0, 0.3), (1, 0.4 + excess)], [(-1, 0.5), (2, 0.5 + excess)],
                     [(-2, 0.1), (1, 0.2 + excess), (3, 0.7)])
        draws = draw_on_cumulative_weights(monkeypatch, s)
        n = 5
        entries = {(k, x): (k * 7 + x) % 3 for k, x in constant_policy(s, n, 0).entries}
        mixed = KernelPolicy.from_entries(n, entries)
        config = SimConfig(mixed, s, n, 5 * len(draws) + 2, seed=0)  # one draw block
        f = piecewise_linear([(-2, 0), (3, 1)])
        res = simulate(config, f)
        assert (res.estimate, res.stderr) == walk_simulate(config, f)

    @pytest.mark.parametrize("count, hole", [(130, -1), (100, 120)])
    def test_int8_policy_gap_on_many_generators(self, count, hole):
        # an int8 policy on a set of `count` generators: the visited state 1 at
        # level 2 designates -1 (a hole) or an index past the last generator
        gens = [[(-1, (g + 1) / (2 * count + 2)), (1, 1 - (g + 1) / (2 * count + 2))]
                for g in range(count)]
        s = make_set(*gens)
        entries = {(1, 0): 5, (2, -1): 7, (2, 3): 9}
        if hole >= 0:
            entries[2, 1] = hole
        pol = KernelPolicy.from_entries(2, entries)
        assert pol.levels[1][1].dtype == np.int8
        with pytest.raises(InputError) as e:
            policy_value(s, pol, 2, ABS_CLIPPED)
        assert str(e.value) == "POLICY_GAP: reachable state 1 at level 2 has no generator"
        config = SimConfig(pol, s, 2, 500, seed=0)
        with pytest.raises(InputError) as want:
            walk_simulate(config, ABS_CLIPPED)
        with pytest.raises(InputError) as got:
            simulate(config, ABS_CLIPPED)
        assert str(got.value) == str(want.value) == (
            "POLICY_GAP: visited state 1 at level 2 has no generator"
        )

    @pytest.mark.parametrize("count", [200, 1000])
    def test_both_rank_paths_on_many_cuts(self, monkeypatch, count):
        # `count` three-atom generators: 2 * count distinct cuts, ranked by one
        # compare pass per cut or by one binary search per draw
        gens = [[(-1, (g + 1) / (4 * count)), (0, 0.5), (1, 0.5 - (g + 1) / (4 * count))]
                for g in range(count)]
        s = make_set(*gens)
        assert distinct_cuts(s) == 2 * count >= montecarlo._SEARCH_CUTS
        rng = np.random.default_rng(count)
        n = 12
        entries = {key: int(rng.integers(0, count)) for key in constant_policy(s, n, 0).entries}
        config = SimConfig(KernelPolicy.from_entries(n, entries), s, n, 2000, seed=5)
        f = random_pwl(rng)
        for search_cuts in (montecarlo._SEARCH_CUTS, 2 * count + 1):  # search, then compares
            monkeypatch.setattr(montecarlo, "_SEARCH_CUTS", search_cuts)
            assert_takes(monkeypatch, "walk", config, f)

    @pytest.mark.parametrize("search_cuts", [256, 10**9])  # search, then compares
    def test_both_rank_paths_with_draws_on_every_cut(self, monkeypatch, search_cuts):
        # two many-atom generators: about 290 distinct cuts, each owned by the
        # generator a mixed policy designates about half the time, and each drawn
        rng = np.random.default_rng(290)
        gens = []
        for atoms in (150, 140):
            w = rng.integers(1, 9, atoms)
            gens.append([(x - atoms // 2, wx / w.sum()) for x, wx in enumerate(w)])
        s = make_set(*gens)
        assert distinct_cuts(s) >= montecarlo._SEARCH_CUTS == 256
        draws = draw_on_cumulative_weights(monkeypatch, s)
        monkeypatch.setattr(montecarlo, "_SEARCH_CUTS", search_cuts)
        n = 4
        entries = {(k, x): (k + x) % 2 for k, x in constant_policy(s, n, 0).entries}
        config = SimConfig(KernelPolicy.from_entries(n, entries), s, n, len(draws), seed=0)
        assert_takes(monkeypatch, "walk", config, random_pwl(rng))  # one draw block

    def test_long_mixed_walk_keeps_one_byte_per_draw(self):
        # n * paths = 20M draws: 160 MB as float64, 20 MB as uint8 ranks
        s = make_set([(-2, 0.3), (0, 0.4), (3, 0.3)], [(-1, 0.6), (2, 0.4)], [(-3, 0.5), (1, 0.5)])
        n, m = 1000, 20_000
        f = tent(0.0, 0.5)
        pol = robust_value(s, n, f).policy
        assert len(set(pol.levels[n // 2][1][pol.levels[n // 2][1] >= 0].tolist())) == 3
        config = SimConfig(pol, s, n, m, seed=3)
        want = walk_simulate(config, f)
        tracemalloc.start()
        try:
            res = simulate(config, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.estimate, res.stderr) == want
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"
