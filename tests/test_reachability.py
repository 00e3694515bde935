"""Closed-form reachability against the dense forward pass, bit for bit.

``tests/reachability_reference.py`` builds every level's mask by OR-shifts and
rebuilds the callers of reachability on those masks.  The holes must equal
the masks' unreachable states, and the robust and constant policies and the
``simulate`` estimates must be the same arrays and floats on both.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublinexp import (
    InputError,
    SimConfig,
    constant_policy,
    lattice_dp,
    policy_value,
    robust_value,
    simulate,
    tent,
)
from sublinexp.cli import main

import reachability_reference as reference
from conftest import make_set, random_pwl
from oracle_helpers import designated, hand_policy


@st.composite
def move_sets(draw):
    """1-6 distinct moves in -8..8 on a progression of step 1, 2, 3 or 4 (gcd 1 or more)."""
    step = draw(st.sampled_from([1, 1, 2, 3, 4]))
    base = draw(st.integers(-8, 8))
    pool = [x for x in range(-8, 9) if (x - base) % step == 0]
    return tuple(sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))))


@settings(max_examples=400, deadline=None)
@given(move_sets(), st.integers(1, 200))
@example((3,), 50)  # a single move: one state per level
@example((-8, 8), 200)  # gcd 16
@example((-8, -7, 8), 200)  # the widest edge windows
@example((-1, 0, 2), 1)
def test_holes_are_the_dense_masks(moves, n):
    # the frame of one generator on these moves: a, d and the steps t = (c - a) / d
    frame = lattice_dp._frame(make_set([(c, 1 / len(moves)) for c in moves]))
    a, d, ts = frame.a, frame.d, frame.steps
    assert a == moves[0] and d == (np.gcd.reduce(np.array(moves) - a) or 1)
    assert ts == tuple((c - a) // d for c in moves) and frame.s == ts[-1]
    holes, flat = lattice_dp._reachability(ts, n)
    bounds, masks = reference.dense_masks(moves, n)
    assert len(holes) == n + 1
    for k, ((lo, length), h, mask) in enumerate(zip(bounds, holes, masks)):
        assert lo == k * a and np.array_equal(lo + d * np.arange(k * frame.s + 1), frame.states(k))
        off = np.ones(length, dtype=bool)
        off[::d] = False
        assert not mask[off].any()  # nothing off the progression is reachable
        # the holes near the top are counted from the end
        on = len(mask[::d])
        assert h.dtype == np.intp and -on <= h.min(initial=0) and h.max(initial=-1) < on
        assert np.array_equal(h % on, np.flatnonzero(~mask[::d]))
    want_flat = np.flatnonzero(np.concatenate([~mask[::d] for mask in masks[:n]]))
    assert np.array_equal(flat, want_flat)
    dense = lattice_dp._dense_masks(frame, n)
    assert dense[0] == tuple(bounds) and all(map(np.array_equal, dense[1], masks))


# sets whose levels have holes: moves {-1, 0, 2}, {-1, 1, 2}, {-2, 2} (step 4),
# and the biased pair (step 2)
HOLE_SETS = {
    "-1,0,2": make_set([(-1, 0.5), (2, 0.5)], [(-1, 0.25), (0, 0.25), (2, 0.5)], [(0, 1.0)]),
    "-1,1,2": make_set([(-1, 0.4), (2, 0.6)], [(-1, 0.5), (1, 0.5)]),
    "-2,2": make_set([(-2, 0.5), (2, 0.5)], [(-2, 0.3), (2, 0.7)]),
    "biased_pair": make_set([(-1, 0.5), (1, 0.5)], [(-1, 0.25), (1, 0.75)]),
}


def assert_same_policy(got, want):
    """The same choice at every hull state, -1 off the reachable ones, in the same dtype."""
    assert got.n == want.n and len(got.levels) == len(want.levels)
    assert designated(got) == designated(want)
    for k, (lo, b) in enumerate(want.levels, start=1):
        a = got.level_choices(k, lo, len(b))
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_one_array(policy, s):
    """Every level's choices are a view of one array, laid on the set's frame."""
    frame = lattice_dp._frame(s)
    bases = {id(choice.base) for _, choice in policy.levels}
    assert len(bases) == 1 and policy.levels[0][1].base is not None
    assert policy.step == frame.d
    for k, (lo, choice) in enumerate(policy.levels):
        assert lo == k * frame.a and len(choice) == k * frame.s + 1


def assert_same_estimate(got_policy, want_policy, s, n, f, seed):
    got = simulate(SimConfig(got_policy, s, n, 700, seed), f)
    want = reference.simulate(SimConfig(want_policy, s, n, 700, seed), f)
    assert (float(got.estimate).hex(), float(got.stderr).hex()) == tuple(map(float.hex, want))


@pytest.mark.parametrize("n", [1, 2, 5, 17, 60])
@pytest.mark.parametrize("name", sorted(HOLE_SETS))
def test_policies_and_estimates_match_the_dense_path(name, n):
    s = HOLE_SETS[name]
    rng = np.random.default_rng(n)
    for f in (tent(0.25, 0.5), tent(-0.5, 0.25), random_pwl(rng, lo=-1, hi=2)):
        got, want = robust_value(s, n, f).policy, reference.robust_policy(s, n, f)
        assert_same_policy(got, want)
        assert_one_array(got, s)
        assert_same_estimate(got, want, s, n, f, seed=n)
    for g in range(len(s.generators)):
        got, want = constant_policy(s, n, g), reference.constant_policy(s, n, g)
        assert_same_policy(got, want)
        assert_one_array(got, s)
        assert_same_estimate(got, want, s, n, tent(0.25, 0.5), seed=g)


def refuse(*args):
    raise AssertionError("dense masks built")


@pytest.mark.parametrize("policy", ["robust", {"constant": 1}])
@pytest.mark.parametrize(
    "generators",
    [
        [[[-1, 0.5], [1, 0.5]], [[-1, 0.25], [0, 0.25], [2, 0.5]]],  # moves {-1, 0, 1, 2}
        [[[-1, 0.5], [2, 0.5]], [[-1, 0.25], [0, 0.25], [2, 0.5]]],  # moves {-1, 0, 2}: holes
    ],
)
def test_simulate_jobs_build_no_masks(monkeypatch, tmp_path, generators, policy):
    monkeypatch.setattr(lattice_dp, "reachable_masks", refuse)
    monkeypatch.setattr(lattice_dp, "_dense_masks", refuse)
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({
        "generators": generators,
        "function": {"kind": "tent", "params": {"center": 0.25, "halfwidth": 0.5}},
        "n": 40, "paths": 500, "seed": 3, "policy": policy,
    }))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    # a gap is named from the choices at the progressions, without masks
    gapped = hand_policy(40, {(1, 0): 0})
    with pytest.raises(InputError) as e:
        policy_value(make_set(*generators), gapped, 40, tent(0.25, 0.5))
    assert e.value.message == "reachable state -1 at level 2 has no generator"
