"""Exact rational lattices end to end: points are read once as rationals.

The set on step 1/3 with points -1/3, 0 and 2/3 has the lattice coordinates -1,
0 and 2, those of its step-1 twin with points -1, 0 and 2.  Every capacity on it
is therefore bitwise the twin's at three times the threshold.
"""

import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from sublinexp import InputError, validate_ambiguity_set
from sublinexp.ambiguity import to_fraction
from sublinexp.cli import main
from sublinexp.lattice_dp import EVENT_KINDS, PathEvent, capacity
from sublinexp.lln import peng_condition_report
from sublinexp.oracle import brute_force_capacity

THIRDS = [[["-1/3", 0.5], ["2/3", 0.5]], [["-1/3", 0.25], ["0", 0.25], ["2/3", 0.5]]]
TWIN = [[[-1, 0.5], [2, 0.5]], [[-1, 0.25], [0, 0.25], [2, 0.5]]]
#: thresholds on step 1/3, on the lattice and between its points
THRESHOLDS = ["-1/3", "0", "1/3", "1/2", "2/3", "1", "4/3", "5/3", "7/3"]


def _events(kind, t):
    """The event of ``kind`` at threshold ``t``, once per ``from_index`` where it takes one."""
    if kind == "TAIL_SUM_ABS_GE":
        return [PathEvent(kind, t, from_index=k) for k in (0, 1, 2)]
    return [PathEvent(kind, t)]


@pytest.fixture(scope="module")
def thirds():
    return validate_ambiguity_set({"step": "1/3", "generators": THIRDS})


@pytest.fixture(scope="module")
def twin():
    return validate_ambiguity_set({"step": 1, "generators": TWIN})


def test_points_are_read_exactly(thirds, twin):
    assert thirds.coords == twin.coords == ((-1, 2), (-1, 0, 2))
    assert thirds.generators[1].points == (-1 / 3, 0.0, 2 / 3)
    assert thirds.generators[1].exact == ((-1, 3), (0, 1), (2, 3))


@pytest.mark.parametrize("side", ["UPPER", "LOWER"])
@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
def test_capacity_is_its_step_one_twin_bitwise(thirds, twin, kind, side):
    for t in THRESHOLDS:
        for mine, theirs in zip(_events(kind, t), _events(kind, 3 * to_fraction(t))):
            for n in (2, 5):
                got, want = capacity(thirds, n, mine, side), capacity(twin, n, theirs, side)
                assert got.hex() == want.hex(), (t, n, mine.from_index)


@pytest.mark.parametrize("side", ["UPPER", "LOWER"])
@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
def test_oracle_agrees_on_the_thirds(thirds, kind, side):
    # the weights are dyadic, so both sums are exact at these horizons
    for t in THRESHOLDS:
        for ev in _events(kind, t):
            for n in range(max(1, ev.from_index or 0), 5):
                assert brute_force_capacity(thirds, n, ev, side) == capacity(thirds, n, ev, side), (t, n)


def test_one_exact_value_is_one_atom():
    s = validate_ambiguity_set({"step": "1/6", "generators": [[["1/2", 0.25], [0.5, 0.25], ["-1/3", 0.5]]]})
    g = s.generators[0]
    assert (g.points, g.weights, g.exact, s.coords) == ((-1 / 3, 0.5), (0.5, 0.5), ((-1, 3), (1, 2)), ((-2, 3),))


def test_over_precise_decimal_is_off_the_lattice():
    # the double nearest 1/10, written out in full, is not 1/10
    assert validate_ambiguity_set({"step": 0.1, "generators": [[["0.1", 1.0]]]}).coords == ((1,),)
    with pytest.raises(InputError) as e:
        validate_ambiguity_set({"step": 0.1, "generators": [[["0.1000000000000000055511151231257827", 1.0]]]})
    assert e.value.code == "OFF_LATTICE"
    with pytest.raises(InputError) as e:  # 10**-400, whose nearest double is 0
        validate_ambiguity_set({"step": 1, "generators": [[["1e-400", 1.0]]]})
    assert e.value.code == "OFF_LATTICE"


def test_tail_capacity_reads_the_exact_point():
    # 1 - 10**-17 rounds to the double 1.0, yet lies below 1
    s = validate_ambiguity_set({"step": "1/100000000000000000",
                                "generators": [[["0.99999999999999999", 0.5], [0, 0.5]]]})
    assert s.generators[0].points == (0.0, 1.0)
    assert capacity(s, 1, PathEvent("FINAL_ABS_GE", 1)) == 0.0
    assert peng_condition_report(s, 2).rows[0].nV_tail == 0.0


def test_other_reals_are_read_as_their_float():
    points = [np.int64(-1), np.float32(0.5), np.float64(1.5), Decimal("2")]
    s = validate_ambiguity_set({"step": "1/2", "generators": [[(p, 0.25) for p in points]]})
    assert (s.generators[0].points, s.coords) == ((-1.0, 0.5, 1.5, 2.0), ((-2, 1, 3, 4),))


def test_negative_zero_is_zero():
    s = validate_ambiguity_set({"step": 1, "generators": [[[-0.0, 0.5], ["-0", 0.25], [0, 0.25]]]})
    assert [p.hex() for p in s.generators[0].points] == [(0.0).hex()] and s.generators[0].weights == (1.0,)


def test_fraction_weights_are_their_nearest_doubles(tmp_path):
    reports = []
    for weights in (["1/3", "2/3"], [0.3333333333333333, 0.6666666666666666]):
        out = tmp_path / str(len(reports))
        out.mkdir()
        gens = [[["-1/3", weights[0]], ["2/3", weights[1]]], *THIRDS]
        cfg = {"lattice": {"step": "1/3"}, "generators": gens, "n": 6,
               "event": {"kind": "MAX_PARTIAL_ABS_GE", "threshold": "2/3"}, "side": "UPPER"}
        assert _run(out, ["capacity"], cfg) == 0
        reports.append([(out / name).read_bytes() for name in ("capacity.json", "capacity.csv")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("weight", ["1/0", "1/3x", "1" + "0" * 400 + "/3"])
def test_unread_weight_keeps_its_message(weight):
    with pytest.raises(InputError) as e:
        validate_ambiguity_set({"step": "1/3", "generators": [[["-1/3", weight], ["2/3", 0.5]]]})
    assert str(e.value) == f"BAD_CONFIG: generator 0: weight must be a decimal number, got {weight!r}"


def _run(tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main([*argv, "--config", str(path), "--out", str(tmp_path), "--quiet"])


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["eval"], {"function": {"kind": "identity"}}),
        (["lln-sweep"], {"function": {"kind": "clamp", "params": {"n": 1}}, "horizons": [1, 4, 16]}),
        (["simulate"], {"function": {"kind": "abs"}, "n": 6, "paths": 200, "seed": 3}),
        (["simulate"], {"function": {"kind": "abs"}, "n": 6, "paths": 200, "policy": {"constant": 1}}),
    ],
)
def test_commands_run_on_the_thirds(tmp_path, argv, extra):
    assert _run(tmp_path, argv, {"lattice": {"step": "1/3"}, "generators": THIRDS, **extra}) == 0
    report = json.loads((tmp_path / f"{argv[0].replace('-', '_')}.json").read_text())
    assert report["rows"] and "step 1/3" in report["meta"]["set"]
    if argv == ["eval"]:  # the means are 1/6 and 1/4
        assert report["rows"][0][:2] == pytest.approx([0.25, 1 / 6])


@pytest.mark.parametrize(
    "point, code",
    [
        ([0], "BAD_CONFIG"),
        (True, "BAD_CONFIG"),
        ("abc", "BAD_CONFIG"),
        ("1/0", "BAD_CONFIG"),
        (math.nan, "BAD_RATIONAL"),
        (math.inf, "BAD_RATIONAL"),
        (10**400, "BAD_CONFIG"),  # past the doubles: never divided into a float
        ("1e400", "BAD_RATIONAL"),  # a float reads it as inf
    ],
)
def test_malformed_point_is_coded(tmp_path, point, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"step": "1/3"}, "generators": [[[point, 0.5], ["2/3", 0.5]]],
                               "function": {"kind": "abs"}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "sublinexp.cli", "eval", "--config", str(cfg), "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and f"error: {code}: generator 0: " in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
