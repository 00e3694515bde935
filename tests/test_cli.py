import csv
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sublinexp import InputError, cli, lattice_dp
from sublinexp.cli import main
from sublinexp.functions import _KINDS
from sublinexp.inequalities import VIOLATED, OttavianiReport, ProductIdentityReport
from sublinexp.lln import ChebyshevCheck
from sublinexp.reports import csv_from_json, write_report

from oracle_helpers import atomic_write_text

PAIR_SET = {
    "lattice": {"step": 1},
    "generators": [[[-1, 0.5], [1, 0.5]], [[-1, 0.25], [1, 0.75]]],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(tmp_path, name):
    with open(tmp_path / f"{name}.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def run(tmp_path, cmd, payload, *extra):
    cfg = write_config(tmp_path, f"{cmd.replace('-', '_')}_cfg.json", payload)
    return main([cmd, *extra, "--config", cfg, "--out", str(tmp_path), "--quiet"])


def run_process(tmp_path, cmd, payload, *extra):
    """``python -m sublinexp.cli`` in a separate process, so a traceback would show."""
    cfg = write_config(tmp_path, "bad.json", payload)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sublinexp.cli", cmd, *extra, "--config", cfg]
        + ["--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestSubcommands:
    def test_eval(self, tmp_path):
        payload = dict(PAIR_SET, function={"kind": "identity"})
        assert run(tmp_path, "eval", payload) == 0
        (row,) = read_rows(tmp_path, "eval")
        assert float(row["upper"]) == 0.5 and float(row["lower"]) == 0.0

    def test_capacity(self, tmp_path):
        payload = dict(
            PAIR_SET, n=2, event={"kind": "FINAL_ABS_GE", "threshold": 2}, side="UPPER"
        )
        assert run(tmp_path, "capacity", payload) == 0
        (row,) = read_rows(tmp_path, "capacity")
        # adversary switches generator with the sign of the partial sum
        assert float(row["value"]) == 0.6875

    @pytest.mark.parametrize("kind", ["MAX_PARTIAL_ABS_GE", "MAX_INCREMENT_ABS_GE", "FINAL_ABS_GE"])
    def test_lower_capacity_of_zero_reads_positive(self, tmp_path, kind):
        # the walk may freeze at 0, so v = 0; the cell must not read -0.0
        payload = dict(
            lattice={"step": 1},
            generators=[[[0, 1.0]], [[-1, 0.5], [1, 0.5]]],
            n=3,
            event={"kind": kind, "threshold": 2},
            side="LOWER",
        )
        assert run(tmp_path, "capacity", payload) == 0
        (row,) = read_rows(tmp_path, "capacity")
        assert row["value"] == "0.0"

    def test_lln_sweep(self, tmp_path):
        payload = dict(
            PAIR_SET,
            function={"kind": "tent", "params": {"center": 0.25, "halfwidth": 0.25}},
            horizons=[4, 8, 16],
        )
        assert run(tmp_path, "lln-sweep", payload) == 0
        rows = read_rows(tmp_path, "lln_sweep")
        assert [r["n"] for r in rows] == ["4", "8", "16"]
        errs = [float(r["abs_error"]) for r in rows]
        assert errs == sorted(errs, reverse=True)

    def test_conditions_with_set(self, tmp_path):
        payload = dict(PAIR_SET, n_max=4)
        assert run(tmp_path, "conditions", payload) == 0
        rows = read_rows(tmp_path, "conditions")
        assert [r["n"] for r in rows] == ["1", "2", "3", "4"]
        assert float(rows[-1]["nV_tail"]) == 0.0

    def test_conditions_with_family(self, tmp_path):
        payload = {"family": {"name": "HEAVY", "truncation": 32}, "n_max": 4}
        assert run(tmp_path, "conditions", payload) == 0
        rows = read_rows(tmp_path, "conditions")
        assert all(float(r["nV_tail"]) == 1.0 for r in rows)
        meta = json.loads((tmp_path / "conditions.json").read_text())["meta"]
        assert "violated" in meta["condition_i_trend"]

    def test_ottaviani(self, tmp_path):
        payload = dict(PAIR_SET, n=2, alpha=2.0, c=0.5)
        assert run(tmp_path, "ottaviani", payload) == 0
        (row,) = read_rows(tmp_path, "ottaviani")
        assert row["status"] in ("HOLDS", "VACUOUS")

    def test_product_identity(self, tmp_path):
        payload = dict(PAIR_SET, n=3, threshold=1.0)
        assert run(tmp_path, "product-identity", payload) == 0
        (row,) = read_rows(tmp_path, "product_identity")
        assert float(row["delta"]) <= 1e-9

    def test_chebyshev(self, tmp_path):
        payload = dict(PAIR_SET, n=2, eps=1.0)
        assert run(tmp_path, "chebyshev", payload) == 0
        (row,) = read_rows(tmp_path, "chebyshev")
        assert row["holds"] == "true"

    def test_counterexample_exm3(self, tmp_path):
        payload = {"K": 100, "lambdas": [10.0], "ms": [5, 10]}
        assert run(tmp_path, "counterexample", payload, "exm3") == 0
        (lam_row,) = read_rows(tmp_path, "exm3_excess")
        assert float(lam_row["lambda"]) == 10.0
        tail_rows = read_rows(tmp_path, "exm3_tail")
        assert [r["m"] for r in tail_rows] == ["5", "10"]

    def test_counterexample_heavy(self, tmp_path):
        assert run(tmp_path, "counterexample", {"K": 50, "n": 5}, "heavy") == 0
        (row,) = read_rows(tmp_path, "heavy")
        assert float(row["value"]) >= float(row["lower_bound"]) - 1e-12
        meta = json.loads((tmp_path / "heavy.json").read_text())["meta"]
        assert meta["maximal_distribution_value"] == 0.0

    def test_counterexample_heavy_summary_states_the_cells(self, tmp_path, capsys):
        # in floats the value falls below the bound here (…7799886 < …7799889):
        # 40 rounded products against one power
        assert main(["counterexample", "heavy", "--K", "1000000", "--n", "40",
                     "--out", str(tmp_path)]) == 0
        (row,) = read_rows(tmp_path, "heavy")
        value, bound = float(row["value"]), float(row["lower_bound"])
        relation = ">=" if value >= bound else "<"
        assert f"value {value:.6g} {relation} {bound:.6g} (difference {value - bound:.3g})" in (
            capsys.readouterr().out
        )

    def test_simulate_robust(self, tmp_path):
        payload = dict(
            PAIR_SET,
            function={"kind": "tent", "params": {"center": 0.25, "halfwidth": 0.25}},
            n=4,
            paths=5000,
            policy="robust",
        )
        assert run(tmp_path, "simulate", payload, "--seed", "3") == 0
        (row,) = read_rows(tmp_path, "simulate")
        est, err, exact = (float(row[k]) for k in ("estimate", "stderr", "policy_value"))
        assert abs(est - exact) <= max(4 * err, 1e-9)

    @pytest.mark.parametrize("policy", ["robust", {"constant": 1}])
    def test_simulate_sweeps_the_lattice_once(self, tmp_path, policy):
        # robust: the sweep that extracts the policy; constant: the sweep of its
        # generator alone, with no policy_value replay
        payload = dict(PAIR_SET, function={"kind": "abs"}, n=6, paths=40, policy=policy)
        with mock.patch.object(lattice_dp, "_sweep", wraps=lattice_dp._sweep) as sweep, \
                mock.patch.object(lattice_dp, "policy_value", wraps=lattice_dp.policy_value) as replay:
            assert run(tmp_path, "simulate", payload) == 0
        assert sweep.call_count == 1 and replay.call_count == 0
        assert not hasattr(cli, "policy_value")

    def test_simulate_constant_policy(self, tmp_path):
        payload = dict(
            PAIR_SET,
            function={"kind": "abs"},
            n=3,
            paths=1000,
            policy={"constant": 0},
            seed=11,
        )
        assert run(tmp_path, "simulate", payload) == 0

    def test_oracle(self, tmp_path):
        payload = dict(PAIR_SET, function={"kind": "abs"}, n=3)
        assert run(tmp_path, "oracle", payload) == 0
        (row,) = read_rows(tmp_path, "oracle")
        assert float(row["delta"]) <= 1e-9


class TestExitCodes:
    def test_validation_error_is_1(self, tmp_path, capsys):
        payload = {
            "lattice": {"step": 1},
            "generators": [[[0, 0.5]]],
            "function": {"kind": "abs"},
        }
        assert run(tmp_path, "eval", payload) == 1
        assert "WEIGHT_SUM" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, extra",
        [
            ("eval", {"function": {"kind": "abs"}}),
            ("capacity", {"n": 2, "event": {"kind": "FINAL_GT", "threshold": 0}}),
            ("conditions", {"n_max": 4}),
            ("simulate", {"function": {"kind": "abs"}, "n": 3, "paths": 9}),
        ],
    )
    def test_nan_weight_is_weight_sum(self, tmp_path, cmd, extra):
        payload = {"generators": [[[-1, "nan"], [1, 0.5]]], **extra}
        proc = run_process(tmp_path, cmd, payload)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: WEIGHT_SUM: generator 0: weights sum to nan")
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_a_sum_past_int64_is_bad_lattice(self, tmp_path):
        payload = {"lattice": {"step": "1e-15"}, "generators": [[[-1, 0.01], [3, 0.99]]], "n": 4000,
                   "event": {"kind": "FINAL_GT", "threshold": 11600}}
        proc = run_process(tmp_path, "capacity", payload)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: BAD_LATTICE: sums of 4000 steps on lattice step 1/1000000000000000")
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_unknown_config_key_named(self, tmp_path, capsys):
        payload = dict(PAIR_SET, function={"kind": "abs"}, wrong_key=1)
        assert run(tmp_path, "eval", payload) == 1
        assert "wrong_key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["eval", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 1

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"generators": [[[0, 1.0]]], "function": {"kind": "a\xffbs"}}')
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: BAD_CONFIG: config is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
        )
        cfg.write_bytes(b'\xef\xbb\xbf{"generators": [[[0, 1.0]]], "function": {"kind": "abs"}}')
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: BAD_CONFIG: config is not valid JSON: Unexpected UTF-8 BOM"
        )
        assert not list(tmp_path.glob("eval.*"))

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_unwritable_out_is_bad_out(self, tmp_path, capsys, under):
        cfg = write_config(tmp_path, "cfg.json", dict(PAIR_SET, function={"kind": "abs"}))
        (tmp_path / "file").write_text("x")
        out = tmp_path / "file" / under
        assert main(["eval", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: BAD_OUT: cannot write report 'eval' under {str(out)!r}: [Errno ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]

    def test_budget_error_is_2(self, tmp_path, capsys):
        payload = dict(
            PAIR_SET,
            function={"kind": "abs"},
            n=8,
            budgets={"states": 4},
        )
        assert run(tmp_path, "oracle", payload) == 2
        assert "STATE_BUDGET_EXCEEDED" in capsys.readouterr().err

    def test_oracle_refuses_before_the_history_walk(self, tmp_path, capsys, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("brute_force_value called")

        monkeypatch.setattr(cli, "brute_force_value", walk)
        breakpoints = [[-1, 1.7e308], [0, -1.7e308], [1, 1.7e308]]
        payload = dict(PAIR_SET, n=10, function={"kind": "pwl", "params": {"breakpoints": breakpoints}})
        assert run(tmp_path, "oracle", payload) == 1
        assert "error: UNBOUNDED_EVAL: " in capsys.readouterr().err

    def test_enumeration_budget_is_2(self, tmp_path, capsys):
        payload = dict(PAIR_SET, function={"kind": "abs"}, n=6, budgets={"enumeration": 3})
        assert run(tmp_path, "oracle", payload) == 2

    def test_ottaviani_budget_is_2(self, tmp_path, capsys):
        payload = dict(PAIR_SET, n=8, alpha=2.0, c=0.5, budgets={"states": 20})
        assert run(tmp_path, "ottaviani", payload) == 2
        assert "STATE_BUDGET_EXCEEDED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, payload",
        [
            ("capacity", dict(PAIR_SET, n=2, event={"kind": "FINAL_ABS_GE", "threshold": math.inf})),
            ("ottaviani", dict(PAIR_SET, n=4, alpha=math.inf, c=0.5)),  # NaN is BAD_ALPHA
            ("capacity", dict(PAIR_SET, n=2, event={"kind": "FINAL_GT", "threshold": "1/0"})),
            ("eval", dict(PAIR_SET, lattice={"step": "abc"}, function={"kind": "abs"})),
        ],
    )
    def test_malformed_rational_is_coded(self, tmp_path, cmd, payload):
        proc = run_process(tmp_path, cmd, payload)
        assert proc.returncode == 1
        assert "BAD_RATIONAL" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "function",
        [
            {"kind": "psi", "params": {"n": 2.5}},
            {"kind": "psi", "params": {"n": "x"}},
            {"kind": "clamp", "params": {"n": "x"}},
            {"kind": "tent", "params": {"center": "x", "halfwidth": 1}},
            {"kind": "tent", "params": {"center": 0, "halfwidth": [1]}},
            {"kind": "abs_excess", "params": {"lambda": None}},
            {"kind": "constant", "params": {"value": "x"}},
            {"kind": "clamp", "params": {"n": math.nan}},
            {"kind": "tent", "params": {"center": math.nan, "halfwidth": 1}},
            {"kind": "tent", "params": {"center": 0, "halfwidth": math.nan}},
            {"kind": "abs_excess", "params": {"lambda": math.nan}},
            {"kind": "constant", "params": {"value": math.nan}},
            {"kind": "pwl", "params": {"breakpoints": [[0, math.nan], [1, 1]]}},
            {"kind": "pwl", "params": {"breakpoints": [[math.nan, 0]]}},
            {"kind": "clamp", "params": {"n": "inf"}},
            {"kind": "tent", "params": {"center": "-inf", "halfwidth": 1}},
            {"kind": "tent", "params": {"center": 0, "halfwidth": math.inf}},
            {"kind": "abs_excess", "params": {"lambda": math.inf}},
            {"kind": "constant", "params": {"value": "-inf"}},
            {"kind": "pwl", "params": {"breakpoints": [[0, "inf"], [1, 0]]}},
            {"kind": "pwl", "params": {"breakpoints": [[0, 0], ["inf", 1]]}},
        ],
    )
    def test_bad_function_parameter_is_coded(self, tmp_path, function):
        payload = {"generators": [[[-3, 0.5], [3, 0.5]]], "function": function}
        proc = run_process(tmp_path, "eval", payload)
        assert proc.returncode == 1
        assert "BAD_FUNCTION" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize(
        "cmd, payload",
        [
            ("oracle", dict(PAIR_SET, n=2, function={
                "kind": "pwl", "params": {"breakpoints": [[0, "inf"], [1, 0]]}})),
            ("lln-sweep", dict(PAIR_SET, horizons=[2, 4], function={
                "kind": "constant", "params": {"value": "inf"}})),
            ("simulate", dict(PAIR_SET, n=3, paths=100, function={
                "kind": "constant", "params": {"value": "inf"}})),
        ],
    )
    def test_infinite_function_parameter_is_refused(self, tmp_path, cmd, payload):
        # each used to exit 0, reporting inf values and a NaN delta, abs_error or stderr
        proc = run_process(tmp_path, cmd, payload)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: BAD_FUNCTION: pwl parameters must not be NaN or infinite\n"
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize(
        "cmd, payload, where",
        [
            ("lln-sweep", dict(PAIR_SET, horizons=[2, 4]), "lattice"),
            ("oracle", dict(PAIR_SET, n=3), "lattice"),
            ("simulate", dict(PAIR_SET, n=3, paths=100), "lattice"),
            # eval reads f on the support alone, so put an atom between two knots
            ("eval", {"lattice": {"step": 0.5}, "generators": [[[-1, 0.5], [0.5, 0.5]]]}, "support"),
        ],
    )
    def test_overflowing_function_values_are_refused(self, tmp_path, cmd, payload, where):
        # finite breakpoints whose interpolation overflows to inf, and to NaN in a
        # sum: each used to exit 0 or 3 with nan or inf rows and a RuntimeWarning
        breakpoints = [[-1, 1.7e308], [0, -1.7e308], [1, 1.7e308]]
        function = {"kind": "pwl", "params": {"breakpoints": breakpoints}}
        proc = run_process(tmp_path, cmd, dict(payload, function=function))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: UNBOUNDED_EVAL: pwl[(-1, 1.7e+308), (0, -1.7e+308), (1, 1.7e+308)]"
            f" overflows on the {where}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize(
        "payload, where",  # payload: (command, config), on a command that reads the key
        [
            (("eval", dict(PAIR_SET, lattice=5, function={"kind": "abs"})), "config.lattice"),
            (("eval", dict(PAIR_SET, generators=3, function={"kind": "abs"})), "config.generators"),
            (("eval", dict(PAIR_SET, function="abs")), "config.function"),
            (("oracle", dict(PAIR_SET, function={"kind": "abs"}, n=2, budgets=[1])), "config.budgets"),
            (("capacity", dict(PAIR_SET, n=2, event=None)), "config.event"),
            (("conditions", {"family": "HEAVY", "n_max": 4}), "config.family"),
        ],
    )
    def test_config_shape_is_checked(self, tmp_path, payload, where):
        cmd, payload = payload
        proc = run_process(tmp_path, cmd, payload)
        assert proc.returncode == 1
        assert "BAD_CONFIG" in proc.stderr and where in proc.stderr
        assert "unknown key" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "cmd, payload, code, where",
        [
            ("capacity", dict(PAIR_SET, n="x", event={"kind": "FINAL_GT", "threshold": 0}),
             "BAD_CONFIG", "'n'"),
            ("conditions", {"family": {"name": "HEAVY", "truncation": "x"}, "n_max": 4},
             "BAD_CONFIG", "'family.truncation'"),
            ("simulate", dict(PAIR_SET, function={"kind": "abs"}, n=3, paths="x"),
             "BAD_CONFIG", "'paths'"),
            ("lln-sweep", dict(PAIR_SET, function={"kind": "abs"}, horizons=["a"]),
             "BAD_CONFIG", "'horizons'"),
            ("lln-sweep", dict(PAIR_SET, function={"kind": "abs"}, horizons={}),
             "BAD_CONFIG", "'horizons'"),
            ("oracle", dict(PAIR_SET, function={"kind": "abs"}, n=2, budgets={"states": "x"}),
             "BAD_CONFIG", "'budgets.states'"),
            ("oracle", dict(PAIR_SET, function={"kind": "abs"}, n=2, budgets={"enumeration": 1.5}),
             "BAD_CONFIG", "'budgets.enumeration'"),
            ("simulate", dict(PAIR_SET, function={"kind": "abs"}, n=3, paths=9, policy={"constant": "x"}),
             "BAD_CONFIG", "'policy.constant'"),
            ("simulate", dict(PAIR_SET, function={"kind": "abs"}, n=3, paths=9, seed=-1),
             "BAD_SEED", "seed"),
            ("counterexample exm3", {"K": 100, "lambdas": "10"}, "BAD_CONFIG", "'lambdas'"),
            ("counterexample heavy", {"K": None}, "BAD_CONFIG", "'K'"),
            ("counterexample exm3", {"K": 100, "lambdas": [1], "ms": [0]}, "BAD_FUNCTION", "psi level"),
            ("eval", dict(PAIR_SET, generators=[3], function={"kind": "abs"}),
             "BAD_CONFIG", "generator 0"),
            ("eval", dict(PAIR_SET, generators=[[[0, "x"]]], function={"kind": "abs"}),
             "BAD_CONFIG", "weight must be a decimal number, got 'x'"),
            ("eval", dict(PAIR_SET, generators=[[[[0], 1.0]]], function={"kind": "abs"}),
             "BAD_CONFIG", "point must be a rational number, got [0]"),
            ("eval", dict(PAIR_SET, lattice={"step": 1, "origin": "x"}, function={"kind": "abs"}),
             "BAD_LATTICE", "origin"),
            ("eval", dict(PAIR_SET, function={"kind": "pwl", "params": {"breakpoints": [1, 2]}}),
             "BAD_FUNCTION", "breakpoints"),
            ("eval", dict(PAIR_SET, function={"kind": "tent", "params": [0, 1]}),
             "BAD_CONFIG", "config.function.params"),
            ("capacity", dict(PAIR_SET, n=2, event={"kind": ["FINAL_GT"], "threshold": 0}),
             "UNSUPPORTED_EVENT", "kind"),
            ("capacity", dict(PAIR_SET, n=2, event={"kind": "TAIL_SUM_ABS_GE", "threshold": 1,
                                                   "from_index": "x"}),
             "UNSUPPORTED_EVENT", "from_index"),
            ("capacity", dict(PAIR_SET, n=2, event={"kind": "FINAL_GT", "threshold": True}),
             "BAD_RATIONAL", "True"),
            ("counterexample exm3", {"K": 100, "lambdas": [math.nan]}, "BAD_FUNCTION", "NaN"),
            # keys the command never reads
            ("eval", dict(PAIR_SET, function={"kind": "abs"}, paths=5), "BAD_CONFIG", "unknown key 'paths'"),
            ("eval", dict(PAIR_SET, function={"kind": "abs"}, horizons=[1]),
             "BAD_CONFIG", "unknown key 'horizons'"),
            ("eval", dict(PAIR_SET, function={"kind": "abs"}, event={"kind": "NOPE", "threshold": 1}),
             "BAD_CONFIG", "unknown key 'event'"),
            ("eval", dict(PAIR_SET, function={"kind": "abs"}, budgets={"states": 9}),
             "BAD_CONFIG", "unknown key 'budgets'"),
            ("capacity", dict(PAIR_SET, n=2, event={"kind": "FINAL_GT", "threshold": 0},
                              budgets={"enumeration": 9}),
             "BAD_CONFIG", "unknown key 'enumeration' in config.budgets"),
            ("counterexample heavy", {"K": 50, "budgets": {"enumeration": 9}},
             "BAD_CONFIG", "unknown key 'enumeration' in config.budgets"),
            ("eval", dict(PAIR_SET, function={"kind": "abs", "params": {"lambda": 1}}),
             "BAD_CONFIG", "unknown key 'lambda' in config.function.params"),
            ("eval", dict(PAIR_SET, function={"kind": "tent", "params": {"center": 0, "halfwidth": 1,
                                                                         "height": 2}}),
             "BAD_CONFIG", "unknown key 'height' in config.function.params"),
            ("simulate", dict(PAIR_SET, function={"kind": "abs"}, n=3, paths=9,
                              policy={"constant": 0, "robust": 1}),
             "BAD_CONFIG", "unknown key 'robust' in config.policy"),
            ("counterexample exm3", {"K": 100, "n": 5}, "BAD_CONFIG", "unknown key 'n'"),
            ("counterexample heavy", {"K": 50, "lambdas": [1]}, "BAD_CONFIG", "unknown key 'lambdas'"),
            ("counterexample heavy", {"K": 50, "ms": [1]}, "BAD_CONFIG", "unknown key 'ms'"),
            # a family beside what it excludes, or given to a counterexample, which reads only K
            ("conditions", {"family": {"name": "HEAVY", "truncation": 8}, "lattice": {"step": 1},
                            "n_max": 3}, "BAD_CONFIG", "'lattice' are exclusive"),
            ("counterexample exm3", {"family": {"name": "EXM3", "truncation": 100}},
             "BAD_CONFIG", "unknown key 'family' in config"),
            ("counterexample heavy", {"family": {"name": "HEAVY", "truncation": 100}},
             "BAD_CONFIG", "unknown key 'family' in config"),
            # a NaN is refused by its own positivity check
            ("chebyshev", dict(PAIR_SET, n=2, eps="nan"), "BAD_EPS", "eps"),
            ("ottaviani", dict(PAIR_SET, n=2, alpha="nan", c=0.5), "BAD_ALPHA", "alpha"),
        ],
    )
    def test_malformed_value_is_coded(self, tmp_path, cmd, payload, code, where):
        command, *which = cmd.split()
        proc = run_process(tmp_path, command, payload, *which)
        assert proc.returncode == 1, proc.stderr
        assert f"error: {code}:" in proc.stderr and where in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("policy", [{"constant": 0}, "robust"])
    def test_simulate_horizon_below_one_is_coded(self, tmp_path, policy):
        payload = dict(PAIR_SET, function={"kind": "abs"}, n=-1, paths=9, policy=policy)
        proc = run_process(tmp_path, "simulate", payload)
        assert proc.returncode == 1, proc.stderr
        assert "error: BAD_HORIZON:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("policy", [{"constant": 0}, "robust"])
    def test_simulate_unbounded_function_is_refused(self, tmp_path, policy):
        # both policies are valued by an upper sweep (robust_value, or upper_value
        # on generator g alone), which takes only bounded functions when normalized
        payload = dict(PAIR_SET, function={"kind": "square"}, n=3, paths=9, policy=policy)
        proc = run_process(tmp_path, "simulate", payload)
        assert proc.returncode == 1, proc.stderr
        assert "error: UNBOUNDED_F:" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "simulate.csv").exists()

    def test_simulate_draws_beyond_the_budget_are_refused(self, tmp_path):
        payload = dict(PAIR_SET, function={"kind": "abs"}, n=3, paths=10**12, policy={"constant": 0})
        proc = run_process(tmp_path, "simulate", payload)
        assert proc.returncode == 2, proc.stderr
        assert "error: STATE_BUDGET_EXCEEDED: 3000000000000 draws" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("policy", [{"constant": 1}, "robust"])
    def test_simulate_budget_covers_policy_and_draws(self, tmp_path, capsys, policy):
        n, paths = 6, 40  # levels of 1, 2, .., 7 states: 28 level-states; 240 draws
        for budget, refusal in ((240, None), (239, "240 draws"), (27, "28 level-states")):
            payload = dict(PAIR_SET, function={"kind": "abs"}, n=n, paths=paths, policy=policy,
                           budgets={"states": budget})
            assert run(tmp_path, "simulate", payload) == (2 if refusal else 0)
            err = capsys.readouterr().err
            assert refusal is None or f"STATE_BUDGET_EXCEEDED: {refusal} exceed" in err

    @pytest.mark.parametrize(
        "payload, extra",
        [
            ({}, ["--n", "0"]),
            ({}, ["--K", "0"]),
            ({"K": 0}, []),
            ({"n": 0}, []),
        ],
    )
    def test_heavy_zero_is_not_unset(self, tmp_path, capsys, payload, extra):
        assert run(tmp_path, "counterexample", payload, "heavy", *extra) == 1
        assert "BAD_FAMILY" in capsys.readouterr().err
        assert not (tmp_path / "heavy.csv").exists()

    def test_exm3_zero_truncation_is_not_unset(self, tmp_path, capsys):
        # refused as a truncation, before the lambdas are checked against it
        assert run(tmp_path, "counterexample", {}, "exm3", "--K", "0") == 1
        assert "BAD_FAMILY: truncation must be an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd, payload, extra",
        [
            ("counterexample exm3", {}, ["--K", "1000000000000"]),
            ("conditions", {"family": {"name": "EXM3", "truncation": 10**12}, "n_max": 3}, []),
        ],
    )
    def test_family_truncation_is_charged_to_the_state_budget(self, tmp_path, cmd, payload, extra):
        command, *which = cmd.split()
        proc = run_process(tmp_path, command, payload, *which, *extra)
        assert proc.returncode == 2, proc.stderr
        assert "error: STATE_BUDGET_EXCEEDED: 1000000000000 family indices" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("budget, rows_budget, status", [(32, 128, 0), (31, 127, 2)])
    def test_family_truncation_budget_boundary(self, tmp_path, budget, rows_budget, status):
        # exm3 charges the truncation of 32; conditions also its 4 rows of 32 indices
        family = {"name": "HEAVY", "truncation": 32}
        payload = {"family": family, "n_max": 4, "budgets": {"states": rows_budget}}
        assert run(tmp_path, "conditions", payload) == status
        payload = {"K": 32, "lambdas": [2], "ms": [4], "budgets": {"states": budget}}
        assert run(tmp_path, "counterexample", payload, "exm3") == status

    @pytest.mark.parametrize("n_max", [2**31, 2**63, 10**30])
    def test_conditions_on_a_family_charges_its_rows(self, tmp_path, capsys, n_max):
        # each of the n_max rows scans the 128 indices, refused before the first one
        payload = {"family": {"name": "HEAVY", "truncation": 128}, "n_max": n_max}
        assert run(tmp_path, "conditions", payload) == 2
        shown = n_max * 128 if n_max * 128 < 10**30 else "10**30 or more"
        assert capsys.readouterr().err == f"error: STATE_BUDGET_EXCEEDED: {shown} row indices exceed budget 50000000\n"
        assert not list(tmp_path.glob("conditions.*"))

    def test_square_past_the_doubles_is_unbounded_eval(self, tmp_path, capsys):
        payload = {"lattice": {"step": 1e200}, "generators": [[[-1e200, 0.5], [1e200, 0.5]]],
                   "function": {"kind": "square"}}
        assert run(tmp_path, "eval", payload) == 1
        assert capsys.readouterr().err == "error: UNBOUNDED_EVAL: square overflows on the support\n"

    def test_negative_clamp_level_is_bad_function(self, tmp_path, capsys):
        # every x would be clipped to the empty interval [1, -1]
        assert run(tmp_path, "eval", dict(PAIR_SET, function={"kind": "clamp", "params": {"n": -1}})) == 1
        assert capsys.readouterr().err == "error: BAD_FUNCTION: clamp level must be at least 0\n"
        assert not list(tmp_path.glob("eval.*"))

    @pytest.mark.parametrize("budget, status", [(48, 0), (47, 2)])
    def test_conditions_on_a_set_charges_its_rows(self, tmp_path, capsys, budget, status):
        # 12 rows, each over the 2 + 2 atoms of the pair
        payload = dict(PAIR_SET, n_max=12, budgets={"states": budget})
        assert run(tmp_path, "conditions", payload) == status
        if status:
            err = capsys.readouterr().err
            assert err == "error: STATE_BUDGET_EXCEEDED: 48 row atoms exceed budget 47\n"
            assert not list(tmp_path.glob("conditions.*"))
        else:
            assert len(read_rows(tmp_path, "conditions")) == 12

    def test_family_and_generators_exclusive(self, tmp_path):
        payload = dict(PAIR_SET, family={"name": "HEAVY", "truncation": 5}, n_max=3)
        assert run(tmp_path, "conditions", payload) == 1

    @pytest.mark.parametrize("which", ["exm3", "heavy"])
    def test_family_on_a_counterexample_is_an_unread_key(self, tmp_path, capsys, which):
        payload = {"K": 40, "family": {"name": which.upper(), "truncation": 40}}
        assert run(tmp_path, "counterexample", payload, which) == 1
        assert capsys.readouterr().err == "error: BAD_CONFIG: unknown key 'family' in config\n"
        assert list(tmp_path.glob("*.csv")) == []

    def test_n_flag_on_exm3_is_an_unread_key(self, tmp_path, capsys):
        assert run(tmp_path, "counterexample", {"K": 40}, "exm3", "--n", "5") == 1
        assert "BAD_CONFIG: unknown key 'n' in config" in capsys.readouterr().err
        assert not (tmp_path / "exm3_tail.csv").exists()

    @pytest.mark.parametrize("eps", [1e-160, 1e-300])
    def test_chebyshev_on_an_all_zero_set_holds_at_tiny_eps(self, tmp_path, eps):
        proc = run_process(tmp_path, "chebyshev", {"generators": [[[0, 1.0]]], "n": 4, "eps": eps})
        assert proc.returncode == 0, proc.stderr
        (row,) = read_rows(tmp_path, "chebyshev")
        assert row == {"lhs": "0.0", "rhs": "0.0", "holds": "true"}


class TestPropertyChecks:
    @pytest.mark.parametrize(
        "cmd, payload, target, fake, code",
        [
            ("ottaviani", dict(PAIR_SET, n=2, alpha=2.0, c=0.5), "ottaviani_check",
             OttavianiReport(0.0, 0.5, 1.0, 0.5, VIOLATED), "OTTAVIANI_VIOLATED"),
            ("product-identity", dict(PAIR_SET, n=3, threshold=1.0), "capacity_product_identity",
             ProductIdentityReport(1.0, 0.5, 0.5), "PRODUCT_IDENTITY_MISMATCH"),
            ("chebyshev", dict(PAIR_SET, n=2, eps=1.0), "chebyshev_bound_check",
             ChebyshevCheck(1.0, 0.5, False), "CHEBYSHEV_VIOLATED"),
            ("oracle", dict(PAIR_SET, function={"kind": "abs"}, n=3), "brute_force_value",
             2.0, "ORACLE_MISMATCH"),
            # a NaN delta is no match
            ("product-identity", dict(PAIR_SET, n=3, threshold=1.0), "capacity_product_identity",
             ProductIdentityReport(1.0, math.nan, math.nan), "PRODUCT_IDENTITY_MISMATCH"),
            ("oracle", dict(PAIR_SET, function={"kind": "abs"}, n=3), "brute_force_value",
             math.nan, "ORACLE_MISMATCH"),
        ],
    )
    def test_failed_check_exits_3_after_report_and_summary(
        self, tmp_path, capsys, monkeypatch, cmd, payload, target, fake, code
    ):
        monkeypatch.setattr(cli, target, lambda *args, **kwargs: fake)
        cfg = write_config(tmp_path, "cfg.json", payload)
        report = cmd.replace("-", "_")
        for quiet in ([], ["--quiet"]):
            out_dir = tmp_path / f"out{len(quiet)}"
            assert main([cmd, "--config", cfg, "--out", str(out_dir), *quiet]) == 3
            out, err = capsys.readouterr()
            assert out == "" if quiet else out.startswith(f"{cmd}: ") and out.count("\n") == 1
            assert err.startswith(f"error: {code}: ")
            assert sorted(p.name for p in out_dir.iterdir()) == [f"{report}.csv", f"{report}.json"]


class TestReports:
    def test_json_mirror_round_trips_csv(self, tmp_path):
        payload = dict(PAIR_SET, function={"kind": "identity"})
        run(tmp_path, "eval", payload)
        csv_bytes = (tmp_path / "eval.csv").read_bytes()
        assert csv_from_json(tmp_path / "eval.json").encode() == csv_bytes

    def test_rerun_is_byte_identical(self, tmp_path):
        payload = dict(
            PAIR_SET,
            function={"kind": "tent", "params": {"center": 0.25, "halfwidth": 0.25}},
            horizons=[4, 8],
        )
        run(tmp_path, "lln-sweep", payload)
        first = (tmp_path / "lln_sweep.csv").read_bytes()
        run(tmp_path, "lln-sweep", payload)
        assert (tmp_path / "lln_sweep.csv").read_bytes() == first

    def test_no_temp_files_left_behind(self, tmp_path):
        run(tmp_path, "eval", dict(PAIR_SET, function={"kind": "identity"}))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".eval")]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_reports_get_the_umask_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            run(tmp_path, "eval", dict(PAIR_SET, function={"kind": "identity"}))
        finally:
            os.umask(old)
        for name in ("eval.csv", "eval.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "r.csv").write_text("old\n")
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails while writing
            atomic_write_text(tmp_path / "r.csv", "x\ud800\n")
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert (tmp_path / "r.csv").read_text() == "old\n"

    def test_numpy_scalar_cells_are_their_items(self, tmp_path):
        row = [np.float64(0.1), np.int64(-3), np.bool_(True), np.float32(0.5), np.str_("s")]
        write_report(tmp_path, "r", list("abcde"), [row])
        assert (tmp_path / "r.csv").read_bytes() == b"a,b,c,d,e\n0.1,-3,true,0.5,s\n"
        assert json.loads((tmp_path / "r.json").read_text())["rows"] == [[0.1, -3, True, 0.5, "s"]]
        assert csv_from_json(tmp_path / "r.json").encode() == (tmp_path / "r.csv").read_bytes()

    @pytest.mark.parametrize("cell", [[1], {"a": 1}, Fraction(1, 3), 1j, b"x", np.complex128(1j)])
    def test_other_cells_are_refused_before_any_file_is_touched(self, tmp_path, cell):
        for name in ("r.csv", "r.json"):
            (tmp_path / name).write_text("old\n")
        with pytest.raises(InputError) as e:
            write_report(tmp_path, "r", ["a", "b"], [[1.0, 2], [3.0, cell]])
        assert e.value.code == "BAD_REPORT"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
        assert all((tmp_path / name).read_text() == "old\n" for name in ("r.csv", "r.json"))

    def test_failed_rename_is_bad_out_and_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "r.csv").mkdir()
        with pytest.raises(InputError) as e:
            write_report(tmp_path, "r", ["a"], [[1]])
        assert e.value.code == "BAD_OUT" and str(tmp_path) in e.value.message
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    @pytest.mark.parametrize("blocked", ["r.csv", "r.json", "second write"])
    def test_failed_write_replaces_neither_file(self, tmp_path, monkeypatch, blocked):
        old = {"r.csv": b"old csv\n", "r.json": b"old json\n"}
        for name, data in old.items():
            if name == blocked:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_bytes(data)
        if blocked == "second write":
            write, calls = os.write, []

            def fail_second(fd, data):
                calls.append(fd)
                if len(calls) == 2:
                    raise OSError(28, "No space left on device")
                return write(fd, data)

            monkeypatch.setattr(os, "write", fail_second)
        with pytest.raises(InputError) as e:
            write_report(tmp_path, "r", ["a"], [[1]])
        monkeypatch.undo()
        assert e.value.code == "BAD_OUT"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
        for name, data in old.items():
            assert (tmp_path / name).is_dir() if name == blocked else (tmp_path / name).read_bytes() == data

    def test_numpy_meta_values_are_their_items(self, tmp_path):
        meta = {"k": np.int64(1), "b": np.bool_(True), "f": np.float32(0.5), "x": np.float64(0.1)}
        write_report(tmp_path / "np", "r", ["a"], [[1]], meta)
        write_report(tmp_path / "py", "r", ["a"], [[1]], {"k": 1, "b": True, "f": 0.5, "x": 0.1})
        for name in ("r.csv", "r.json"):
            assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "py" / name).read_bytes()

    @pytest.mark.parametrize(
        "value",
        [Fraction(1, 3), 1j, {1}, np.complex128(1j), np.array([1])],
        ids=["Fraction", "complex", "set", "complex128", "ndarray"],
    )
    def test_other_meta_values_are_refused_before_any_file_is_touched(self, tmp_path, value):
        for name in ("r.csv", "r.json"):
            (tmp_path / name).write_text("old\n")
        with pytest.raises(InputError) as e:
            write_report(tmp_path, "r", ["a"], [[1]], {"k": value})
        assert e.value.code == "BAD_REPORT"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
        assert all((tmp_path / name).read_text() == "old\n" for name in ("r.csv", "r.json"))

    def test_report_bytes(self, tmp_path):
        out = tmp_path / "new" / "dir"
        write_report(out, "r", ["a", "b"], [[0.5, True], [1, "x,y"]], {"k": 1})
        assert (out / "r.csv").read_bytes() == b'a,b\n0.5,true\n1,"x,y"\n'
        want = {"columns": ["a", "b"], "meta": {"k": 1}, "rows": [[0.5, True], [1, "x,y"]]}
        text = json.dumps(want, indent=2, sort_keys=True) + "\n"
        assert (out / "r.json").read_bytes() == text.encode()
        assert sorted(p.name for p in out.iterdir()) == ["r.csv", "r.json"]


class TestInProcessCalls:
    JOBS = [
        ("eval", dict(PAIR_SET, function={"kind": "identity"})),
        ("capacity", dict(PAIR_SET, n=3, event={"kind": "MAX_PARTIAL_ABS_GE", "threshold": 2})),
        ("counterexample", {"K": 50, "n": 5}, "heavy"),
        ("ottaviani", dict(PAIR_SET, n=4, alpha=2.0, c=0.5)),
        ("eval", dict(PAIR_SET, function={"kind": "abs"})),
    ]

    def test_consecutive_calls_write_what_separate_processes_write(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for i, (cmd, payload, *extra) in enumerate(self.JOBS):
            cfg = write_config(tmp_path, f"job{i}.json", payload)
            together, alone = tmp_path / f"together{i}", tmp_path / f"alone{i}"
            assert main([cmd, *extra, "--config", cfg, "--out", str(together), "--quiet"]) == 0
            proc = subprocess.run(
                [sys.executable, "-m", "sublinexp.cli", cmd, *extra]
                + ["--config", cfg, "--out", str(alone), "--quiet"],
                env=dict(os.environ, PYTHONPATH=path),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            names = sorted(p.name for p in alone.iterdir())
            assert names and sorted(p.name for p in together.iterdir()) == names
            for name in names:
                assert (together / name).read_bytes() == (alone / name).read_bytes()

    def test_bad_argv_exits_2_with_usage(self, tmp_path, capsys):
        for argv in (
            ["no-such-command"], ["eval", "--n", "many"], [],
            # flags of keys the command never reads
            ["eval", "--K", "5", "--seed", "3", "--n", "7"], ["eval", "--seed", "3"],
            ["capacity", "--seed", "3"], ["conditions", "--n", "3"], ["lln-sweep", "--n", "3"],
            ["oracle", "--K", "3"], ["counterexample", "exm3", "--seed", "3"],
        ):
            assert run(tmp_path, "eval", dict(PAIR_SET, function={"kind": "identity"})) == 0
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2
            assert "usage: sublinexp" in capsys.readouterr().err


def _table_keys(keys, prefix="", required=True):
    """``{dotted key: required}`` for a command's config keys; a key in a
    section is required only when the section is too."""
    out = {}
    for key, (kind, default) in keys.items():
        need = required and default is ...
        if isinstance(kind, dict):
            out.update(_table_keys(kind, f"{prefix}{key}.", need))
        else:
            out[prefix + key] = need
    return out


def test_readme_config_table_is_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys and flags", 1)[1].split("\n\n")[2]
    rows = {}
    for line in section.splitlines()[2:]:
        command, keys, flags = (cell.strip() for cell in line.strip("|").split("|"))
        keys = [key.strip() for key in keys.split(",")]
        rows[command.strip("`")] = (
            {key.strip("*`"): key.startswith("**") for key in keys},
            [flag.strip(" `") for flag in flags.split(",")],
        )
    table = {
        command: (_table_keys(keys), [f"--{flag}" for flag in cli._FLAGS if flag in keys])
        for command, (_, keys) in cli._COMMANDS.items()
    }
    assert rows == table


def test_readme_function_kinds_are_the_kind_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("Function kinds, each with the `params` keys it takes:", 1)[1]
    kinds, unbounded = text.split(".\n", 2)[:2]
    named = re.findall(r"`(\w+)`(?:\s+\(`\{(.*?)\}`[^)]*\))?", kinds)
    assert {kind: tuple(re.findall(r'"(\w+)"', keys)) for kind, keys in named} == {
        kind: keys for kind, (_, keys) in cli._FUNCTION_KINDS.items()
    }
    assert set(re.findall(r"`(\w+)`", unbounded.split(" are unbounded")[0])) == {
        kind for kind, row in _KINDS.items() if not row.bounded
    }
