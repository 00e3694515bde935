"""Row-block family scans against the per-row code they replaced.

``conditions`` and ``counterexample exm3`` build their tables in blocks of
rows, each scanned over the whole family at once.  The oracle below is the
per-row code as it stood before: one scalar function per table row, each
scanned on its own.  Every cell must equal the oracle's bit for bit, and the
first error raised must be the oracle's, with the same message.
"""

import importlib.util
import json
import math
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublinexp import BudgetError, EngineError, InputError, ParametricFamily
from sublinexp import clamp, exm3_report, family_expect, peng_condition_report, psi_fn
from sublinexp.counterexamples import Exm3Report
from sublinexp.functions import TestFunction as Function
from sublinexp.functions import _real, blocks, column
from sublinexp.lln import STABLE_TOL, ConditionReport, ConditionRow

ROOT = Path(__file__).resolve().parents[1]

# -- the per-row oracle ---------------------------------------------------


def row_expectations(family, f):
    """E_j[f] for j = 1..truncation of one scalar f."""
    n = family.truncation
    if family.name == "HEAVY":
        ks = np.arange(1, n + 1, dtype=float)
        return (1.0 - 1.0 / ks) * float(f(0.0)) + np.asarray(f(ks)) / ks
    f1 = float(f(1.0))
    js = np.arange(2, n + 1, dtype=float)
    edges = [np.ones_like(js)]
    for x in sorted(x for x in f.knots() if x > 0):
        edges.append(np.clip(np.ceil(x / js), 1, js + 1))
    edges.append(js + 1)
    sums = np.zeros_like(js)
    for lo, hi in zip(edges, edges[1:]):
        sums += (hi - lo) * (f(lo * js) + f((hi - 1) * js)) * 0.5
    out = np.empty(n)
    out[0] = f1
    out[1:] = (1.0 - 1.0 / js**2) * f1 + sums / js**3
    return out


def row_tail_capacity_fraction(family, threshold):
    t = Fraction(threshold)
    n = family.truncation
    if t <= (0 if family.name == "HEAVY" else 1):
        return Fraction(1), 1
    c = min(math.ceil(t), n * n + 1)
    js = np.arange(1, n + 1, dtype=np.int64)
    if family.name == "HEAVY":
        counts, p = (js >= c).astype(np.int64), 1
    else:
        counts, p = np.maximum(0, js + 1 + (-c) // js), 3
    approx = counts / np.arange(1, len(counts) + 1, dtype=float) ** p
    top = approx.max()
    if top == 0:
        return Fraction(0), 1
    near = np.flatnonzero(approx >= top * (1 - 1e-9)).tolist()
    exact = [Fraction(int(counts[i]), (i + 1) ** p) for i in near]
    best = exact.index(max(exact))
    return exact[best], near[best] + 1


def row_family_expect(family, f, values=None):
    """(sup value, first attaining index), or TRUNCATION_TOO_SMALL."""
    if values is None:
        values = row_expectations(family, f)
    running = np.maximum.accumulate(values)
    if len(running) >= 10 and np.all(np.diff(running[-10:]) > 0):
        raise BudgetError(
            "TRUNCATION_TOO_SMALL",
            f"running max still strictly increasing over the last 10 of "
            f"{family.truncation} indices for {f.describe()}",
        )
    arg = int(np.argmax(values)) + 1
    return float(values[arg - 1]), arg


def row_condition_report(family, n_max):
    warnings, rows = [], []
    for n in range(1, n_max + 1):
        tail, arg = row_tail_capacity_fraction(family, n)
        if family.truncation_binding_for_tail(n, arg):
            warnings.append(f"FAMILY_TRUNCATION_WARNING: tail sup at n={n} limited by truncation")
        values = row_expectations(family, clamp(n))
        upper = row_family_expect(family, clamp(n), values)[0]
        psi_value = row_family_expect(family, psi_fn(n))[0]
        rows.append(ConditionRow(n, float(n * tail), psi_value, float(np.min(values)), upper))
    nv = np.array([r.nV_tail for r in rows])
    peak = float(np.max(nv))
    verdict = "satisfied" if peak == 0.0 or nv[-1] <= 0.5 * peak else "violated"
    uppers = [r.mu_upper_n for r in rows[-3:]]
    lowers = [r.mu_lower_n for r in rows[-3:]]
    return ConditionReport(
        rows,
        f"condition (i) {verdict} (observed over n <= {n_max})",
        uppers[-1] if max(uppers) - min(uppers) <= STABLE_TOL else None,
        lowers[-1] if max(lowers) - min(lowers) <= STABLE_TOL else None,
        family.describe(),
        tuple(warnings),
    )


def row_exm3_report(truncation, lambdas, ms):
    """Every λ, then every m, read in list order before any row is scanned."""
    fam = ParametricFamily("EXM3", truncation)
    excess = [Function("abs_excess", (_real(lam, "abs_excess lambda"),)) for lam in lambdas]
    psis = [psi_fn(m) for m in ms]
    lambdas = [f.params[0] for f in excess]
    if lambdas and truncation < 4 * max(lambdas):
        raise BudgetError(
            "TRUNCATION_TOO_SMALL",
            f"truncation {truncation} below 4 * max(lambda) = {4 * max(lambdas):g}",
        )
    warnings, lambda_rows, m_rows = [], [], []
    for f in excess:
        value, _ = row_family_expect(fam, f)
        lambda_rows.append((f.params[0], value))
    for f in psis:
        m = f.params[0]
        psi_val, _ = row_family_expect(fam, f)
        tail, arg = row_tail_capacity_fraction(fam, m)
        if fam.truncation_binding_for_tail(m, arg):
            warnings.append(f"FAMILY_TRUNCATION_WARNING: tail sup at m={m} hits truncation")
        m_rows.append((m, psi_val, m * float(tail)))
    return Exm3Report(lambda_rows, m_rows, tuple(warnings))


# -- comparison helpers ---------------------------------------------------


def hexed(value):
    """``value`` with every float spelled as its hex digits, containers walked."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return hexed(astuple(value))
    return value


def outcome(fn, *args):
    """What ``fn(*args)`` returns, spelled in hex, or the error it raises."""
    try:
        return hexed(fn(*args))
    except EngineError as e:
        return type(e).__name__, e.code, e.message


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


# -- block scans, cell by cell --------------------------------------------

KINDS = ("clamp", "psi", "abs_excess")


@st.composite
def block_cases(draw):
    """A family, a kind and 1-40 row parameters, knots past j^2 and psi_1 included."""
    name = draw(st.sampled_from(["EXM3", "HEAVY"]))
    T = draw(st.integers(1, 2000))
    top = T * T + 5 if name == "EXM3" else T + 5
    kind = draw(st.sampled_from(KINDS))
    if kind == "psi":
        level = st.one_of(st.just(1), st.integers(1, top))
    elif kind == "clamp":
        level = st.one_of(st.integers(1, top).map(float), st.floats(0.0, top + 5.0))
    else:
        level = st.one_of(st.integers(0, top).map(float), st.floats(-5.0, top + 5.0), st.floats(-5.0, 0.0))
    return ParametricFamily(name, T), kind, draw(st.lists(level, min_size=1, max_size=40))


def scalar(kind, p):
    return psi_fn(p) if kind == "psi" else Function(kind, (p,))


class TestBlockScan:
    @settings(max_examples=150, deadline=None)
    @given(block_cases())
    @example((ParametricFamily("EXM3", 50), "abs_excess", [-4.3, 3.0, 0.0, 7.5]))  # negative λ among positive
    @example((ParametricFamily("EXM3", 30), "psi", [1, 2, 900, 901, 1000]))  # psi_1, past T^2
    def test_every_cell_is_its_rows_scalar_scan(self, case):
        fam, kind, params = case
        f = column(kind, params)
        block = fam.per_index_expectations(f)
        assert block.shape == (len(params), fam.truncation)
        fs = [scalar(kind, p) for p in params]
        for r, g in enumerate(fs):
            assert bits(block[r]) == bits(row_expectations(fam, g)), (r, g.describe())
            assert bits(fam.per_index_expectations(g)) == bits(block[r])
        # the escape check runs per row (T < 10 has none); the first escaping row is named
        want = [outcome(row_family_expect, fam, g) for g in fs]
        errors = [w for w in want if w[0] == "BudgetError"]
        got = outcome(family_expect, fam, f)
        assert got == (errors[0] if errors else [list(cells) for cells in zip(*want)])

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["EXM3", "HEAVY"]),
        st.integers(1, 2000),
        st.lists(
            st.one_of(
                st.integers(-3, 4_000_010),
                st.fractions(-3, 4_000_010, max_denominator=7),
                st.floats(-3.0, 4.1e6),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_every_tail_row_is_its_scalar_pick(self, name, T, thresholds):
        fam = ParametricFamily(name, T)
        want = [row_tail_capacity_fraction(fam, t) for t in thresholds]
        assert fam.tail_capacity_fraction(thresholds) == want
        assert [fam.tail_capacity_fraction(t) for t in thresholds] == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 10).flatmap(  # the number of indices before the last 10
            lambda k: st.lists(
                st.tuples(
                    st.lists(st.integers(0, 20), min_size=k, max_size=k),
                    st.integers(0, 20),
                    st.lists(st.integers(0, 2), min_size=9, max_size=9),  # steps across the last 10
                ),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_escape_check_is_the_running_max_test(self, rows):
        # a last window that climbs, stalls, or climbs from below an earlier maximum
        values = np.array([head + list(start + np.cumsum([0] + steps)) for head, start, steps in rows], float)
        fam = ParametricFamily("EXM3", values.shape[1])
        levels = list(range(1, len(rows) + 1))
        want = [outcome(row_family_expect, fam, clamp(n), v) for n, v in zip(levels, values)]
        errors = [w for w in want if w[0] == "BudgetError"]
        with mock.patch.object(ParametricFamily, "per_index_expectations", lambda self, f: values):
            got = outcome(family_expect, fam, column("clamp", levels))
        assert got == (errors[0] if errors else [list(cells) for cells in zip(*want)])

    def test_one_row_blocks_past_two_to_the_sixteen(self):
        fam = ParametricFamily("EXM3", 70_000)
        assert [list(b) for b in blocks([10, 100, 1000], fam.truncation)] == [[10], [100], [1000]]
        assert [list(b) for b in blocks(range(5), 2**15)] == [
            [0, 1], [2, 3], [4],
        ]
        for kind, params in (("clamp", [1.0, 5e3, 4.9e9]), ("psi", [1, 4_900_000_000, 77]),
                             ("abs_excess", [0.0, 99.5, 7e4])):
            block = fam.per_index_expectations(column(kind, params))
            for r, p in enumerate(params):
                assert bits(block[r]) == bits(row_expectations(fam, scalar(kind, p))), (kind, p)
        args = (70_000, [10, 100, 1000], [10, 100, 1000])
        assert outcome(exm3_report, *args) == outcome(row_exm3_report, *args)

    def test_non_finite_column_is_bad_function(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InputError) as e:
                column("clamp", [1.0, bad, 3.0])
            assert e.value.code == "BAD_FUNCTION"
            with pytest.raises(InputError) as e:
                Function("psi", (np.array([[2.0], [bad]]),))
            assert e.value.code == "BAD_FUNCTION"

    def test_a_column_broadcasts_one_row_per_parameter(self):
        x = np.array([-3.0, 0.5, 4.0])
        f = column("clamp", [1, 2.5])
        assert bits(f(x)) == bits(np.stack([clamp(1)(x), clamp(2.5)(x)]))
        assert bits(column("psi", [1, 7])(6.5)) == bits([[psi_fn(1)(6.5)], [psi_fn(7)(6.5)]])


# -- whole reports ----------------------------------------------------------


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def _report_cases():
    """The two shipped family configs, then every family table of the bench pools."""
    cases = [
        ("conditions", json.loads((ROOT / "configs" / "conditions_heavy.json").read_text())),
        ("exm3", json.loads((ROOT / "configs" / "exm3.json").read_text())),
    ]
    workloads = _bench_workloads()
    for workload in ("family_scan", "small_jobs"):
        for job in workloads.pool(workload):
            if job.argv[0] == "conditions" and "family" in job.config:
                cases.append(("conditions", job.config))
            elif job.argv[:2] == ("counterexample", "exm3"):
                cases.append(("exm3", job.config))
    return cases


class TestReportsMatchTheRowOracle:
    @pytest.mark.parametrize("kind, cfg", _report_cases())
    def test_report_cells_and_warnings(self, kind, cfg):
        if kind == "conditions":
            fam = ParametricFamily(cfg["family"]["name"], cfg["family"]["truncation"])
            got = outcome(peng_condition_report, fam, cfg["n_max"])
            assert got == outcome(row_condition_report, fam, cfg["n_max"])
        else:
            args = (cfg["K"], [float(x) for x in cfg["lambdas"]], cfg["ms"])
            got = outcome(exm3_report, *args)
            assert got == outcome(row_exm3_report, *args)
        assert got[0] != "BudgetError"


def escaping_rows(monkeypatch, **levels):
    """Make the rows of ``kind`` at the given parameters escape: their per-index
    values climb strictly to the truncation."""
    scan = ParametricFamily.per_index_expectations

    def patched(self, f):
        values = scan(self, f)
        rows = np.atleast_2d(values).copy()
        rows[np.isin(np.ravel(f.params[0]), levels.get(f.kind, []))] = np.arange(self.truncation)
        return rows.reshape(np.shape(values))

    monkeypatch.setattr(ParametricFamily, "per_index_expectations", patched)


class TestFirstErrorOrder:
    @pytest.mark.parametrize(
        "truncation, n_max, clamps, psis, named",
        [
            (64, 8, [3], [3], "clamp(3)"),  # one n: the clamp is checked first
            (64, 8, [5], [3, 6], "psi(3)"),  # the smallest n wins
            (64, 8, [2, 7], [4], "clamp(2)"),
            (2**15, 6, [4], [3], "psi(3)"),  # two rows per block, both in the second
            (2**15, 6, [5], [2], "psi(2)"),  # different blocks
            (2**15, 6, [2], [6], "clamp(2)"),
        ],
    )
    @pytest.mark.parametrize("name", ["EXM3", "HEAVY"])
    def test_conditions_escape_at_the_smallest_n(
        self, monkeypatch, name, truncation, n_max, clamps, psis, named
    ):
        escaping_rows(monkeypatch, clamp=clamps, psi=psis)
        with pytest.raises(BudgetError) as e:
            peng_condition_report(ParametricFamily(name, truncation), n_max)
        assert e.value.code == "TRUNCATION_TOO_SMALL"
        assert e.value.message == (
            f"running max still strictly increasing over the last 10 of {truncation} "
            f"indices for {named}"
        )

    @pytest.mark.parametrize(
        "lambdas, ms, code, where",
        [
            ([10.0], [5], "TRUNCATION_TOO_SMALL", "abs_excess(10)"),  # λ rows before m rows
            ([10.0], [0], "BAD_FUNCTION", "got 0"),  # every λ and m read before any row
            ([1.0, 10.0, math.nan], [5], "BAD_FUNCTION", "NaN"),
            ([math.nan, 10.0], [5], "BAD_FUNCTION", "NaN"),
            ([math.nan, 20.0], [5], "BAD_FUNCTION", "NaN"),  # before the 4·max λ check, in either order
            ([20.0, math.nan], [5], "BAD_FUNCTION", "NaN"),
            ([1.0], [3, 0, 2.5], "BAD_FUNCTION", "got 0"),
            ([1.0], [3, 2], None, None),
            (["a"], [5], "BAD_FUNCTION", "'a'"),
        ],
    )
    def test_exm3_first_error(self, lambdas, ms, code, where):
        # at T = 4·λ = 40 the λ = 10 row still climbs across the last 10 indices
        got = outcome(exm3_report, 40, lambdas, ms)
        assert got == outcome(row_exm3_report, 40, lambdas, ms)
        if code is None:
            assert got[0] != "BudgetError" and got[0] != "InputError"
        else:
            assert got[1] == code and where in got[2]

    def test_exm3_overflowing_row_before_an_escaping_one(self, monkeypatch):
        # UNBOUNDED_EVAL, an input error (exit 1), before TRUNCATION_TOO_SMALL (exit 2) in one block
        escaping_rows(monkeypatch, abs_excess=[1.0])
        with pytest.raises(InputError) as e:
            exm3_report(100, [1.0, -1.7e308], [3])
        assert e.value.code == "UNBOUNDED_EVAL"
        with pytest.raises(BudgetError):
            exm3_report(100, [1.0, 2.0], [3])

    def test_exm3_escaping_psi_row_before_a_refused_m(self, monkeypatch):
        # the refused m wins wherever it stands; without it the escaping row is named
        escaping_rows(monkeypatch, psi=[4])
        for ms in ([3, 4, 0], [3, 0, 4]):
            with pytest.raises(InputError) as e:
                exm3_report(100, [1.0], ms)
            assert e.value.code == "BAD_FUNCTION"
        with pytest.raises(BudgetError) as e:
            exm3_report(100, [1.0], [3, 4])
        assert e.value.message.endswith("for psi(4)")
