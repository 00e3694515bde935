"""Fuzz of the config boundary.

Every shipped ``configs/*.json`` runs with its subcommand.  Replacing any one
key, section, list entry or generator atom by a JSON value of another type
must end in a coded ``EngineError`` (exit 1 or 2), never in an uncaught
exception.  The replacements cannot spell a valid value: strings use letters
that form no number, kind or keyword, and objects only such letter keys; a
rational spelled as a string is replaced by no number.
Apart from them, each generator atom's weight in turn is spelled ``"nan"``,
``"inf"`` or ``"-inf"``, which must end in a coded exit 1.

The schema fuzz draws whole configs from the CLI's own table of the keys each
command reads: keys left out, numbers out of range, values of the wrong type
at any depth, and keys the command never reads.  Sizes are bounded so that no
run allocates much; every run exits 0, 1 or 2, with a coded error on 1 and 2.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sublinexp import cli
from sublinexp.cli import main
from sublinexp.lattice_dp import EVENT_KINDS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SUBCOMMANDS = {
    "capacity.json": ["capacity"],
    "capacity_lower.json": ["capacity"],
    "capacity_thirds.json": ["capacity"],
    "chebyshev.json": ["chebyshev"],
    "chebyshev_wide.json": ["chebyshev"],
    "conditions_heavy.json": ["conditions"],
    "conditions_pair.json": ["conditions"],
    "eval.json": ["eval"],
    "exm3.json": ["counterexample", "exm3"],
    "heavy.json": ["counterexample", "heavy"],
    "oracle.json": ["oracle"],
    "ottaviani.json": ["ottaviani"],
    "product_identity.json": ["product-identity"],
    "simulate_a.json": ["simulate"],
    "simulate_b.json": ["simulate"],
    "simulate_c.json": ["simulate"],
    "simulate_wide.json": ["simulate"],
    "sweep.json": ["lln-sweep"],
}

CODED = re.compile(r"^error: [A-Z][A-Z_]+: ", re.M)


def _paths(node, prefix=()):
    """Every position below the root: object keys and list indices, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


TARGETS = [
    (name, path)
    for name in sorted(SUBCOMMANDS)
    for path in _paths(json.loads((CONFIGS / name).read_text()))
]

_TEXT = st.text(alphabet="xyz", max_size=4)
_SCALARS = {
    "str": _TEXT,
    "number": st.one_of(st.integers(-3, 3), st.floats(-3, 3, allow_nan=False)),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.one_of(_TEXT, st.none()), max_size=2),
    "object": st.dictionaries(_TEXT, st.one_of(_TEXT, st.none()), max_size=2),
}


def _type_of(value) -> str:
    if isinstance(value, bool):
        return "bool"
    # a rational spelled as a string ("-1/3") is read like a number, so neither replaces it
    if isinstance(value, (int, float)) or isinstance(value, str) and re.fullmatch(r"-?\d+(/\d+)?", value):
        return "number"
    return {str: "str", list: "list", dict: "object"}.get(type(value), "null")


def _run(argv, cfg_path, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main([*argv, "--config", str(cfg_path), "--out", str(out), "--quiet"])
    return status, err.getvalue()


def test_every_shipped_config_is_fuzzed():
    assert sorted(SUBCOMMANDS) == sorted(p.name for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_shipped_config_runs(tmp_path, name):
    status, err = _run(SUBCOMMANDS[name], CONFIGS / name, tmp_path)
    assert status == 0, err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_wrongly_typed_value_is_coded(tmp_path_factory, data):
    name, path = data.draw(st.sampled_from(TARGETS), label="target")
    cfg = json.loads((CONFIGS / name).read_text())
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    wrong = sorted(set(_SCALARS) - {_type_of(parent[path[-1]])})
    kind = data.draw(st.sampled_from(wrong), label="type")
    parent[path[-1]] = data.draw(_SCALARS[kind], label="value")
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    status, err = _run(SUBCOMMANDS[name], cfg_path, tmp / "out")
    assert status in (1, 2), (status, err)
    assert CODED.search(err), err


WEIGHTED = sorted(name for name in SUBCOMMANDS if "generators" in json.loads((CONFIGS / name).read_text()))


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", WEIGHTED)
def test_non_finite_weight_is_coded(tmp_path, name, weight):
    cfg = json.loads((CONFIGS / name).read_text())
    for g, generator in enumerate(cfg["generators"]):
        for a in range(len(generator)):
            bad = json.loads(json.dumps(cfg))
            bad["generators"][g][a][1] = weight
            cfg_path = tmp_path / f"cfg{g}_{a}.json"
            cfg_path.write_text(json.dumps(bad))
            status, err = _run(SUBCOMMANDS[name], cfg_path, tmp_path / "out")
            assert status == 1 and CODED.search(err), (g, a, status, err)
    assert not (tmp_path / "out").exists()


# -- floats at the ends of the doubles ----------------------------------------

#: (config, leaf, value, exit status) of the shipped-config floats that overflowed in numpy at
#: 1.7e308, -1.7e308, 1e300 or a subnormal: a tent's |x - c| / h (its value 0 is right), a
#: simulated mean or spread past the doubles (computed again on scaled values, so finite),
#: and EXM3's segment sums at lambda = -1.7e308
OVERFLOWS = [
    *((name, ("function", "params", key), value, 0)
      for name in ("sweep.json", "simulate_a.json", "simulate_wide.json")
      for key, value in (("center", 1.7e308), ("center", -1.7e308), ("halfwidth", 5e-324), ("halfwidth", 1e-320))),
    *(("simulate_c.json", ("function", "params", "breakpoints", i, 1), value, 0)
      for i, value in ((0, 1e300), (0, 1.7e308), (1, 1e300), (1, 1.7e308), (1, -1.7e308), (2, 1e300), (2, 1.7e308))),
    *(("exm3.json", ("lambdas", i), -1.7e308, 1) for i in range(4)),
]


def _no_constant(name):
    raise AssertionError(f"report cell {name}")


@pytest.mark.parametrize("name, path, value, status", OVERFLOWS)
def test_overflow_is_finite_or_coded(tmp_path, name, path, value, status):
    # a RuntimeWarning fails the test (pyproject's filterwarnings)
    cfg = json.loads((CONFIGS / name).read_text())
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    got, err = _run(SUBCOMMANDS[name], cfg_path, tmp_path / "out")
    assert got == status, err
    if status:
        assert err.startswith("error: UNBOUNDED_EVAL: ") and not (tmp_path / "out").exists()
    else:
        reports = list((tmp_path / "out").glob("*.json"))
        assert reports
        for report in reports:  # NaN and +-Infinity are JSON constants
            json.loads(report.read_text(), parse_constant=_no_constant)


# -- schema fuzz ---------------------------------------------------------

_SMALL = st.one_of(st.integers(-3, 6), st.floats(-3, 6, allow_nan=False), st.sampled_from([1e-300, "2"]))

#: the largest value a number key may take, so that every run stays small
_NUMBER_LIMITS = {"n": 6, "n_max": 12, "paths": 2000, "horizons": 64, "K": 400,
                  "family.truncation": 400, "budgets.enumeration": 10**4, "lambdas": 50, "ms": 50}

#: plausible values of the raw keys, so that runs reach the engine
_RAW = {
    "generators": st.sampled_from([
        [[[-1, 0.5], [1, 0.5]], [[-1, 0.25], [1, 0.75]]],
        [[[0, 1.0]]],
        [[[-2, 0.25], [0, 0.5], [2, 0.25]], [[-1, 0.1], [3, 0.9]]],
    ]),
    "lattice.step": st.sampled_from([1, 1, 0.5, "1/2", 0]),
    "lattice.origin": st.integers(-2, 2),
    "function.kind": st.sampled_from(sorted(cli._FUNCTION_KINDS)),
    "event.kind": st.sampled_from(sorted(EVENT_KINDS)),
    "event.threshold": _SMALL,
    "event.from_index": st.integers(-1, 4),
    "side": st.sampled_from(["UPPER", "LOWER", "lower", "SIDE"]),
    "policy": st.one_of(st.just("robust"), st.fixed_dictionaries({"constant": st.integers(-1, 2)})),
    "family.name": st.sampled_from(["EXM3", "HEAVY", "exm3", "heavy", "NOPE"]),
}
_PARAMS = {
    "breakpoints": st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=3),
    "height": _SMALL,
    **{key: _SMALL for key in ("center", "halfwidth", "n", "lambda", "value")},
}
_WRONG = st.one_of(
    st.text(alphabet="xyz", min_size=1, max_size=3), st.booleans(), st.none(),
    st.lists(st.one_of(_TEXT, st.none()), max_size=2),
    st.dictionaries(_TEXT, st.one_of(_TEXT, st.none()), max_size=2),
)
_ALL_KEYS = sorted({key for _, keys in cli._COMMANDS.values() for key in keys} | {"zz"})


def _number(data, name, kind):
    """Mostly in range; one draw in ten below it and one in ten spelled as a string or float."""
    top = _NUMBER_LIMITS.get(name, 10**6 if name.startswith("budgets.") else 5)
    if kind is int:
        odd = [st.integers(-2, 0), st.sampled_from([str(top), 2.0])]
        usual = st.integers(1, top)
    else:
        odd = [st.sampled_from([0.0, -1.0, 1e-300]), st.sampled_from(["2.5", 3])]
        usual = st.floats(0.01, top, allow_nan=False)
    how = data.draw(st.integers(0, 9), label=f"{name} range")  # Hypothesis favours the small draws
    return data.draw(odd[how - 8] if how >= 8 else usual, label=name)


def _draw(data, keys, section=""):
    """A config section for ``keys``: each key left out, of the wrong type, or drawn from its kind."""
    cfg = {}
    for key, (kind, default) in keys.items():
        name = f"{section}.{key}" if section else key
        absent = 10 if default is None else 1  # optional keys without a default are often left out
        how = data.draw(st.sampled_from(["value"] * 20 + ["wrong"] + ["absent"] * absent), label=name)
        if key == "out" or how == "absent":
            continue
        if how == "wrong":
            cfg[key] = data.draw(_WRONG, label=name)
        elif isinstance(kind, dict):
            cfg[key] = _draw(data, kind, name)
        elif kind is int or kind is float:
            cfg[key] = _number(data, name, kind)
        elif isinstance(kind, list):
            size = data.draw(st.sampled_from([1, 2, 3, 1, 2, 3, 0]), label=name)
            cfg[key] = [_number(data, name, kind[0]) for _ in range(size)]
        elif name == "function.params":
            taken = cli._FUNCTION_KINDS.get(str(cfg.get("kind")), (None, ("center",)))[1]
            extra = data.draw(st.sampled_from([()] * 8 + [("height",), ("value",)]), label=name)
            cfg[key] = {k: data.draw(_PARAMS[k], label=k) for k in (*taken, *extra)}
        else:
            cfg[key] = data.draw(_RAW[name], label=name)
    return cfg


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_configs_drawn_from_the_command_table_are_coded(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(cli._COMMANDS)), label="command")
    keys = cli._COMMANDS[command][1]
    cfg = _draw(data, keys)
    unread = None
    if data.draw(st.integers(0, 3), label="add an unread key") == 3:
        unread = data.draw(st.sampled_from([k for k in _ALL_KEYS if k not in keys]), label="unread")
        cfg[unread] = data.draw(st.one_of(_SMALL, _WRONG), label=unread)
    tmp = tmp_path_factory.mktemp("schema")
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    status, err = _run(command.split(), cfg_path, tmp / "out")
    assert status in (0, 1, 2), (status, err)
    assert status == 0 or CODED.search(err), err
    if unread is not None:
        assert (status, err) == (1, f"error: BAD_CONFIG: unknown key {unread!r} in config\n")
