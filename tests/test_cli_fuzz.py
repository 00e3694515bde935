"""Fuzz of the config boundary: one wrongly typed value in a shipped config.

Every shipped ``configs/*.json`` runs with its subcommand.  Replacing any one
key, section, list entry or generator atom by a JSON value of another type
must end in a coded ``EngineError`` (exit 1 or 2), never in an uncaught
exception.  The replacements cannot spell a valid value: strings use letters
that form no number, kind or keyword, and objects only such letter keys.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sublinexp.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SUBCOMMANDS = {
    "capacity.json": ["capacity"],
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
    if isinstance(value, (int, float)):
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
