"""Every package name the benchmark's span recorder wraps still resolves.

``bench/spans.py`` looks its targets up by name when a traced run starts,
so a renamed or deleted function breaks ``--trace 1`` with an
``AttributeError`` that no other test would see.  This only imports
``bench/spans.py``; it installs nothing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sublinexp.cli  # noqa: F401  (the recorder finds its bindings among loaded modules)
from sublinexp import ParametricFamily

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in spans._FUNCTIONS])
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("method", spans._METHODS)
def test_wrapped_family_method_resolves(method):
    assert callable(getattr(ParametricFamily, method))


def test_recorder_finds_every_target():
    recorder = spans.Recorder()
    wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _, _ in recorder._targets}
    for module, attr, _, _ in spans._FUNCTIONS:
        assert (module, attr) in wrapped
    for method in spans._METHODS:
        assert ("ParametricFamily", method) in wrapped
