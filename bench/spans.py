"""Outside-in span recorder for the traced run.

The package has no tracing of its own, so the benchmark wraps the public
functions of each layer from outside: every ``sublinexp.*`` module binding
of a wrapped function is replaced (``from .x import f`` copies included),
as are the ``ParametricFamily`` scan methods and ``TestFunction.__call__``
(for the points count only).  Spans are kept in memory and written out
when the run ends.

``LAYERS`` is the layer map: each span name with the end-to-end metrics it
should move and the workload on which it should move them.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# span name -> (end-to-end metrics it should move, workload)
LAYERS: Dict[str, Tuple[Tuple[str, ...], str]] = {}
for _name in (
    "lattice_dp.robust_value",
    "lattice_dp.policy_value",
    "lattice_dp.reachable_masks",
    "montecarlo.simulate",
    "montecarlo.constant_policy",
):
    LAYERS[_name] = (("jobs_per_s", "job_s.p90", "peak_rss_mb"), "dp_policy")
for _name in (
    "lattice_dp.capacity_final",
    "lattice_dp.capacity_flag",
    "inequalities.ottaviani_check",
    "inequalities.capacity_product_identity",
    "lln.chebyshev_bound_check",
):
    LAYERS[_name] = (("job_s.p50", "job_s.p90"), "path_capacity")
for _name in (
    "counterexamples.tail_fractions",
    "counterexamples.per_index_expectations",
    "counterexamples.family_expect",
    "counterexamples.heavy_lln_value",
    "lln.peng_condition_report",
):
    LAYERS[_name] = (("jobs_per_s", "job_s.p50"), "family_scan")
for _name in (
    "cli.main",
    "cli.load_config",
    "ambiguity.validate_ambiguity_set",
    "ambiguity.sublinear_expect",
    "reports.write_report",
    "oracle.brute_force_value",
):
    LAYERS[_name] = (("jobs_per_s", "job_s.p50"), "small_jobs")

# counts recorded at the same boundaries: name -> (unit, workload)
COUNTS = {
    "lattice_dp.robust_value.level_states": ("count/job", "dp_policy"),
    "montecarlo.simulate.draws": ("count/job", "dp_policy"),
    "functions.points_evaluated": ("count/job", "family_scan"),
    "reports.bytes_written": ("B/job", "small_jobs"),
}


def _capacity_span(args, kwargs) -> str:
    event = args[2] if len(args) > 2 else kwargs["event"]
    return "lattice_dp.capacity_flag" if event.kind.startswith("MAX_") else "lattice_dp.capacity_final"


def _count_level_states(counts, args, kwargs, result):
    counts["lattice_dp.robust_value.level_states"] += result.state_count


def _count_draws(counts, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    counts["montecarlo.simulate.draws"] += config.paths * config.n


def _count_bytes(counts, args, kwargs, result):
    counts["reports.bytes_written"] += sum(Path(p).stat().st_size for p in result)


# (module, attribute, span name or namer, counter)
_FUNCTIONS = [
    ("sublinexp.lattice_dp", "robust_value", None, _count_level_states),
    ("sublinexp.lattice_dp", "policy_value", None, None),
    ("sublinexp.lattice_dp", "reachable_masks", None, None),
    ("sublinexp.lattice_dp", "capacity", _capacity_span, None),
    ("sublinexp.montecarlo", "simulate", None, _count_draws),
    ("sublinexp.montecarlo", "constant_policy", None, None),
    ("sublinexp.inequalities", "ottaviani_check", None, None),
    ("sublinexp.inequalities", "capacity_product_identity", None, None),
    ("sublinexp.lln", "chebyshev_bound_check", None, None),
    ("sublinexp.counterexamples", "family_expect", None, None),
    ("sublinexp.counterexamples", "heavy_lln_value", None, None),
    ("sublinexp.lln", "peng_condition_report", None, None),
    ("sublinexp.cli", "main", None, None),
    ("sublinexp.cli", "load_config", None, None),
    ("sublinexp.ambiguity", "validate_ambiguity_set", None, None),
    ("sublinexp.ambiguity", "sublinear_expect", None, None),
    ("sublinexp.reports", "write_report", None, _count_bytes),
    ("sublinexp.oracle", "brute_force_value", None, None),
]
_METHODS = ["tail_fractions", "per_index_expectations"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    job: int
    outer: bool  # no enclosing span of the same name


class Recorder:
    """Collects spans and counts while installed; uninstalling restores every binding.

    Create it after ``sublinexp.cli`` is imported: the bindings to replace
    are found once, here.
    """

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        self.job = -1
        self._stack: List[int] = []
        self._active: Dict[str, int] = {}
        self._targets: List[Tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        modules = [m for n, m in sys.modules.items() if n == "sublinexp" or n.startswith("sublinexp.")]
        for module_name, attr, namer, counter in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            short = module_name.split(".", 1)[1]
            wrapper = self._wrap(original, namer or f"{short}.{attr}", counter)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._targets.append((module, key, original, wrapper))
        family = sys.modules["sublinexp.counterexamples"].ParametricFamily
        for method in _METHODS:
            original = getattr(family, method)
            self._targets.append((family, method, original, self._wrap(original, f"counterexamples.{method}", None)))
        test_function = sys.modules["sublinexp.functions"].TestFunction
        call = test_function.__call__
        counts = self.counts

        def counted_call(f, x):
            counts["functions.points_evaluated"] += np.size(x)
            return call(f, x)

        self._targets.append((test_function, "__call__", call, counted_call))

    def _wrap(self, fn: Callable, name, counter) -> Callable:
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth = active.get(span, 0)
            active[span] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[span] = depth
                stack.pop()
                spans[index] = Span(span, start, end, parent, self.job, depth == 0)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def layer_totals(self, scale: List[float]) -> Dict[str, Tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, calls).

        Each span's seconds are multiplied by ``scale[job]`` of its job.
        """
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.end - span.start
        totals = {name: [0.0, 0.0, 0] for name in LAYERS}
        for span, child in zip(self.spans, children):
            entry = totals.setdefault(span.name, [0.0, 0.0, 0])
            duration = span.end - span.start
            factor = scale[span.job]
            if span.outer:
                entry[0] += duration * factor
            entry[1] += (duration - child) * factor
            entry[2] += 1
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path: Path, job_ids: List[str]):
        """Spans as JSON; ``job`` indexes ``jobs``, the pool job ids in run order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "job"],
            "jobs": job_ids,
            "spans": [[s.name, s.start, s.end, s.parent, s.job] for s in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
