"""Command-line surface: config ingestion, subcommand dispatch, report emission.

A run is described by a single JSON config (versionable artifact) plus a
few flag overrides.  Each subcommand in ``_COMMANDS`` reads the config and
returns an :class:`Outcome`; :func:`main` alone writes its CSV reports with
JSON mirrors under ``--out``, prints its one-line summary and raises its
failed property check.  Exit statuses: 0 success, 1 validation error,
2 budget error, 3 property violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ambiguity import AmbiguitySet, sublinear_expect, validate_ambiguity_set
from .counterexamples import (
    RAMP_DOWN, ParametricFamily, exm3_report, heavy_lln_lower_bound, heavy_lln_value,
)
from .errors import EngineError, InputError, PropertyViolation, check_budget
from .functions import (
    TestFunction, _real, abs_excess, clamp, constant, piecewise_linear, psi_fn, tent,
)
from .inequalities import VIOLATED, capacity_product_identity, ottaviani_check
from .lattice_dp import (
    DEFAULT_STATE_BUDGET, PathEvent, capacity, policy_value, robust_value, upper_value,
)
from .lln import lln_sweep, maximal_dist_value, peng_condition_report, chebyshev_bound_check
from .montecarlo import SimConfig, constant_policy, simulate
from .oracle import DEFAULT_ENUMERATION_BUDGET, brute_force_value
from .reports import write_report

_TOP_KEYS = {
    "lattice", "generators", "family", "function", "horizons", "n", "n_max", "event",
    "side", "alpha", "c", "eps", "threshold", "seed", "paths", "policy", "lambdas", "ms",
    "K", "budgets", "out",
}


_SECTION_KEYS = {
    "lattice": {"step", "origin"},
    "family": {"name", "truncation"},
    "function": {"kind", "params"},
    "event": {"kind", "threshold", "from_index"},
    "budgets": {"states", "enumeration"},
}


def _check_keys(obj: Dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise InputError("BAD_CONFIG", f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InputError("BAD_CONFIG", f"unknown key {unknown[0]!r} in {where}")


def load_config(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as e:
        raise InputError("BAD_CONFIG", f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError("BAD_CONFIG", f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise InputError("BAD_CONFIG", "config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    for key, allowed in _SECTION_KEYS.items():
        if key in cfg:
            _check_keys(cfg[key], allowed, f"config.{key}")
    if not isinstance(cfg.get("generators", []), list):
        raise InputError("BAD_CONFIG", "config.generators must be a JSON list")
    for key in cfg.get("budgets", {}):  # checked here, so commands without a budget refuse it too
        _number(cfg, f"budgets.{key}")
    return cfg


def build_set(cfg: Dict) -> AmbiguitySet:
    if "generators" not in cfg:
        raise InputError("BAD_CONFIG", "config key 'generators' is required here")
    lattice = cfg.get("lattice", {})
    return validate_ambiguity_set(
        {"step": lattice.get("step", 1), "origin": lattice.get("origin", 0),
         "generators": cfg["generators"]}
    )


def build_family(cfg: Dict) -> ParametricFamily:
    fam = cfg.get("family")
    if not fam:
        raise InputError("BAD_CONFIG", "config key 'family' is required here")
    if "name" not in fam or "truncation" not in fam:
        raise InputError("BAD_CONFIG", "config.family needs 'name' and 'truncation'")
    family = ParametricFamily(str(fam["name"]).upper(), _number(cfg, "family.truncation"))
    _charge_truncation(cfg, family.truncation)
    return family


def build_source(cfg: Dict):
    if "family" in cfg:
        if "generators" in cfg:
            raise InputError(
                "BAD_CONFIG", "config keys 'family' and 'generators' are exclusive"
            )
        return build_family(cfg)
    return build_set(cfg)


#: function kind -> (constructor, the ``params`` keys it takes in order)
_FUNCTION_KINDS = {
    "pwl": (piecewise_linear, ("breakpoints",)),
    "tent": (tent, ("center", "halfwidth")),
    "clamp": (clamp, ("n",)),
    "psi": (psi_fn, ("n",)),
    "abs_excess": (abs_excess, ("lambda",)),
    "constant": (constant, ("value",)),
    **{kind: (functools.partial(TestFunction, kind), ()) for kind in ("abs", "square", "identity")},
}


def build_function(cfg: Dict) -> TestFunction:
    spec = cfg.get("function")
    if not spec:
        raise InputError("BAD_CONFIG", "config key 'function' is required here")
    kind = spec.get("kind")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise InputError("BAD_CONFIG", "config.function.params must be a JSON object")
    if not isinstance(kind, str) or kind not in _FUNCTION_KINDS:
        raise InputError("BAD_CONFIG", f"config.function.kind {kind!r} is not recognized")
    make, keys = _FUNCTION_KINDS[kind]
    missing = [key for key in keys if key not in params]
    if missing:
        raise InputError(
            "BAD_CONFIG", f"config.function.params missing {missing[0]!r} for kind {kind!r}"
        )
    return make(*(params[key] for key in keys))


def build_event(cfg: Dict) -> PathEvent:
    spec = cfg.get("event")
    if not spec:
        raise InputError("BAD_CONFIG", "config key 'event' is required here")
    if "kind" not in spec or "threshold" not in spec:
        raise InputError("BAD_CONFIG", "config.event needs 'kind' and 'threshold'")
    return PathEvent(spec["kind"], spec["threshold"], spec.get("from_index"))


_ABSENT = object()


def _as_number(value, key: str, kind):
    """``value`` as a float, or with ``kind=int`` as an int (integral values only).

    Ints, floats and numeric strings are numbers; booleans, null, lists and
    objects are not, and end in BAD_CONFIG naming ``key``.
    """
    x = _real(value, f"config key {key!r}", "BAD_CONFIG")
    if kind is float:
        return x
    if not x.is_integer():
        raise InputError("BAD_CONFIG", f"config key {key!r} must be an integer, got {value!r}")
    return value if isinstance(value, int) else int(x)


def _lookup(cfg: Dict, key: str, required: bool, what: str):
    """The raw value at the dotted ``key``, or ``_ABSENT``."""
    *sections, last = key.split(".")
    for section in sections:
        cfg = cfg.get(section, {})
    if required and last not in cfg:
        raise InputError("BAD_CONFIG", f"config key {key!r} is required for {what}")
    return cfg.get(last, _ABSENT)


def _number(cfg: Dict, key: str, kind=int, default=_ABSENT, what: str = ""):
    """The config scalar at the dotted ``key``; without a ``default`` it is required."""
    value = _lookup(cfg, key, default is _ABSENT, what)
    return default if value is _ABSENT else _as_number(value, key, kind)


def _numbers(cfg: Dict, key: str, kind=int, default=_ABSENT, what: str = ""):
    """The non-empty list of config scalars at ``key``; without a ``default`` it is required."""
    values = _lookup(cfg, key, default is _ABSENT, what)
    if values is _ABSENT:
        return default
    if not isinstance(values, list) or not values:
        raise InputError("BAD_CONFIG", f"config key {key!r} must be a non-empty list, got {values!r}")
    return [_as_number(v, key, kind) for v in values]


def _state_budget(cfg: Dict) -> int:
    return _number(cfg, "budgets.states", default=DEFAULT_STATE_BUDGET)


def _enum_budget(cfg: Dict) -> int:
    return _number(cfg, "budgets.enumeration", default=DEFAULT_ENUMERATION_BUDGET)


def _first(*values):
    """The first value that is not None: 0 is a value, not an unset option."""
    return next((v for v in values if v is not None), None)


def _out_dir(cfg: Dict) -> Path:
    out = cfg.get("out", ".")
    if not isinstance(out, str):
        raise InputError("BAD_CONFIG", f"config key 'out' must be a path, got {out!r}")
    return Path(out or ".")


def _charge_truncation(cfg: Dict, truncation: int) -> int:
    """Charge a family truncation against ``budgets.states``: every scan holds
    arrays of one entry per generator index."""
    return check_budget(truncation, _state_budget(cfg), "family indices")


# -- subcommands ---------------------------------------------------------


class Outcome(NamedTuple):
    """What a subcommand hands :func:`main`: its reports as ``(name, columns,
    rows, meta)``, a one-line summary, and the ``(code, message)`` of a failed
    property check, or None."""

    reports: List[Tuple[str, List[str], list, Dict]]
    summary: str
    failure: Optional[Tuple[str, str]] = None


def _by_name(name: str, columns: List[str], items, meta: Dict):
    """A report with one row per item, each column read as the item's attribute."""
    return name, columns, [[getattr(item, c) for c in columns] for item in items], meta


def _cmd_eval(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    sv = sublinear_expect(set_, f)
    meta = {"set": set_.describe(), "function": f.describe()}
    return Outcome(
        [_by_name("eval", ["upper", "lower", "argmax_upper", "argmin_lower"], [sv], meta)],
        f"eval: upper {sv.upper:.12g} lower {sv.lower:.12g}",
    )


def _cmd_capacity(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    n = _number(cfg, "n", what="capacity")
    event = build_event(cfg)
    side = str(cfg.get("side", "UPPER")).upper()
    value = capacity(set_, n, event, side, state_budget=_state_budget(cfg))
    row = [n, event.describe(), side, value]
    return Outcome(
        [("capacity", ["n", "event", "side", "value"], [row], {"set": set_.describe()})],
        f"capacity: {side} {event.describe()} at n={n} -> {value:.12g}",
    )


def _cmd_lln_sweep(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    horizons = _numbers(cfg, "horizons", what="lln-sweep")
    report = lln_sweep(set_, f, horizons, state_budget=_state_budget(cfg))
    meta = {"set": report.set_description, "function": report.function_description}
    columns = ["n", "dp_value", "limit_value", "abs_error"]
    last = report.rows[-1]
    return Outcome(
        [_by_name("lln_sweep", columns, report.rows, meta)],
        f"lln-sweep: abs_error at n={last.n} is {last.abs_error:.6g}",
    )


def _cmd_conditions(cfg, args) -> Outcome:
    source = build_source(cfg)
    n_max = _number(cfg, "n_max", what="conditions")
    report = peng_condition_report(source, n_max)
    meta = {
        "source": report.source_description,
        "condition_i_trend": report.condition_i_trend,
        "mu_upper_limit": report.mu_upper_limit,
        "mu_lower_limit": report.mu_lower_limit,
        "warnings": sorted(set(report.warnings)),
    }
    columns = ["n", "nV_tail", "psi_expect", "mu_lower_n", "mu_upper_n"]
    return Outcome(
        [_by_name("conditions", columns, report.rows, meta)],
        f"conditions: {report.condition_i_trend}",
    )


def _cmd_ottaviani(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    n = _number(cfg, "n", what="ottaviani")
    alpha = _number(cfg, "alpha", float, what="ottaviani")
    c = _number(cfg, "c", float, what="ottaviani")
    report = ottaviani_check(set_, n, alpha, c, state_budget=_state_budget(cfg))
    meta = {"set": set_.describe(), "n": n, "alpha": alpha}
    columns = ["premise_value", "c", "lhs", "rhs", "status"]
    return Outcome(
        [_by_name("ottaviani", columns, [report], meta)],
        f"ottaviani: {report.status} (lhs {report.lhs:.6g}, rhs {report.rhs:.6g})",
        ("OTTAVIANI_VIOLATED", "maximal inequality failed on a valid instance")
        if report.status == VIOLATED
        else None,
    )


def _cmd_product_identity(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    n = _number(cfg, "n", what="product-identity")
    threshold = _number(cfg, "threshold", float, what="product-identity")
    report = capacity_product_identity(set_, n, threshold, state_budget=_state_budget(cfg))
    meta = {"set": set_.describe(), "n": n, "threshold": threshold}
    return Outcome(
        [_by_name("product_identity", ["lhs", "rhs", "delta"], [report], meta)],
        f"product-identity: delta {report.delta:.3g}",
        ("PRODUCT_IDENTITY_MISMATCH", f"delta {report.delta} exceeds 1e-9")
        if report.delta > 1e-9
        else None,
    )


def _cmd_chebyshev(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    n = _number(cfg, "n", what="chebyshev")
    eps = _number(cfg, "eps", float, what="chebyshev")
    check = chebyshev_bound_check(set_, n, eps, state_budget=_state_budget(cfg))
    meta = {"set": set_.describe(), "n": n, "eps": eps}
    return Outcome(
        [_by_name("chebyshev", ["lhs", "rhs", "holds"], [check], meta)],
        f"chebyshev: lhs {check.lhs:.6g} <= rhs {check.rhs:.6g}: {check.holds}",
        None if check.holds else ("CHEBYSHEV_VIOLATED", "tail bound failed"),
    )


def _cmd_counterexample(cfg, args) -> Outcome:
    K = _first(
        args.K, _number(cfg, "K", default=None), _number(cfg, "family.truncation", default=None)
    )
    if args.which == "exm3":
        truncation = _first(K, 10_000)
        lambdas = _numbers(cfg, "lambdas", float, default=[10.0, 20.0, 50.0, 100.0])
        ms = _numbers(cfg, "ms", default=[10, 20, 50, 100])
        report = exm3_report(_charge_truncation(cfg, truncation), lambdas, ms)
        meta = {"truncation": truncation, "warnings": sorted(set(report.warnings))}
        lam, v = report.lambda_rows[-1]
        return Outcome(
            [
                ("exm3_excess", ["lambda", "value"], report.lambda_rows, meta),
                ("exm3_tail", ["m", "psi_expect", "m_V_tail"], report.m_rows, meta),
            ],
            f"counterexample exm3: E[(|X|-{lam:g})^+] = {v:.6g}",
        )
    K = _first(K, 200)
    n = _number(cfg, "n", default=20)
    value = heavy_lln_value(K, n, state_budget=_state_budget(cfg))
    bound = heavy_lln_lower_bound(K, n)
    limit = maximal_dist_value(RAMP_DOWN, 1.0, 1.0)
    meta = {"maximal_distribution_value": limit}
    return Outcome(
        [("heavy", ["K", "n", "value", "lower_bound"], [[K, n, value, bound]], meta)],
        f"counterexample heavy: value {value:.6g} >= {bound:.6g}, "
        f"maximal-distribution prediction {limit:g}",
    )


def _cmd_simulate(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    n = _number(cfg, "n", what="simulate")
    paths = _number(cfg, "paths", what="simulate")
    seed = _number(cfg, "seed", default=0)
    budget = _state_budget(cfg)
    policy_spec = cfg.get("policy", "robust")
    if policy_spec == "robust":
        policy = robust_value(set_, n, f, state_budget=budget).policy
    elif isinstance(policy_spec, dict) and "constant" in policy_spec:
        policy = constant_policy(set_, n, _number(cfg, "policy.constant"), state_budget=budget)
    else:
        raise InputError(
            "BAD_CONFIG", "config key 'policy' must be \"robust\" or {\"constant\": index}"
        )
    result = simulate(SimConfig(policy, set_, n, paths, seed), f, state_budget=budget)
    exact = policy_value(set_, policy, n, f, state_budget=budget)
    row = [result.estimate, result.stderr, result.paths, exact]
    meta = {"set": set_.describe(), "function": f.describe(), "n": n, "seed": seed}
    return Outcome(
        [("simulate", ["estimate", "stderr", "paths", "policy_value"], [row], meta)],
        f"simulate: estimate {result.estimate:.6g} +/- {result.stderr:.2g} (exact {exact:.6g})",
    )


def _cmd_oracle(cfg, args) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    n = _number(cfg, "n", what="oracle")
    oracle_value = brute_force_value(set_, n, f, budget=_enum_budget(cfg))
    dp = upper_value(set_, n, f, state_budget=_state_budget(cfg))
    delta = abs(oracle_value - dp)
    meta = {"set": set_.describe(), "function": f.describe()}
    return Outcome(
        [("oracle", ["n", "oracle_value", "dp_value", "delta"], [[n, oracle_value, dp, delta]], meta)],
        f"oracle: brute force {oracle_value:.12g}, dp {dp:.12g}, delta {delta:.3g}",
        ("ORACLE_MISMATCH", f"delta {delta} exceeds 1e-9") if delta > 1e-9 else None,
    )


_COMMANDS = {
    "eval": _cmd_eval,
    "capacity": _cmd_capacity,
    "lln-sweep": _cmd_lln_sweep,
    "conditions": _cmd_conditions,
    "ottaviani": _cmd_ottaviani,
    "product-identity": _cmd_product_identity,
    "chebyshev": _cmd_chebyshev,
    "counterexample": _cmd_counterexample,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublinexp",
        description="Exact engine for upper/lower expectations on finite ambiguity sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "counterexample":
            p.add_argument("which", choices=["exm3", "heavy"])
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory for reports")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--K", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg["out"] = args.out
        if args.n is not None:
            cfg["n"] = args.n
        if args.seed is not None:
            cfg["seed"] = args.seed
        outcome = _COMMANDS[args.command](cfg, args)
        out = _out_dir(cfg)
        for report in outcome.reports:
            write_report(out, *report)
        if not args.quiet:
            print(outcome.summary)
        if outcome.failure:
            raise PropertyViolation(*outcome.failure)
        return 0
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_status


if __name__ == "__main__":
    sys.exit(main())
