"""Command-line surface: config ingestion, subcommand dispatch, report emission.

A run is described by a single JSON config (versionable artifact) plus a
few flag overrides, both read by :func:`load_config` against the keys that
the subcommand's entry in ``_COMMANDS`` reads.  Each subcommand returns an
:class:`Outcome`; :func:`main` alone writes its CSV reports with JSON
mirrors under ``--out``, prints its one-line summary and raises its failed
property check.  Exit statuses: 0 success, 1 validation error, 2 budget
error, 3 property violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ambiguity import AmbiguitySet, sublinear_expect, validate_ambiguity_set
from .counterexamples import (
    RAMP_DOWN, ParametricFamily, exm3_report, heavy_lln_lower_bound, heavy_lln_value,
)
from .errors import EngineError, InputError, PropertyViolation
from .functions import _KINDS, TestFunction, _real, constant
from .inequalities import VIOLATED, capacity_product_identity, ottaviani_check
from .lattice_dp import (
    DEFAULT_STATE_BUDGET, PathEvent, capacity, robust_value, upper_value,
)
from .lln import lln_sweep, maximal_dist_value, peng_condition_report, chebyshev_bound_check
from .montecarlo import SimConfig, constant_policy, simulate
from .oracle import DEFAULT_ENUMERATION_BUDGET, brute_force_value
from .reports import write_report

# -- config keys ---------------------------------------------------------
#
# A command maps each config key it reads to ``(kind, default)``.  The kind
# is ``int`` or ``float`` (a checked number), ``[int]`` or ``[float]`` (a
# non-empty list of them), a dict of a section's own keys, or a JSON type
# (``object`` for any value) of a raw value that its builder checks.  The
# default ``...`` makes the key required, and ``None`` leaves an absent key
# absent.

_JSON_TYPES = {dict: "a JSON object", list: "a JSON list", str: "a string"}
_FLAGS = ("out", "seed", "n", "K")  # the config keys a flag of the same name overrides

_SET = {"lattice": ({"step": (object, None), "origin": (object, None)}, None), "generators": (list, ...)}
_FUNCTION = {"function": ({"kind": (object, ...), "params": (dict, {})}, ...)}
_N = {"n": (int, ...)}
_BUDGETS = {"budgets": ({"states": (int, DEFAULT_STATE_BUDGET)}, {})}
_EVENT = {"kind": (object, ...), "threshold": (object, ...), "from_index": (object, None)}


def _reads(*groups: Dict, **keys) -> Dict:
    """A command's config keys: those of ``groups``, then ``keys``, then ``out``."""
    return {k: v for group in (*groups, keys, {"out": (str, ".")}) for k, v in group.items()}


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


def _checked(obj, keys: Dict, section: str = "") -> Dict:
    """The section ``obj`` (``""`` for the root) read with ``keys``: unknown keys
    refused, numbers converted, sections checked and defaults filled."""
    where = f"config.{section}" if section else "config"
    if not isinstance(obj, dict):
        raise InputError("BAD_CONFIG", f"{where} must be a JSON object")
    unknown = sorted(set(obj) - keys.keys())
    if unknown:
        raise InputError("BAD_CONFIG", f"unknown key {unknown[0]!r} in {where}")
    out = {}
    for key, (kind, default) in keys.items():
        name = f"{section}.{key}" if section else key
        if key not in obj:
            if default is ...:
                raise InputError("BAD_CONFIG", f"config key {name!r} is required")
            if default is None:
                continue
        value = obj.get(key, default)
        if isinstance(kind, dict):
            value = _checked(value, kind, name)
        elif kind is int or kind is float:
            value = _as_number(value, name, kind)
        elif isinstance(kind, list):
            if not isinstance(value, list) or not value:
                raise InputError(
                    "BAD_CONFIG", f"config key {name!r} must be a non-empty list, got {value!r}"
                )
            value = [_as_number(v, name, kind[0]) for v in value]
        elif not isinstance(value, kind):
            raise InputError("BAD_CONFIG", f"config.{name} must be {_JSON_TYPES[kind]}")
        out[key] = value
    return out


def load_config(command: str, args) -> Dict:
    """The config file of ``args`` with its override flags applied, read with
    the keys of ``command`` (see :func:`_checked`)."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "rb") as handle:
                cfg = json.loads(handle.read().decode("utf-8"))
        except OSError as e:
            raise InputError("BAD_CONFIG", f"cannot read config: {e}") from None
        except UnicodeDecodeError as e:
            raise InputError("BAD_CONFIG", f"config is not valid UTF-8: {e}") from None
        except json.JSONDecodeError as e:
            raise InputError("BAD_CONFIG", f"config is not valid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise InputError("BAD_CONFIG", "config root must be a JSON object")
    for flag in _FLAGS:
        if getattr(args, flag, None) is not None:
            cfg[flag] = getattr(args, flag)
    return _checked(cfg, _COMMANDS[command][1])


def build_set(cfg: Dict) -> AmbiguitySet:
    if "generators" not in cfg:
        raise InputError("BAD_CONFIG", "config key 'generators' is required here")
    return validate_ambiguity_set({**cfg.get("lattice", {}), "generators": cfg["generators"]})


def build_source(cfg: Dict):
    """The ambiguity set of ``generators``, or the parametric ``family``."""
    if "family" not in cfg:
        return build_set(cfg)
    for key in ("generators", "lattice"):
        if key in cfg:
            raise InputError("BAD_CONFIG", f"config keys 'family' and {key!r} are exclusive")
    return ParametricFamily(str(cfg["family"]["name"]).upper(), cfg["family"]["truncation"])


#: function kind -> (constructor, the ``params`` keys it takes in order); ``constant`` is a ``pwl``
_FUNCTION_KINDS = {kind: (row.make, row.keys) for kind, row in _KINDS.items()}
_FUNCTION_KINDS["constant"] = (constant, ("value",))


def build_function(cfg: Dict) -> TestFunction:
    spec = cfg["function"]
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _FUNCTION_KINDS:
        raise InputError("BAD_CONFIG", f"config.function.kind {kind!r} is not recognized")
    make, keys = _FUNCTION_KINDS[kind]
    params = _checked(spec.get("params", {}), dict.fromkeys(keys, (object, ...)), "function.params")
    return make(*params.values())


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


def _cmd_eval(cfg) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    sv = sublinear_expect(set_, f)
    meta = {"set": set_.describe(), "function": f.describe()}
    return Outcome(
        [_by_name("eval", ["upper", "lower", "argmax_upper", "argmin_lower"], [sv], meta)],
        f"eval: upper {sv.upper:.12g} lower {sv.lower:.12g}",
    )


def _cmd_capacity(cfg) -> Outcome:
    set_ = build_set(cfg)
    n = cfg["n"]
    event = PathEvent(**cfg["event"])
    side = str(cfg["side"]).upper()
    value = capacity(set_, n, event, side, state_budget=cfg["budgets"]["states"])
    row = [n, event.describe(), side, value]
    return Outcome(
        [("capacity", ["n", "event", "side", "value"], [row], {"set": set_.describe()})],
        f"capacity: {side} {event.describe()} at n={n} -> {value:.12g}",
    )


def _cmd_lln_sweep(cfg) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    report = lln_sweep(set_, f, cfg["horizons"], state_budget=cfg["budgets"]["states"])
    meta = {"set": report.set_description, "function": report.function_description}
    columns = ["n", "dp_value", "limit_value", "abs_error"]
    last = report.rows[-1]
    return Outcome(
        [_by_name("lln_sweep", columns, report.rows, meta)],
        f"lln-sweep: abs_error at n={last.n} is {last.abs_error:.6g}",
    )


def _cmd_conditions(cfg) -> Outcome:
    report = peng_condition_report(build_source(cfg), cfg["n_max"], cfg["budgets"]["states"])
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


def _cmd_ottaviani(cfg) -> Outcome:
    set_ = build_set(cfg)
    n, alpha = cfg["n"], cfg["alpha"]
    report = ottaviani_check(set_, n, alpha, cfg["c"], state_budget=cfg["budgets"]["states"])
    meta = {"set": set_.describe(), "n": n, "alpha": alpha}
    columns = ["premise_value", "c", "lhs", "rhs", "status"]
    return Outcome(
        [_by_name("ottaviani", columns, [report], meta)],
        f"ottaviani: {report.status} (lhs {report.lhs:.6g}, rhs {report.rhs:.6g})",
        ("OTTAVIANI_VIOLATED", "maximal inequality failed on a valid instance")
        if report.status == VIOLATED
        else None,
    )


def _cmd_product_identity(cfg) -> Outcome:
    set_ = build_set(cfg)
    n, threshold = cfg["n"], cfg["threshold"]
    report = capacity_product_identity(set_, n, threshold, state_budget=cfg["budgets"]["states"])
    meta = {"set": set_.describe(), "n": n, "threshold": threshold}
    return Outcome(
        [_by_name("product_identity", ["lhs", "rhs", "delta"], [report], meta)],
        f"product-identity: delta {report.delta:.3g}",
        ("PRODUCT_IDENTITY_MISMATCH", f"delta {report.delta} exceeds 1e-9")
        if not report.delta <= 1e-9  # NaN too
        else None,
    )


def _cmd_chebyshev(cfg) -> Outcome:
    set_ = build_set(cfg)
    n, eps = cfg["n"], cfg["eps"]
    check = chebyshev_bound_check(set_, n, eps, state_budget=cfg["budgets"]["states"])
    meta = {"set": set_.describe(), "n": n, "eps": eps}
    return Outcome(
        [_by_name("chebyshev", ["lhs", "rhs", "holds"], [check], meta)],
        f"chebyshev: lhs {check.lhs:.6g} <= rhs {check.rhs:.6g}: {check.holds}",
        None if check.holds else ("CHEBYSHEV_VIOLATED", "tail bound failed"),
    )


def _cmd_exm3(cfg) -> Outcome:
    report = exm3_report(cfg["K"], cfg["lambdas"], cfg["ms"], cfg["budgets"]["states"])
    meta = {"truncation": cfg["K"], "warnings": sorted(set(report.warnings))}
    lam, v = report.lambda_rows[-1]
    return Outcome(
        [
            ("exm3_excess", ["lambda", "value"], report.lambda_rows, meta),
            ("exm3_tail", ["m", "psi_expect", "m_V_tail"], report.m_rows, meta),
        ],
        f"counterexample exm3: E[(|X|-{lam:g})^+] = {v:.6g}",
    )


def _cmd_heavy(cfg) -> Outcome:
    K, n = cfg["K"], cfg["n"]
    value = heavy_lln_value(K, n, state_budget=cfg["budgets"]["states"])
    bound = heavy_lln_lower_bound(K, n)
    limit = maximal_dist_value(RAMP_DOWN, 1.0, 1.0)
    meta = {"maximal_distribution_value": limit}
    return Outcome(
        [("heavy", ["K", "n", "value", "lower_bound"], [[K, n, value, bound]], meta)],
        f"counterexample heavy: value {value:.6g} {'>=' if value >= bound else '<'} {bound:.6g} "
        f"(difference {value - bound:.3g}), maximal-distribution prediction {limit:g}",
    )


def _cmd_simulate(cfg) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    n, seed, budget = cfg["n"], cfg["seed"], cfg["budgets"]["states"]
    SimConfig.check_scalars(n, cfg["paths"], seed)  # before the sweep that values the policy
    if cfg["policy"] == "robust":  # the sweep that extracts the policy gives its value
        robust = robust_value(set_, n, f, state_budget=budget)
        policy, exact = robust.policy, robust.value
    elif isinstance(cfg["policy"], dict):  # the i.i.d. measure of generator g: its own sweep
        g = _checked(cfg["policy"], {"constant": (int, ...)}, "policy")["constant"]
        policy = constant_policy(set_, n, g, state_budget=budget)
        exact = upper_value(AmbiguitySet(set_.lattice, (set_.generators[g],)), n, f, state_budget=budget)
    else:
        raise InputError(
            "BAD_CONFIG", "config key 'policy' must be \"robust\" or {\"constant\": index}"
        )
    result = simulate(SimConfig(policy, set_, n, cfg["paths"], seed), f, state_budget=budget)
    row = [result.estimate, result.stderr, result.paths, exact]
    meta = {"set": set_.describe(), "function": f.describe(), "n": n, "seed": seed}
    return Outcome(
        [("simulate", ["estimate", "stderr", "paths", "policy_value"], [row], meta)],
        f"simulate: estimate {result.estimate:.6g} +/- {result.stderr:.2g} (exact {exact:.6g})",
    )


def _cmd_oracle(cfg) -> Outcome:
    set_ = build_set(cfg)
    f = build_function(cfg)
    n, budgets = cfg["n"], cfg["budgets"]
    dp = upper_value(set_, n, f, state_budget=budgets["states"])  # refuses before the walk
    oracle_value = brute_force_value(set_, n, f, budget=budgets["enumeration"])
    delta = abs(oracle_value - dp)
    meta = {"set": set_.describe(), "function": f.describe()}
    return Outcome(
        [("oracle", ["n", "oracle_value", "dp_value", "delta"], [[n, oracle_value, dp, delta]], meta)],
        f"oracle: brute force {oracle_value:.12g}, dp {dp:.12g}, delta {delta:.3g}",
        ("ORACLE_MISMATCH", f"delta {delta} exceeds 1e-9") if not delta <= 1e-9 else None,
    )


#: command -> (handler, the config keys it reads); ``counterexample`` takes
#: its form as a positional argument
_COMMANDS = {
    "eval": (_cmd_eval, _reads(_SET, _FUNCTION)),
    "capacity": (_cmd_capacity, _reads(_SET, _N, _BUDGETS, event=(_EVENT, ...), side=(object, "UPPER"))),
    "lln-sweep": (_cmd_lln_sweep, _reads(_SET, _FUNCTION, _BUDGETS, horizons=([int], ...))),
    "conditions": (_cmd_conditions, _reads(
        _SET, _BUDGETS, generators=(list, None),
        family=({"name": (object, ...), "truncation": (int, ...)}, None), n_max=(int, ...),
    )),
    "ottaviani": (_cmd_ottaviani, _reads(_SET, _N, _BUDGETS, alpha=(float, ...), c=(float, ...))),
    "product-identity": (_cmd_product_identity, _reads(_SET, _N, _BUDGETS, threshold=(float, ...))),
    "chebyshev": (_cmd_chebyshev, _reads(_SET, _N, _BUDGETS, eps=(float, ...))),
    "counterexample exm3": (_cmd_exm3, _reads(
        _BUDGETS, K=(int, 10_000),
        lambdas=([float], [10.0, 20.0, 50.0, 100.0]), ms=([int], [10, 20, 50, 100]),
    )),
    "counterexample heavy": (_cmd_heavy, _reads(_BUDGETS, K=(int, 200), n=(int, 20))),
    "simulate": (_cmd_simulate, _reads(
        _SET, _FUNCTION, _N, _BUDGETS, paths=(int, ...), seed=(int, 0), policy=(object, "robust"),
    )),
    "oracle": (_cmd_oracle, _reads(_SET, _FUNCTION, _N, budgets=(
        {"states": (int, DEFAULT_STATE_BUDGET), "enumeration": (int, DEFAULT_ENUMERATION_BUDGET)}, {},
    ))),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublinexp",
        description="Exact engine for upper/lower expectations on finite ambiguity sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags: Dict[str, Dict[str, type]] = {}  # command -> the flags of all its forms
    for name, (_, keys) in _COMMANDS.items():
        flags.setdefault(name.split()[0], {}).update(
            (flag, keys[flag][0]) for flag in _FLAGS if flag in keys
        )
    for command, types in flags.items():
        p = sub.add_parser(command)
        forms = [name.split()[1] for name in _COMMANDS if name.startswith(f"{command} ")]
        if forms:
            p.add_argument("which", choices=forms)
        p.add_argument("--config", default=None, help="JSON config file")
        for flag, kind in types.items():
            p.add_argument(f"--{flag}", type=kind, help=f"overrides config key {flag!r}")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "which", None))))
    try:
        cfg = load_config(command, args)
        outcome = _COMMANDS[command][0](cfg)
        for report in outcome.reports:
            write_report(cfg["out"], *report)
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
