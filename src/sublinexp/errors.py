"""Exception hierarchy shared by all engine modules.

Every error carries a short machine-readable ``code`` (stable across
releases) next to the human-readable message; the CLI maps the three
exception families onto exit statuses 1/2/3.
"""

from __future__ import annotations

import numbers
from typing import Optional


class EngineError(Exception):
    """Base class for all errors raised by this package."""

    exit_status = 1

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class InputError(EngineError):
    """Invalid user input: malformed distributions, configs, arguments."""

    exit_status = 1


class BudgetError(EngineError):
    """A state or enumeration budget would be exceeded."""

    exit_status = 2


def check_budget(
    count: int, budget: int, unit: str = "level-states", code: str = "STATE_BUDGET_EXCEEDED"
) -> int:
    """``count``, or a :class:`BudgetError` when it exceeds ``budget``.

    A count of more than 30 digits is not printed, so a caller may pass any
    count of at least 10**30 for one it did not compute in full.
    """
    if count > budget:
        shown = count if count < 10**30 else "10**30 or more"
        raise BudgetError(code, f"{shown} {unit} exceed budget {budget}")
    return count


def check_horizon(n, code: str = "BAD_HORIZON", name: str = "horizon", least: Optional[int] = 1) -> int:
    """``n``, or an :class:`InputError` unless it is an integer >= ``least`` (a bool is not);
    ``least=None`` admits every integer.

    Truncation and clamp levels follow the same rule under their own ``name``.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < (n if least is None else least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(code, f"{name} must be an integer{bound}, got {n!r}")
    return n


class PropertyViolation(EngineError):
    """A mathematical property that must hold was observed to fail.

    Raised only for defects (e.g. a VIOLATED maximal-inequality status);
    treated as an internal-error signal, never as bad user input.
    """

    exit_status = 3
