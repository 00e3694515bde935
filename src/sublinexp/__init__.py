"""Exactly-computable upper/lower expectations on finitely generated ambiguity sets.

Finite lattice-supported generator distributions define a sublinear
expectation as a max over linear ones; backward induction on the
partial-sum lattice extends it to horizons, capacities of path events
and worst-case kernel policies; convergence of normalized sums toward
the maximal distribution is then checkable at desk scale, including the
families for which it provably fails.
"""

from .ambiguity import (
    AmbiguitySet,
    DiscreteDistribution,
    LatticeSpec,
    SublinearValue,
    linear_expect,
    sublinear_expect,
    validate_ambiguity_set,
)
from .counterexamples import (
    ParametricFamily,
    RAMP_DOWN,
    exm3_report,
    family_expect,
    heavy_lln_lower_bound,
    heavy_lln_value,
)
from .errors import BudgetError, EngineError, InputError, PropertyViolation
from .functions import (
    ABS,
    IDENTITY,
    SQUARE,
    TestFunction,
    abs_excess,
    clamp,
    constant,
    piecewise_linear,
    psi_fn,
    tent,
)
from .inequalities import (
    OttavianiReport,
    ProductIdentityReport,
    capacity_product_identity,
    ottaviani_check,
)
from .lattice_dp import (
    KernelPolicy,
    PathEvent,
    RobustResult,
    capacity,
    policy_value,
    robust_value,
    upper_value,
)
from .lln import (
    ChebyshevCheck,
    ConditionReport,
    SweepReport,
    TruncatedMeans,
    chebyshev_bound_check,
    lln_sweep,
    maximal_dist_value,
    peng_condition_report,
    truncated_means,
)
from .montecarlo import SimConfig, SimResult, constant_policy, simulate
from .oracle import brute_force_capacity, brute_force_value, enumerate_selections_value

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
