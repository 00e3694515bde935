import numpy as np
import pytest
from hypothesis import strategies as st

from sublinexp import AmbiguitySet, DiscreteDistribution, LatticeSpec, piecewise_linear


def make_set(*generators, step=1, origin=0):
    """Ambiguity set from lists of (point, weight) pairs on the lattice ``(origin + k) * step``."""
    return AmbiguitySet(
        LatticeSpec(step, origin),
        tuple(DiscreteDistribution.from_pairs(g) for g in generators),
    )


@pytest.fixture
def point_mass():
    return make_set([(0, 1.0)])


@pytest.fixture
def coin():
    """Uniform on {-1, 1}, a single-generator set."""
    return make_set([(-1, 0.5), (1, 0.5)])


@pytest.fixture
def coin_or_rest():
    """{delta_0, uniform{-1,1}}: the adversary may freeze the walk."""
    return make_set([(0, 1.0)], [(-1, 0.5), (1, 0.5)])


@pytest.fixture
def biased_pair():
    """{uniform{-1,1}, (-1: 0.25, 1: 0.75)}: mean interval [0, 0.5]."""
    return make_set([(-1, 0.5), (1, 0.5)], [(-1, 0.25), (1, 0.75)])


def random_set(rng, max_generators=3, max_atoms=3, span=3, step=1, origin=0):
    """Random ambiguity set with exactly normalized weights on coordinates -span..span."""
    gens = []
    for _ in range(rng.integers(1, max_generators + 1)):
        k = int(rng.integers(1, max_atoms + 1))
        coords = rng.choice(np.arange(-span, span + 1), size=k, replace=False)
        points = (origin + coords) * step
        weights = rng.random(k) + 0.05
        weights = weights / weights.sum()
        gens.append(list(zip(points.tolist(), weights.tolist())))
    return make_set(*gens, step=step, origin=origin)


@st.composite
def tie_prone_functions(draw):
    """Piecewise-linear functions with few distinct quarter values, so candidates tie."""
    xs = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True))
    ys = draw(st.lists(st.integers(-4, 4), min_size=len(xs), max_size=len(xs)))
    return piecewise_linear([(x / 4, y / 4) for x, y in zip(sorted(xs), ys)])


def random_pwl(rng, lo=-3.0, hi=3.0, max_breaks=5, scale=2.0):
    """Random bounded piecewise-linear test function."""
    k = int(rng.integers(2, max_breaks + 1))
    xs = np.sort(rng.uniform(lo, hi, size=k))
    xs += np.arange(k) * 1e-6  # keep strictly increasing
    ys = rng.uniform(-scale, scale, size=k)
    return piecewise_linear(list(zip(xs.tolist(), ys.tolist())))


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines past output capture."""
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICT_LINES):
            terminalreporter.write_line(line)
