"""Seeded job generator for the four benchmark workloads.

Each workload owns a fixed pool of CLI jobs, built from a fixed pool seed
so that every job has a stored reference (``reference/<workload>.json``).
The run seed only decides which pool jobs run and in what order: jobs are
grouped into strata (one subcommand in one size band, sizes log-spread
inside the band), and each cycle of the closed loop runs one job per
stratum.  Every cycle therefore carries about the same work whatever the
seed, which keeps throughput and percentiles comparable between seeds.

Lattice steps are drawn from integer, dyadic and decimal rationals.
Non-decimal rational steps with exact string points (``"1/3"``,
``"-2/7"``) go to a separate exact-input probe: the timed workloads must
consist of jobs that the program completes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Dict, Iterator, List, Sequence, Tuple

WORKLOADS = ("dp_policy", "path_capacity", "family_scan", "small_jobs")

STEP_CLASSES = {
    "integer": (1, 2),
    "dyadic": ("1/2", "1/4", 0.5, 0.125),
    "decimal": (0.1, "0.2", 0.05, "0.3"),
}
NON_DECIMAL_STEPS = ("1/3", "1/7", "2/3")
EXACT_PROBE_JOBS = 12

EVENT_KINDS = (
    "FINAL_ABS_GE",
    "FINAL_ABS_LT",
    "FINAL_GT",
    "FINAL_LT",
    "MAX_PARTIAL_ABS_GE",
    "MAX_INCREMENT_ABS_GE",
    "TAIL_SUM_ABS_GE",
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` (subcommand and flags) plus a JSON config."""

    id: str
    stratum: str
    argv: Tuple[str, ...]
    config: dict

    def digest(self) -> str:
        text = json.dumps([list(self.argv), self.config], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _log_draw(rng: random.Random, lo: float, hi: float, band: int, bands: int) -> float:
    """Log-uniform draw from band ``band`` of ``bands`` equal log-width bands over [lo, hi]."""
    return lo * (hi / lo) ** ((band + rng.random()) / bands)


# -- lattices and generator sets ---------------------------------------


class _Lattice:
    """A lattice step with the JSON spelling of its points."""

    def __init__(self, step, origin: int = 0, exact_strings: bool = False):
        self.step_json = step
        self.step = Fraction(repr(step)) if isinstance(step, float) else Fraction(step)
        self.origin = origin
        self.exact_strings = exact_strings

    @classmethod
    def draw(cls, rng: random.Random, origin: bool = False) -> "_Lattice":
        kind = rng.choice(sorted(STEP_CLASSES))
        org = rng.choice((0, 0, 1, -1)) if origin else 0
        return cls(rng.choice(STEP_CLASSES[kind]), org)

    def point(self, coord: int):
        value = (self.origin + coord) * self.step
        if self.exact_strings:
            return str(value)
        if value.denominator == 1:
            return int(value)
        return float(value)  # dyadic and decimal values round-trip through repr

    def config(self) -> dict:
        lat = {"step": self.step_json}
        if self.origin:
            lat["origin"] = self.origin
        return lat


def _weights(rng: random.Random, k: int) -> List[float]:
    """k positive weights on the 1/20 grid summing to one."""
    cuts = sorted(rng.sample(range(1, 20), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [20])]
    return [p / 20 for p in parts]


def _generators(rng: random.Random, lat: _Lattice, count_: int, atoms: Sequence[int], lo: int, hi: int):
    """``count_`` generators with the given atom counts on coordinates [lo, hi].

    The first generator touches both ends so every set spans the full range
    and the state count depends only on the horizon.
    """
    gens = []
    for g in range(count_):
        k = atoms[g % len(atoms)]
        if g == 0:
            inner = rng.sample(range(lo + 1, hi), k - 2) if k > 2 else []
            coords = sorted([lo, hi] + inner)
        else:
            coords = sorted(rng.sample(range(lo, hi + 1), k))
        gens.append([[lat.point(c), w] for c, w in zip(coords, _weights(rng, k))])
    return gens


def _set_config(rng, lat: _Lattice, count_: int, atoms, lo: int, hi: int) -> dict:
    return {"lattice": lat.config(), "generators": _generators(rng, lat, count_, atoms, lo, hi)}


def _bounded_function(rng: random.Random, scale: float) -> dict:
    """A bounded test function with features on the scale of the increments."""
    kind = rng.choice(("tent", "pwl", "abs", "clamp"))
    r = lambda a, b: round(rng.uniform(a, b) * scale, 3)  # noqa: E731
    if kind == "tent":
        return {"kind": "tent", "params": {"center": r(-0.5, 0.5), "halfwidth": r(0.3, 1.5)}}
    if kind == "pwl":
        xs = sorted({r(-1.5, 1.5) for _ in range(3)})
        return {"kind": "pwl", "params": {"breakpoints": [[x, round(rng.uniform(0, 1), 3)] for x in xs]}}
    if kind == "clamp":
        return {"kind": "clamp", "params": {"n": r(0.2, 1.0)}}
    return {"kind": "abs"}


def _any_function(rng: random.Random, scale: float) -> dict:
    if rng.random() < 0.3:
        return {"kind": rng.choice(("identity", "square"))}
    return _bounded_function(rng, scale)


# -- the workloads -----------------------------------------------------


def _dp_policy(rng: random.Random, lat_of) -> List[Tuple[str, tuple, dict]]:
    """simulate (robust and constant policy) and lln-sweep, horizons log-spread over 32..384."""
    out = []
    for band in range(12):
        for kind in ("simulate-robust", "simulate-constant", "lln-sweep"):
            for _ in range(3):
                n = round(_log_draw(rng, 32, 384, band, 12))
                lat = lat_of(rng)
                ngen = rng.choice((2, 3))
                cfg = _set_config(rng, lat, ngen, (2, 3), -1, 2)
                cfg["function"] = _bounded_function(rng, float(lat.step))
                if kind == "lln-sweep":
                    cfg["horizons"] = sorted({max(2, n // 8), n // 4, n // 2, n})
                    argv = ("lln-sweep",)
                else:
                    cfg.update(n=n, paths=rng.choice((1000, 2000, 4000)), seed=rng.randrange(2**31))
                    cfg["policy"] = "robust" if kind == "simulate-robust" else {"constant": rng.randrange(ngen)}
                    argv = ("simulate",)
                out.append((f"{kind}-{band}", argv, cfg))
    return out


def _event(rng: random.Random, kind: str, n: int, step: Fraction) -> dict:
    reach = float(step) * 2 * n  # the largest |S_n| the -1..2 coordinates allow
    ev = {"kind": kind}
    if kind in ("FINAL_GT", "FINAL_LT"):
        ev["threshold"] = round(rng.uniform(-0.3, 0.6) * reach / 2, 2)
    elif kind == "MAX_INCREMENT_ABS_GE":
        ev["threshold"] = round(float(step) * rng.uniform(0.5, 2.0), 3)
    else:
        ev["threshold"] = round(rng.uniform(0.05, 0.5) * reach / 2, 2)
    if kind == "TAIL_SUM_ABS_GE":
        ev["from_index"] = rng.randrange(n + 1)
    return ev


def _path_capacity(rng: random.Random, lat_of) -> List[Tuple[str, tuple, dict]]:
    """capacity on all seven events, both sides, plus the three inequality checks."""
    out = []
    for band in range(6):
        for kind in EVENT_KINDS:
            for side in ("UPPER", "LOWER"):
                for _ in range(2):
                    n = round(_log_draw(rng, 16, 256, band, 6))
                    lat = lat_of(rng)
                    cfg = _set_config(rng, lat, rng.choice((2, 3)), (2, 3), -1, 2)
                    cfg.update(n=n, event=_event(rng, kind, n, lat.step), side=side)
                    out.append((f"capacity-{kind}-{side}-{band}", ("capacity",), cfg))
        for kind in ("ottaviani", "product-identity", "chebyshev"):
            for _ in range(2):
                n = round(_log_draw(rng, 8, 64, band, 6))
                lat = lat_of(rng)
                step = float(lat.step)
                cfg = _set_config(rng, lat, rng.choice((2, 3)), (2, 3), -1, 2)
                if kind == "ottaviani":
                    cfg.update(n=n, alpha=round(step * rng.uniform(0.5, 1.5) * n**0.5 * 2, 3),
                               c=round(rng.uniform(0.3, 0.9), 2))
                elif kind == "product-identity":
                    cfg.update(n=4 * n, threshold=round(step * rng.uniform(0.5, 2.0), 3))
                else:
                    cfg.update(n=4 * n, eps=round(step * rng.uniform(0.2, 1.0), 3))
                out.append((f"{kind}-{band}", (kind,), cfg))
    return out


def _family_scan(rng: random.Random, lat_of) -> List[Tuple[str, tuple, dict]]:
    """EXM3 tables, EXM3/HEAVY condition reports and the HEAVY LLN value."""
    out = []
    for _ in range(3):
        for band in range(4):
            T = round(_log_draw(rng, 250, 2000, band, 4))
            top = T // 8
            lambdas = sorted(rng.sample(range(1, top + 1), rng.choice((2, 3, 4))))
            ms = sorted(rng.sample(range(2, top + 1), rng.choice((2, 3, 4))))
            out.append((f"exm3-{band}", ("counterexample", "exm3"), {"K": T, "lambdas": lambdas, "ms": ms}))
        for band in range(3):
            scale = _log_draw(rng, 1, 4, band, 3)  # truncation and table depth grow together
            out.append((f"conditions-EXM3-{band}", ("conditions",),
                        {"family": {"name": "EXM3", "truncation": round(64 * scale)}, "n_max": round(8 * scale)}))
            scale = _log_draw(rng, 1, 4, band, 3)
            out.append((f"conditions-HEAVY-{band}", ("conditions",),
                        {"family": {"name": "HEAVY", "truncation": round(64 * scale**2)}, "n_max": round(8 * scale)}))
        for band in range(4):
            scale = _log_draw(rng, 1, 6, band, 4)
            out.append((f"heavy-{band}", ("counterexample", "heavy"),
                        {"K": round(50 * scale), "n": round(8 * scale**0.6)}))
    return out


def _small_jobs(rng: random.Random, lat_of) -> List[Tuple[str, tuple, dict]]:
    """Every subcommand at the shipped configs' sizes; the oracle at n <= 4."""
    out = []
    for _ in range(10):
        def base(ngen=None):
            lat = lat_of(rng)
            return lat, _set_config(rng, lat, ngen or rng.choice((2, 3)), (2, 3), -1, 1)

        lat, cfg = base()
        cfg["function"] = _any_function(rng, float(lat.step))
        out.append(("eval", ("eval",), cfg))

        lat, cfg = base()
        n = rng.randint(2, 8)
        cfg.update(n=n, event=_event(rng, rng.choice(EVENT_KINDS), n, lat.step),
                   side=rng.choice(("UPPER", "LOWER")))
        out.append(("capacity", ("capacity",), cfg))

        lat, cfg = base()
        cfg["function"] = _bounded_function(rng, float(lat.step))
        cfg["horizons"] = sorted(rng.sample(range(2, 17), 3))
        out.append(("lln-sweep", ("lln-sweep",), cfg))

        lat, cfg = base()
        cfg["n_max"] = rng.randint(4, 12)
        out.append(("conditions-set", ("conditions",), cfg))

        out.append(("conditions-HEAVY", ("conditions",),
                    {"family": {"name": "HEAVY", "truncation": rng.randint(32, 128)}, "n_max": rng.randint(4, 12)}))

        lat, cfg = base()
        cfg.update(n=rng.randint(2, 6), alpha=round(float(lat.step) * rng.uniform(1, 3), 3),
                   c=round(rng.uniform(0.3, 0.9), 2))
        out.append(("ottaviani", ("ottaviani",), cfg))

        lat, cfg = base()
        cfg.update(n=rng.randint(2, 5), threshold=round(float(lat.step) * rng.uniform(0.5, 1.5), 3))
        out.append(("product-identity", ("product-identity",), cfg))

        lat, cfg = base()
        cfg.update(n=rng.randint(2, 8), eps=round(float(lat.step) * rng.uniform(0.3, 1.0), 3))
        out.append(("chebyshev", ("chebyshev",), cfg))

        K = rng.randint(40, 100)
        out.append(("exm3", ("counterexample", "exm3"),
                    {"K": K, "lambdas": sorted(rng.sample(range(1, K // 4 + 1), 2)),
                     "ms": sorted(rng.sample(range(2, K // 4 + 1), 2))}))

        out.append(("heavy", ("counterexample", "heavy", "--K", str(rng.randint(10, 50)),
                              "--n", str(rng.randint(3, 8))), {}))

        lat, cfg = base()
        n = rng.randint(4, 10)
        cfg.update(function=_bounded_function(rng, float(lat.step)), n=n,
                   paths=rng.choice((5000, 20000)), seed=rng.randrange(2**31),
                   policy=rng.choice(("robust", {"constant": 0})))
        out.append(("simulate", ("simulate",), cfg))

        lat, cfg = base(2)
        cfg.update(function=_bounded_function(rng, float(lat.step)), n=rng.randint(2, 4))
        out.append(("oracle", ("oracle",), cfg))
    return out


_BUILDERS = {
    "dp_policy": _dp_policy,
    "path_capacity": _path_capacity,
    "family_scan": _family_scan,
    "small_jobs": _small_jobs,
}


def _jobs(workload: str, lat_of, tag: str) -> List[Job]:
    rng = random.Random(f"{tag}:{workload}")
    return [
        Job(f"{workload}-{tag}-{i:03d}", stratum, argv, cfg)
        for i, (stratum, argv, cfg) in enumerate(_BUILDERS[workload](rng, lat_of))
    ]


def pool(workload: str) -> List[Job]:
    """The fixed job pool of ``workload`` (integer, dyadic and decimal steps)."""
    small = workload == "small_jobs"
    return _jobs(workload, lambda rng: _Lattice.draw(rng, origin=small), "pool")


def exact_probe(workload: str) -> List[Job]:
    """Pool-shaped jobs on non-decimal rational steps with exact string points.

    The documentation promises such lattices; they are run outside the
    timed loop and counted on their own.  ``family_scan`` has no lattice.
    """
    jobs = _jobs(workload, lambda rng: _Lattice(rng.choice(NON_DECIMAL_STEPS), exact_strings=True), "exact")
    jobs = [job for job in jobs if "generators" in job.config]
    return jobs[:: max(1, len(jobs) // EXACT_PROBE_JOBS)][:EXACT_PROBE_JOBS]


def cycles(jobs: Sequence[Job], seed: int) -> Iterator[List[Job]]:
    """Endless seeded cycles, each holding one job from every stratum.

    Within a stratum the jobs are used in a seeded order, round robin, so
    a stratum's variants are used equally often.
    """
    rng = random.Random(seed)
    strata: Dict[str, List[Job]] = {}
    for job in jobs:
        strata.setdefault(job.stratum, []).append(job)
    order = list(strata)
    for members in strata.values():
        rng.shuffle(members)
    rng.shuffle(order)
    for cycle in count():
        yield [strata[name][cycle % len(strata[name])] for name in order]
