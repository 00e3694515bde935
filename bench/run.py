#!/usr/bin/env python3
"""End-to-end benchmark of the ``sublinexp`` CLI.

One client drives seeded jobs through ``sublinexp.cli.main`` in-process, in
a closed loop, with BLAS/OpenMP threads pinned to 1.  The program sees only
the generated config files.  Run from the root of a checkout:

    python3 bench/run.py --workload dp_policy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --self-test                        # check the harness
    python3 bench/run.py --write-reference                  # rebuild references

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import operator
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from itertools import count
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
SCRATCH = ROOT / ".bench_tmp"
TRACES = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
}

IMPORT_SAMPLES = 9
MIN_JOBS = 100  # at least ten jobs beyond the 90th percentile


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, no reference)."""


# -- set-up ------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_IMPORT_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(BENCH)!r}); from probe import slowness; "
    "p = slowness(False); t = time.perf_counter(); import sublinexp.cli as c; d = time.perf_counter() - t; "
    "q = slowness(False); print(c.__file__); print(repr(d), repr((p + q) / 2))"
)


class ImportSampler:
    """Times ``import sublinexp.cli`` in fresh interpreters with warm bytecode.

    Each sample is bracketed by the host speed probe in the child (its
    numpy-free kernels, since numpy is part of what the import loads).  The
    samples are spread over the whole run (between cycles, outside the timed
    loop) rather than taken back to back.
    """

    def __init__(self, seconds: float):
        self.interval = seconds / IMPORT_SAMPLES
        self.times: List[float] = []
        self.slowness: List[float] = []
        self._import()  # writes the bytecode; not a sample

    def _import(self):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=_child_env(), capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 3 or not words[0].startswith(str(SRC)):
            raise SetupError(f"cannot import sublinexp.cli from {SRC}: {proc.stderr.strip()[-300:]}")
        return float(words[1]), float(words[2])

    def _sample(self):
        seconds, slowness = self._import()
        self.times.append(seconds)
        self.slowness.append(slowness)

    def maybe_sample(self, elapsed: float):
        if len(self.times) < IMPORT_SAMPLES and elapsed >= len(self.times) * self.interval:
            self._sample()

    def median_scaled(self) -> float:
        while len(self.times) < IMPORT_SAMPLES:
            self._sample()
        return statistics.median(map(operator.truediv, self.times, self.slowness))


def import_package():
    if not (SRC / "sublinexp" / "cli.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    import sublinexp.cli
    import sublinexp.reports

    if not Path(sublinexp.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"sublinexp imported from {sublinexp.cli.__file__}, not {SRC}")
    return sublinexp.cli, sublinexp.reports


def load_reference(workload: str) -> Dict[str, dict]:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"missing reference {path}")
    return json.loads(path.read_text())["jobs"]


# -- running jobs ------------------------------------------------------


class Runner:
    """Writes each job's config once, then runs and checks jobs one at a time."""

    def __init__(self, cli, reports, jobs: List[workloads.Job], reference: Optional[Dict[str, dict]], tmp: Path):
        self.main = lambda argv: cli.main(argv)  # looked up per call, so tracing sees it
        self.csv_from_json = reports.csv_from_json
        self.reference = reference
        self.config = {}
        self.out = {}
        for job in jobs:
            cfg = tmp / "config" / f"{job.id}.json"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(json.dumps(job.config))
            self.config[job.id] = cfg
            self.out[job.id] = tmp / "out" / job.id
            self.out[job.id].mkdir(parents=True)  # so no timed job pays for creating it
        self.errors: List[str] = []
        self.bitwise_diff_jobs = 0

    def execute(self, job: workloads.Job):
        """Run one job; returns (seconds in ``cli.main``, exit status or None, error text)."""
        out = self.out[job.id]
        for stale in out.iterdir():
            stale.unlink()
        argv = [*job.argv, "--config", str(self.config[job.id]), "--out", str(out)]
        sink = io.StringIO()
        status, error = None, ""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                status = self.main(argv)
            except SystemExit as e:  # argparse rejects its arguments this way
                status = e.code
            except Exception:
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        if status not in (0, None) and not error:
            error = f"exit status {status}: {sink.getvalue().strip()[-300:]}"
        return seconds, status, error

    def run(self, job: workloads.Job):
        """Run and check one job; returns (seconds, passed)."""
        seconds, status, error = self.execute(job)
        if not error:
            error = self.check(job)
        if error:
            self.errors.append(f"{job.id}: {error.strip().splitlines()[-1]}")
        return seconds, not error

    def check(self, job: workloads.Job) -> str:
        if self.reference is None:  # exact-input probe: the mirror check only
            expected = checks.read_reports(self.out[job.id])
            if not expected:
                return "wrote no report"
        else:
            entry = self.reference.get(job.id)
            if entry is None or entry["digest"] != job.digest():
                return "no reference for this job (regenerate with --write-reference)"
            expected = entry["reports"]
        verdict = checks.check_reports(self.out[job.id], expected, self.csv_from_json)
        self.bitwise_diff_jobs += verdict.bitwise_diff
        return verdict.reason


class Phase:
    """Job times and verdicts of one closed-loop phase."""

    def __init__(self):
        self.times: List[float] = []  # wall seconds in cli.main
        self.slowness: List[float] = []  # host slowness around each job (probe.py)
        self.strata: List[str] = []
        self.job_ids: List[str] = []  # traced phase only: span job number -> pool job
        self.passed = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def add(self, job: workloads.Job, seconds: float, passed: bool, slowness: float):
        self.times.append(seconds)
        self.slowness.append(slowness)
        self.strata.append(job.stratum)
        self.passed += passed

    def scaled(self) -> List[float]:
        return list(map(operator.truediv, self.times, self.slowness))


def closed_loop(runner: Runner, jobs, seed: int, seconds: float, between=None) -> Phase:
    """Run whole cycles of the seeded sequence until ``seconds`` have passed.

    ``between(elapsed)`` runs after each cycle; its time is not counted.
    Each job is bracketed by host speed probes.
    """
    phase = Phase()
    cycles = workloads.cycles(jobs, seed)
    before = probe.slowness()
    while phase.wall < seconds or phase.attempted < MIN_JOBS:
        if between is not None:
            between(phase.wall)
            before = probe.slowness()
        start = time.perf_counter()
        for job in next(cycles):
            seconds_, passed = runner.run(job)
            after = probe.slowness()
            phase.add(job, seconds_, passed, (before + after) / 2)
            before = after
        phase.wall += time.perf_counter() - start
    return phase


def traced_loop(runner: Runner, jobs, seed: int, seconds: float, recorder) -> Tuple[Phase, Phase]:
    """Run whole cycles, each job untraced and traced back to back.

    Both runs of a job see the same host speed; which one goes first
    alternates by cycle.  Returns the untraced and the traced phase.
    """
    plain, traced = Phase(), Phase()
    cycles = workloads.cycles(jobs, seed)
    start = time.perf_counter()
    before = probe.slowness()
    for index in count():
        for job in next(cycles):
            for tracing in (False, True) if index % 2 == 0 else (True, False):
                if tracing:
                    recorder.job = traced.attempted
                    traced.job_ids.append(job.id)
                with recorder.installed() if tracing else contextlib.nullcontext():
                    seconds_, passed = runner.run(job)
                after = probe.slowness()
                (traced if tracing else plain).add(job, seconds_, passed, (before + after) / 2)
                before = after
        if time.perf_counter() - start >= seconds:
            break
    plain.wall = traced.wall = time.perf_counter() - start
    return plain, traced


def warm_up(runner: Runner, jobs) -> int:
    """Run the first pool job of each subcommand once, untimed; returns failures."""
    firsts = {}
    for job in jobs:
        firsts.setdefault(job.argv[:2], job)
    return sum(not runner.run(job)[1] for job in firsts.values())


# -- metrics -----------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _job_metrics(times: List[float], passed: int) -> Dict[str, float]:
    return {
        "jobs_per_s": passed / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
    }


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, dict]:
    """Times scaled by the host speed probe (see ``probe.py``)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": setup_s, "peak_rss_mb": rss_kb / 1024, **_job_metrics(phase.scaled(), phase.passed)}
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    import spans

    names = {}
    for layer in spans.LAYERS:
        names[f"{layer}.s"] = "s/job"
        names[f"{layer}.self_s"] = "s/job"
        names[f"{layer}.calls"] = "calls/job"
    names["lattice_dp.robust_value.states_per_s"] = "1/s"
    for name, (unit, _) in spans.COUNTS.items():
        names[name] = unit
    names["check.bitwise_diff_jobs"] = "count"
    names["check.exact_input_failed"] = "count"
    names["trace.overhead_ratio"] = "ratio"
    return names


def per_layer(recorder, traced: Phase, plain: Phase, runner: Runner, exact_failed: int) -> Dict[str, dict]:
    jobs = traced.attempted
    totals = recorder.layer_totals([1 / s for s in traced.slowness])
    values = {}
    for layer, (s, self_s, calls) in totals.items():
        values[f"{layer}.s"] = s / jobs
        values[f"{layer}.self_s"] = self_s / jobs
        values[f"{layer}.calls"] = calls / jobs
    for name, total in recorder.counts.items():
        values[name] = total / jobs
    robust_s = totals["lattice_dp.robust_value"][0]
    level_states = recorder.counts["lattice_dp.robust_value.level_states"]
    values["lattice_dp.robust_value.states_per_s"] = level_states / robust_s if robust_s else 0.0
    values["check.bitwise_diff_jobs"] = runner.bitwise_diff_jobs
    values["check.exact_input_failed"] = exact_failed
    values["trace.overhead_ratio"] = sum(traced.scaled()) / sum(plain.scaled())  # the same jobs
    return {name: _metric(values[name], unit) for name, unit in per_layer_names().items()}


# -- the modes ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, reports = import_package()
    jobs = workloads.pool(workload)
    reference = load_reference(workload)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        runner = Runner(cli, reports, jobs, reference, tmp)
        failed = warm_up(runner, jobs)
        attempted = len({job.argv[:2] for job in jobs})
        if not trace:
            sampler = ImportSampler(seconds)
            phase = closed_loop(runner, jobs, seed, seconds, between=sampler.maybe_sample)
            metrics = end_to_end(phase, sampler.median_scaled())
            phases = [phase]
            print(f"{workload}: {phase.attempted} timed jobs in {phase.wall:.2f} s, seed {seed}")
            raw = _job_metrics(phase.times, phase.passed)
            print(f"unscaled: setup_s {statistics.median(sampler.times):.6g}, "
                  + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
                  + f"; median host slowness {statistics.median(phase.slowness):.3f}")
        else:
            import spans

            exact_jobs = workloads.exact_probe(workload)
            prober = Runner(cli, reports, exact_jobs, None, tmp / "exact")
            exact_failed = sum(not prober.run(job)[1] for job in exact_jobs)
            recorder = spans.Recorder()
            plain, traced = traced_loop(runner, jobs, seed, seconds, recorder)
            metrics = per_layer(recorder, traced, plain, runner, exact_failed)
            trace_file = TRACES / f"spans-{workload}-{seed}.json"
            recorder.write(trace_file, traced.job_ids)
            phases = [plain, traced]
            print(f"{workload}: {plain.attempted} untraced and {traced.attempted} traced jobs, seed {seed}")
            print(f"exact-input probe: {exact_failed} of {len(exact_jobs)} jobs failed")
            for line in prober.errors[:3]:
                print(f"  {line}")
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        for phase in phases:
            attempted += phase.attempted
            failed += phase.attempted - phase.passed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in runner.errors[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own fresh interpreter, one after the other."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SetupError(f"{workload} exited with status {proc.returncode}")
        sub = json.loads(proc.stdout.strip().splitlines()[-1])
        print(proc.stdout.strip().splitlines()[0])
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for name, m in sub["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = m
    for name, m in result["metrics"].items():
        print(f"{name:60s} {m['value']:.6g} {m['unit']}")
    return result


def write_reference(names) -> None:
    """Run every pool job once and store its report cells as the reference."""
    cli, reports = import_package()
    for workload in names:
        jobs = workloads.pool(workload)
        SCRATCH.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=SCRATCH))
        try:
            runner = Runner(cli, reports, jobs, {}, tmp)
            entries = {}
            for job in jobs:
                _, status, error = runner.execute(job)
                if error:
                    raise SetupError(f"{job.id} failed, no reference written: {error.strip()[-300:]}")
                entries[job.id] = {"digest": job.digest(), "reports": checks.read_reports(runner.out[job.id])}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        path = REFERENCE / f"{workload}.json"
        lines = [f"{json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries)]
        path.write_text(f'{{"workload": {json.dumps(workload)}, "jobs": {{\n' + ",\n".join(lines) + "\n}}\n")
        print(f"{path.relative_to(ROOT)}: {len(entries)} jobs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the harness itself")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the current program's outputs as the reference")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        if args.write_reference:
            write_reference([args.workload] if args.workload not in (None, "all") else workloads.WORKLOADS)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
