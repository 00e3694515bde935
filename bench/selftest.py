"""Self-test of the harness: the output check and the failure accounting.

Run as ``python3 bench/run.py --self-test``.  It uses a few small pool jobs
and the real CLI, and checks that

* the stored reference passes with no bitwise difference;
* a reference float with its last bit flipped passes and is counted in
  ``check.bitwise_diff_jobs``;
* a reference value outside the tolerance, a wrong exit status and a CSV
  that its JSON mirror does not regenerate each fail the job;
* a job that raises fails without stopping the closed loop;
* ``BENCHMARK.json``, where present, names exactly the metrics the
  benchmark prints, with the same units.
"""

from __future__ import annotations

import copy
import json
import shutil
import struct
import tempfile
from pathlib import Path

import run
import workloads


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, what: str):
    if not condition:
        raise SelfTestFailure(what)
    print(f"ok  {what}")


def _flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def _float_cells(reports: dict):
    for name, report in reports.items():
        for i, row in enumerate(report["rows"]):
            for j, cell in enumerate(row):
                if isinstance(cell, float) and cell != 0.0:
                    yield name, i, j


def _edit_first_float(entry: dict, edit) -> dict:
    entry = copy.deepcopy(entry)
    name, i, j = next(_float_cells(entry["reports"]))
    row = entry["reports"][name]["rows"][i]
    row[j] = edit(row[j])
    return entry


def check_benchmark_file():
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        print("--  no BENCHMARK.json beside the benchmark; metric names not compared")
        return
    spec = json.loads(path.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches the printed metrics")
    expect(layers == run.per_layer_names(), "BENCHMARK.json per_layer matches the printed metrics")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the generator")


def main() -> int:
    cli, reports = run.import_package()
    pool = workloads.pool("small_jobs")
    reference = run.load_reference("small_jobs")
    picked = {}
    for job in pool:
        if job.stratum in ("eval", "capacity", "lln-sweep", "oracle"):
            picked.setdefault(job.stratum, job)
    jobs = list(picked.values())
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    try:
        runner = run.Runner(cli, reports, jobs, reference, tmp)
        expect(all(runner.run(job)[1] for job in jobs), "every job passes against the stored reference")
        expect(runner.bitwise_diff_jobs == 0, "no bitwise differences against the stored reference")

        target = jobs[0]
        runner.reference = dict(reference, **{target.id: _edit_first_float(reference[target.id], _flip_last_bit)})
        expect(runner.run(target)[1], "a reference float with one flipped bit still passes")
        expect(runner.bitwise_diff_jobs == 1, "... and is counted in check.bitwise_diff_jobs")

        runner.reference = dict(reference, **{target.id: _edit_first_float(reference[target.id], lambda x: x * (1 + 1e-9))})
        expect(not runner.run(target)[1], "a value 1e-9 relative away from the reference fails")
        runner.reference = reference

        broken = workloads.Job("selftest-bad", "eval", ("eval",), {"lattice": {"step": 1}, "generators": []})
        bad_runner = run.Runner(cli, reports, [broken], {}, tmp / "bad")
        seconds, status, error = bad_runner.execute(broken)
        expect(status == 1 and bool(error), "a job with an unexpected exit status fails")

        runner.run(target)
        csv_path = runner.out[target.id] / f"{next(iter(reference[target.id]['reports']))}.csv"
        csv_path.write_bytes(csv_path.read_bytes() + b"\n")
        expect("does not regenerate" in run.checks.check_reports(
            runner.out[target.id], reference[target.id]["reports"], reports.csv_from_json).reason,
            "a CSV that its JSON mirror does not regenerate fails")

        raising = jobs[1]

        def main_raising(argv):
            if str(runner.config[raising.id]) in argv:
                raise RuntimeError("injected failure")
            return cli.main(argv)

        runner.main = main_raising
        runner.errors.clear()
        phase = run.closed_loop(runner, jobs, seed=0, seconds=0.0)
        raised = phase.strata.count(raising.stratum)
        expect(phase.attempted >= run.MIN_JOBS, f"the loop went on after the raising job ({phase.attempted} jobs)")
        expect(phase.attempted - phase.passed == raised > 0, f"exactly the {raised} raising runs failed")
        expect(all("injected failure" in e for e in runner.errors), "the failures carry the exception")
        check_benchmark_file()
    except SelfTestFailure as e:
        print(f"FAIL {e}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed")
    return 0
