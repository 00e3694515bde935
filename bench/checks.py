"""Output check: every job's reports against the stored reference.

A job passes when it exits 0, each expected report exists, its JSON mirror
regenerates its CSV byte for byte (``reports.csv_from_json``), and every
cell matches the reference: integers, strings and verdicts exactly, floats
within ``REL_TOL`` relative.  Floats that pass only by the tolerance are
reported, so a job whose values moved in the last bits is counted in
``check.bitwise_diff_jobs``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

REL_TOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    ok: bool
    bitwise_diff: bool = False
    reason: str = ""


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def compare_cell(got, want) -> Optional[str]:
    """None if ``got`` matches ``want`` bitwise, "close" within tolerance, else "differs"."""
    if isinstance(want, float):
        if not isinstance(got, float):
            return "differs"
        if _same_bits(got, want):
            return None
        return "close" if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0) else "differs"
    if type(got) is not type(want) or got != want:
        return "differs"
    return None


def check_reports(out_dir: Path, expected: Dict[str, dict], csv_from_json) -> Verdict:
    """Compare the reports a job wrote under ``out_dir`` with ``expected``.

    ``expected`` maps report name to ``{"columns": [...], "rows": [[...]]}``.
    """
    bitwise_diff = False
    for name, want in expected.items():
        csv_path = out_dir / f"{name}.csv"
        json_path = out_dir / f"{name}.json"
        try:
            payload = json.loads(json_path.read_text())
            csv_bytes = csv_path.read_bytes()
        except (OSError, ValueError) as e:
            return Verdict(False, reason=f"{name}: unreadable report ({e})")
        if csv_from_json(json_path).encode() != csv_bytes:
            return Verdict(False, reason=f"{name}: JSON mirror does not regenerate the CSV")
        if payload.get("columns") != want["columns"]:
            return Verdict(False, reason=f"{name}: columns {payload.get('columns')}")
        rows = payload.get("rows")
        if not isinstance(rows, list) or len(rows) != len(want["rows"]):
            return Verdict(False, reason=f"{name}: row count differs")
        for i, (got_row, want_row) in enumerate(zip(rows, want["rows"])):
            if len(got_row) != len(want_row):
                return Verdict(False, reason=f"{name}: row {i} width differs")
            for col, got, cell in zip(want["columns"], got_row, want_row):
                result = compare_cell(got, cell)
                if result == "differs":
                    return Verdict(False, reason=f"{name}: row {i} {col} = {got!r}, want {cell!r}")
                bitwise_diff |= result == "close"
    return Verdict(True, bitwise_diff)


def read_reports(out_dir: Path) -> Dict[str, dict]:
    """Columns and rows of every JSON report under ``out_dir`` (for the reference)."""
    found = {}
    for path in sorted(out_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        found[path.stem] = {"columns": payload["columns"], "rows": payload["rows"]}
    return found
