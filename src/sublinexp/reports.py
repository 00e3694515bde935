"""Tabular report emission: CSV with a JSON mirror, written atomically.

The JSON mirror carries exactly the CSV's column names and row values
(plus free-form metadata), so a report round-trips: re-parsing the JSON
regenerates a byte-identical CSV.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


_TEMP_IDS = itertools.count()


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename.  The temp file
    is made with mode 0o666, so the report gets the umask's mode like any file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TEMP_IDS)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_report(
    out_dir,
    name: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    meta: Optional[Dict] = None,
) -> List[Path]:
    """Emit ``<name>.csv`` and ``<name>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"
    atomic_write_text(csv_path, csv_text(columns, rows))
    payload = {"columns": list(columns), "rows": [list(r) for r in rows], "meta": meta or {}}
    atomic_write_text(json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return [csv_path, json_path]


def csv_from_json(json_path) -> str:
    """Regenerate the CSV text from a report's JSON mirror."""
    with open(json_path) as handle:
        payload = json.load(handle)
    return csv_text(payload["columns"], payload["rows"])
