"""The report writer that dumps the whole payload, kept as the byte reference for
``reports.write_report``.

The CSV goes through ``csv_text`` below and the JSON mirror through
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, each written through
an ``fdopen`` text layer.  ``tests/test_report_reference.py`` checks that the
package's writer gives the same bytes.
"""

import csv
import io
import json
import os
from pathlib import Path


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _write_text(path: Path, text: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_report(out_dir, name, columns, rows, meta=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"
    _write_text(csv_path, csv_text(columns, rows))
    payload = {"columns": list(columns), "rows": [list(r) for r in rows], "meta": meta or {}}
    _write_text(json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return [csv_path, json_path]
