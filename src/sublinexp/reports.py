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
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import InputError

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cell(value):
    """A value's CSV cell and JSON item; a numpy scalar is read with ``.item()``."""
    t = type(value)
    if t is float:
        s = repr(value)
        return s, _NON_FINITE.get(s, s)
    if t is str:
        return value, json.encoder.encode_basestring_ascii(value)
    if t is int or t is bool:
        s = repr(value) if t is int else "true" if value else "false"
        return s, s
    if value is None:
        return "None", "null"
    if isinstance(value, np.generic):
        return _cell(value.item())
    raise InputError("BAD_REPORT", f"cannot write the report cell {value!r}")


def _json_list(items: List[str], indent: str) -> str:
    """The JSON texts ``items`` as a list whose items stand at ``indent``."""
    return "[\n" + indent + (",\n" + indent).join(items) + "\n" + indent[2:] + "]" if items else "[]"


def _texts(columns: Sequence[str], rows: Sequence[Sequence], meta: Dict):
    """The CSV text and the JSON mirror's text of a report, each cell formatted once;
    the mirror has the bytes of ``json.dumps(payload, indent=2, sort_keys=True)``."""
    head, *body = [[_cell(v) for v in row] for row in (columns, *rows)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([c for c, _ in row] for row in (head, *body))
    columns_json = _json_list([j for _, j in head], "    ")
    meta_json = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
    rows_json = _json_list([_json_list([j for _, j in row], "      ") for row in body], "    ")
    mirror = f'{{\n  "columns": {columns_json},\n  "meta": {meta_json},\n  "rows": {rows_json}\n}}\n'
    return buf.getvalue(), mirror


def csv_text(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    return _texts(columns, rows, {})[0]


_TEMP_IDS = itertools.count()


def _atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename.  The temp file
    is made with mode 0o666, so the report gets the umask's mode like any file."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{next(_TEMP_IDS)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(os.fspath(path), text.encode("utf-8"))


def write_report(
    out_dir,
    name: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    meta: Optional[Dict] = None,
) -> List[str]:
    """Emit ``<name>.csv`` and ``<name>.json`` (UTF-8) under ``out_dir``.  A cell that
    cannot be written is ``BAD_REPORT`` before any file is touched, and a directory
    or file that cannot be made or replaced is ``BAD_OUT``."""
    data = [text.encode("utf-8") for text in _texts(columns, rows, meta or {})]
    out_dir = os.fspath(out_dir)
    paths = [os.path.join(out_dir, f"{name}.{ext}") for ext in ("csv", "json")]
    try:
        if not os.path.isdir(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        for path, payload in zip(paths, data):
            _atomic_write(path, payload)
    except OSError as e:
        raise InputError("BAD_OUT", f"cannot write report {name!r} under {out_dir!r}: {e}") from None
    return paths


def csv_from_json(json_path) -> str:
    """Regenerate the CSV text from a report's JSON mirror."""
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return csv_text(payload["columns"], payload["rows"])
