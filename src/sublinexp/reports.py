"""Tabular report emission: CSV with a JSON mirror, written atomically.

The JSON mirror carries exactly the CSV's column names and row values
(plus free-form metadata), so a report round-trips: re-parsing the JSON
regenerates a byte-identical CSV.
"""

from __future__ import annotations

import csv
import errno
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
    try:  # a numpy scalar is its .item(), as in a cell; what json cannot encode is refused
        meta_json = json.dumps(meta, indent=2, sort_keys=True, default=np.generic.item).replace("\n", "\n  ")
    except (TypeError, ValueError):
        raise InputError("BAD_REPORT", f"cannot write the report meta {meta!r}") from None
    rows_json = _json_list([_json_list([j for _, j in row], "      ") for row in body], "    ")
    mirror = f'{{\n  "columns": {columns_json},\n  "meta": {meta_json},\n  "rows": {rows_json}\n}}\n'
    return buf.getvalue(), mirror


_TEMP_IDS = itertools.count()


def _atomic_write(paths: Sequence[str], payloads: Sequence[bytes]) -> None:
    """Write each payload to a temp file beside its path, then rename them all: a path that
    is a directory is refused first, so a failure replaces none and leaves no temp file."""
    temps, renamed = [], 0
    try:
        for path, data in zip(paths, payloads):
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{next(_TEMP_IDS)}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask's mode
            temps.append(tmp)
            try:
                written = 0
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)
        for path in paths:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
            renamed += 1
    except BaseException:
        for tmp in temps[renamed:]:
            os.unlink(tmp)
        raise


def write_report(
    out_dir,
    name: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    meta: Optional[Dict] = None,
) -> List[str]:
    """Emit ``<name>.csv`` and ``<name>.json`` (UTF-8) under ``out_dir``.  A cell or
    ``meta`` value that cannot be written is ``BAD_REPORT`` before any file is touched,
    and a directory or file that cannot be made or replaced is ``BAD_OUT``: a target
    that is a directory is found before either file is replaced."""
    data = [text.encode("utf-8") for text in _texts(columns, rows, meta or {})]
    out_dir = os.fspath(out_dir)
    paths = [os.path.join(out_dir, f"{name}.{ext}") for ext in ("csv", "json")]
    try:
        if not os.path.isdir(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        _atomic_write(paths, data)
    except OSError as e:
        raise InputError("BAD_OUT", f"cannot write report {name!r} under {out_dir!r}: {e}") from None
    return paths


def csv_from_json(json_path) -> str:
    """Regenerate the CSV text from a report's JSON mirror."""
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return _texts(payload["columns"], payload["rows"], {})[0]
