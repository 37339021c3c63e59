"""Machine-readable run outputs: RFC-4180 CSV tables of numeric columns
(integers as ``%d``, floats at 17 significant digits, CRLF row ends, never
quoted) and a deterministic JSON summary with floats at 17 significant
digits (exact round-trip). A table is checked whole before its file opens.

The summary is byte-stable for a fixed configuration and seed; wall time and
timestamps go to a separate run_meta.json outside the stability contract.
"""

from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path

import numpy as np

from . import __version__


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_stable(obj) -> str:
    """JSON text with 2-space indent, sorted keys and 17-digit floats.

    A NaN or infinite float raises ValueError naming its key path, so it can
    never reach a summary.
    """
    def encode(value, indent: str, path: str) -> str:
        inner = indent + "  "
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value} at {path}")
            return format_float(value)
        if isinstance(value, dict) and value:
            # non-string keys take their JSON text, as in json.dumps
            items = [inner + json.dumps(k if isinstance(k, str) else encode(k, "", path))
                     + ": " + encode(v, inner, f"{path}.{k}")
                     for k, v in sorted(value.items())]
            return "{\n" + ",\n".join(items) + f"\n{indent}}}"
        if isinstance(value, (list, tuple)) and value:
            items = [inner + encode(v, inner, f"{path}[{i}]")
                     for i, v in enumerate(value)]
            return "[\n" + ",\n".join(items) + f"\n{indent}]"
        return json.dumps(value)

    return encode(obj, "", "$")


def write_summary(out_dir: str | Path, summary: dict) -> Path:
    path = Path(out_dir) / "summary.json"
    path.write_text(dumps_stable(summary) + "\n")
    return path


def _platform_text() -> str:
    """``platform.platform()``'s text on Linux, system-release-machine-with-
    libc, less the processor field, which it leaves out when that reads
    "unknown" or the machine's name. Looking the processor up runs ``uname
    -p`` in a child process (so does iterating ``platform.uname()``), about
    6 ms of every run."""
    text = f"{platform.system()}-{platform.release()}-{platform.machine()}"
    libc, version = platform.libc_ver()
    return f"{text}-with-{libc}{version}" if libc else text


def write_run_meta(out_dir: str | Path, wall_time_s: float, **extra) -> Path:
    meta = {
        "wall_time_s": wall_time_s,
        "timestamp_unix": time.time(),
        "platform": _platform_text(),
        **extra,
    }
    path = Path(out_dir) / "run_meta.json"
    path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return path


_QUOTED = frozenset(',"\r\n')   # the characters csv.QUOTE_MINIMAL quotes a cell for


def _text_cell(value) -> str:
    text = str(value)
    if value is None or not text or not _QUOTED.isdisjoint(text):
        raise ValueError(f"CSV cell {value!r} is empty or would be quoted")
    return text


CHUNK_ROWS = 4096   # rows formatted by one % and written at once


def write_table(out_dir: str | Path, name: str, header: list[str],
                columns) -> Path:
    """One CSV per table: the header row, then row i of every column.

    Columns are 1-D integer or float arrays (or sequences numpy reads as
    such) of one length. Integers are written as ``%d``, floats as float64
    at 17 significant digits; rows end in CRLF and no cell is quoted, so the
    bytes are ``csv.writer``'s over ``format_float`` cells. Everything is
    checked before the file opens, each failure a ValueError: a header cell
    that is empty or would be quoted, a ragged table, a column of any other
    dtype (text, None, bool), and the first NaN or infinity in row order,
    named by its row (from 0 after the header) and column. Rows are written
    ``CHUNK_ROWS`` at a time, each chunk one ``%`` of the row template.
    """
    head = ",".join(map(_text_cell, header)) + "\r\n"
    arrays = [np.asarray(c) for c in columns]
    for column, a in zip(header, arrays):
        if a.ndim != 1 or a.dtype.kind not in "iuf":
            raise ValueError(f"column {column} of table {name} is not a 1-D "
                             f"integer or float array: {a.dtype}, shape {a.shape}")
    if len(arrays) != len(header) or len({a.size for a in arrays}) > 1:
        raise ValueError(f"table {name} is ragged: {len(header)} header cells, "
                         f"column lengths {[a.size for a in arrays]}")
    arrays = [a.astype(np.float64, copy=False) if a.dtype.kind == "f" else a
              for a in arrays]
    bad = [(int(np.argmin(ok)), j) for j, ok in enumerate(map(np.isfinite, arrays))
           if not ok.all()]   # (first non-finite row, column) per column
    if bad:
        row, j = min(bad)
        raise ValueError(f"non-finite value {format_float(arrays[j][row])} in "
                         f"table {name}, row {row}, column {header[j]}")
    template = ",".join("%.17g" if a.dtype.kind == "f" else "%d" for a in arrays)
    n, width = (arrays[0].size if arrays else 0), len(arrays)
    path = Path(out_dir) / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for lo in range(0, n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, n)
            cells = [None] * ((hi - lo) * width)   # row-major, as % reads them
            for j, a in enumerate(arrays):
                cells[j::width] = a[lo:hi].tolist()
            fh.write((template + "\r\n") * (hi - lo) % tuple(cells))
    return path


def versions() -> dict:
    return {
        "braggsim": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
