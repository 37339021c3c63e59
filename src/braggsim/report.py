"""Machine-readable run outputs: RFC-4180 CSV tables and a deterministic
JSON summary with floats at 17 significant digits (exact round-trip).

The summary is byte-stable for a fixed configuration and seed; wall time and
timestamps go to a separate run_meta.json outside the stability contract.
"""

from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path


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


def write_run_meta(out_dir: str | Path, wall_time_s: float, **extra) -> Path:
    meta = {
        "wall_time_s": wall_time_s,
        "timestamp_unix": time.time(),
        "platform": platform.platform(),
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


def _row_text(table: str, header, index: int, row) -> str:
    # format_float's rule inline: a call per cell is ~a quarter of the time
    line = ",".join([format(v, ".17g") if isinstance(v, float) else _text_cell(v)
                     for v in row])
    if "n" in line:   # "nan" and "inf" hold the only n a number's text can
        for column, cell in zip(header, line.split(",")):
            if cell in ("nan", "inf", "-inf"):
                raise ValueError(f"non-finite value {cell} in table {table}, "
                                 f"row {index}, column {column}")
    return line + "\r\n"


def write_table(out_dir: str | Path, name: str, header: list[str],
                rows) -> Path:
    """One CSV per table, header row, floats at 17 significant digits.

    The bytes are those of ``csv.writer`` under QUOTE_MINIMAL, CRLF row ends
    included, each row joined without it; an empty cell, or one it would
    quote, raises ValueError, and so does a NaN or infinite value, naming
    its row (counted from 0 after the header) and column. A table that
    fails is removed, so no partial CSV is left behind.
    """
    path = Path(out_dir) / f"{name}.csv"
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(",".join(map(_text_cell, header)) + "\r\n")
            fh.writelines(_row_text(name, header, i, row)
                          for i, row in enumerate(rows))
    except BaseException:
        path.unlink()
        raise
    return path


def versions() -> dict:
    import numpy

    from . import __version__

    return {
        "braggsim": __version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
