"""Report rows and their serialization.

Rows serialize to CSV or JSON-lines with a fixed column order; floats
carry 17 significant digits so files round-trip exactly.  A row passes
precisely when its recorded difference does not exceed its recorded
tolerance (for one-sided cases the difference field holds the signed
excess of the left side over the right, so the same rule applies).  A
case that raised is an ``ERROR`` row whose five float fields are empty
(``null`` in JSON lines) and parse back as ``None``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Sequence

from .suites.base import CaseResult

COLUMNS = ("suite", "case_id", "lhs", "rhs", "se_combined", "abs_diff",
           "tolerance", "verdict", "replicates", "seed", "wall_time_ms")

_FLOAT_COLUMNS = {"lhs", "rhs", "se_combined", "abs_diff", "tolerance"}
_INT_COLUMNS = {"replicates", "seed", "wall_time_ms"}


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _row_values(row: CaseResult, include_timing: bool) -> list[str]:
    values = []
    for col in COLUMNS:
        raw = getattr(row, col)
        if col == "wall_time_ms" and not include_timing:
            raw = 0
        if col in _FLOAT_COLUMNS:
            values.append("" if raw is None else fmt_float(raw))
        else:
            values.append(str(raw))
    return values


def render_csv(rows: Sequence[CaseResult], include_timing: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow(_row_values(row, include_timing))
    return buf.getvalue()


def render_jsonl(rows: Sequence[CaseResult], include_timing: bool = False) -> str:
    lines = []
    for row in rows:
        record = {}
        for col, value in zip(COLUMNS, _row_values(row, include_timing)):
            if col in _FLOAT_COLUMNS:
                record[col] = float(value) if value else None
            elif col in _INT_COLUMNS:
                record[col] = int(value)
            else:
                record[col] = value
        lines.append(json.dumps(record, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def write_report(rows: Sequence[CaseResult], path: str | Path, fmt: str = "csv",
                 include_timing: bool = False) -> None:
    if fmt == "csv":
        text = render_csv(rows, include_timing)
    elif fmt == "jsonl":
        text = render_jsonl(rows, include_timing)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def parse_report(text: str, fmt: str = "csv") -> list[dict]:
    """Parse an emitted report back into typed records."""
    records = []
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        rows: Iterable[dict] = reader
    elif fmt == "jsonl":
        rows = (json.loads(line) for line in text.splitlines() if line.strip())
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    for raw in rows:
        record = dict(raw)
        for col in _FLOAT_COLUMNS:
            value = record[col]
            record[col] = None if value in ("", None) else float(value)
        for col in _INT_COLUMNS:
            record[col] = int(record[col])
        records.append(record)
    return records


def summary_lines(rows: Sequence[CaseResult]) -> list[str]:
    lines = []
    for row in rows:
        if row.verdict == "ERROR":
            lines.append(f"[ERROR] {row.suite}/{row.case_id}: {row.error}")
            continue
        lines.append(
            f"[{row.verdict}] {row.suite}/{row.case_id}: "
            f"lhs={row.lhs:.6g} rhs={row.rhs:.6g} diff={row.abs_diff:.3g} "
            f"tol={row.tolerance:.3g}")
    return lines
