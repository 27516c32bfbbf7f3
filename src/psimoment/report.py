"""Moment reports and their CSV/JSON serializations.

CSV schema (one row per moment order, floats at 17 significant digits):
    k,mode,x,h_or_delta,actual,predicted_thm,predicted_ms,ratio,wall_seconds
Optional fields are empty.  JSON mirrors the same fields.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

from . import __version__

CSV_COLUMNS = [
    "k", "mode", "x", "h_or_delta", "actual",
    "predicted_thm", "predicted_ms", "ratio", "wall_seconds",
]


def _fmt(v: float | None) -> str:
    return "" if v is None else format(float(v), ".17g")


@dataclass(frozen=True)
class MomentRow:
    k: int
    actual: float | None
    predicted_thm: float | None
    predicted_ms: float | None
    ratio: float | None


@dataclass(frozen=True)
class MomentReport:
    mode: str
    x: float
    h_or_delta: float
    rows: tuple[MomentRow, ...]
    wall_seconds: float


def to_csv(report: MomentReport) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in report.rows:
        w.writerow([
            r.k, report.mode, _fmt(report.x), _fmt(report.h_or_delta),
            _fmt(r.actual), _fmt(r.predicted_thm), _fmt(r.predicted_ms),
            _fmt(r.ratio), _fmt(report.wall_seconds),
        ])
    return out.getvalue()


def to_json(report: MomentReport) -> str:
    return json.dumps({**asdict(report), "version": __version__},
                      indent=2, sort_keys=True) + "\n"


def render_table(report: MomentReport) -> str:
    """Human-readable four-column table (order, actual, formula, ratio)."""
    lines = [f"mode={report.mode} x={report.x:g} param={report.h_or_delta:g}"]
    lines.append(f"{'k':>3}  {'actual':>14}  {'formula':>14}  {'ratio':>8}")
    for r in report.rows:
        actual = f"{r.actual:.5g}" if r.actual is not None else "-"
        pred = f"{r.predicted_thm:.5g}" if r.predicted_thm is not None else "-"
        ratio = f"{r.ratio:.4f}" if r.ratio is not None else "-"
        lines.append(f"{r.k:>3}  {actual:>14}  {pred:>14}  {ratio:>8}")
    return "\n".join(lines) + "\n"


def emit(report: MomentReport, fmt: str, path: str | None) -> None:
    """Write report as csv or json to path, or stdout when path is None."""
    text = to_csv(report) if fmt == "csv" else to_json(report)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
