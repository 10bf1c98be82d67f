"""Deterministic CSV, JSON and SVG emission.

CSV is the canonical data format; headers carry explicit units.  A table is
given column by column, each column a numpy array.  A float column is
rendered with ``%.12g`` and any other dtype (integer, boolean, complex,
unicode) with ``%s``, so repeated runs with identical inputs produce
byte-identical files.  A NaN or infinity is refused, as in JSON, and so is
a column of any other dtype, such as an object array.  Each
column is converted to Python values with ``.tolist()`` once per slice of
rows.  The SVG plot is a dependency-free polyline with axis ticks, adequate
for eyeballing a fidelity curve; a curve of more than two points per pixel
column is drawn through each column's lowest and highest point.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["write_csv", "write_json", "write_svg_plot"]

# Rows converted to Python values at a time.  Slices of 1024 rows raised the
# peak RSS of a spectrum + phij + couplings + validate process by about
# 0.3 MB, and whole columns by about 1.5 MB; slices of 256 rows keep it at the
# row-by-row writer's, at the same speed.
_SLICE_ROWS = 256
# The dtype kinds a CSV column may have: float, complex, signed and unsigned
# integer, boolean and unicode.
_CSV_KINDS = "fciubU"
# SVG canvas size in pixels, and the number of ticks an axis aims at.
_SVG_WIDTH, _SVG_HEIGHT = 640, 440
_TICKS = 6


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write the header and one line per row of the equal-length array ``columns``.

    Each column is a numpy array, converted with ``.tolist()``: a float
    column prints with ``%.12g`` (a float32 as the double it widens to), any
    other dtype with ``%s``.  Before the file's directory is created, a
    ValueError refuses a column of a dtype kind outside ``_CSV_KINDS``
    (an object array could hide an infinity) and, as ``write_json`` does, a
    NaN or infinity in a float or complex column; a list or tuple column
    raises an AttributeError.
    """
    n_rows = len(columns[0]) if len(columns) else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    for i, column in enumerate(columns):
        name = header[i] if i < len(header) else i
        if column.dtype.kind not in _CSV_KINDS:
            raise ValueError(f"CSV column {name!r} has dtype {column.dtype}, "
                             "not a number, boolean or string")
        if column.dtype.kind in "fc" and not np.isfinite(column).all():
            raise ValueError(f"non-finite value in CSV column {name!r}")
    line = ",".join("%.12g" if column.dtype.kind == "f" else "%s" for column in columns) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _SLICE_ROWS):
            values = [column[start:start + _SLICE_ROWS].tolist() for column in columns]
            fh.write("".join(map(line.__mod__, zip(*values))))


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def _span(lo: float, hi: float) -> tuple[float, float]:
    """lo and hi, or lo and lo + 1 where the %.12g tick labels cannot resolve the
    span, which is drawn flat: its tick step can fall under half an ulp and never move a tick."""
    return (lo, hi) if hi - lo > 1e-12 * max(abs(lo), abs(hi)) else (lo, lo + 1.0)


def _ticks(lo: float, hi: float) -> list[float]:
    lo, hi = _span(lo, hi)
    raw = (hi - lo) / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo]


def _drawn(x: np.ndarray, y: np.ndarray, columns: int) -> tuple[list, list]:
    """The polyline's points as Python floats, in input order: all of them, or
    beyond two per pixel column the first, the last and each column's lowest
    and highest, so a 10**5-point gate curve writes a 17 kB SVG."""
    n = len(y)
    if n > 2 * columns:
        keep = {0, n - 1}
        for cols in np.array_split(np.arange(n), columns):
            keep.update((cols[y[cols].argmin()], cols[y[cols].argmax()]))
        idx = sorted(keep)
        x, y = x[idx], y[idx]
    return x.tolist(), y.tolist()


def write_svg_plot(
    path: Path,
    x: Sequence[float],
    y: Sequence[float],
    xlabel: str,
    ylabel: str,
    title: str,
) -> None:
    """Polyline plot of y(x) with tick marks and axis labels that span every point."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    margin_l, margin_r, margin_t, margin_b = 70, 20, 36, 56
    pw = width - margin_l - margin_r
    ph = height - margin_t - margin_b
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_lo, x_hi = _span(float(x.min()), float(x.max()))
    y_lo, y_hi = _span(float(y.min()), float(y.max()))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v: float) -> float:
        return margin_l + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v: float) -> float:
        return margin_t + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(*_drawn(x, y, pw)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{margin_t + ph}" x2="{px:.2f}" '
            f'y2="{margin_t + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{margin_t + ph + 20}" font-size="12" '
            f'text-anchor="middle">{t:.12g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{py:.2f}" x2="{margin_l}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{t:.12g}</text>'
        )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{margin_l + pw / 2:.1f}" y="{height - 14}" font-size="14" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + ph / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {margin_t + ph / 2:.1f})">{ylabel}</text>'
    )
    parts.append(
        f'<text x="{margin_l + pw / 2:.1f}" y="22" font-size="14" '
        f'text-anchor="middle">{title}</text>'
    )
    parts.append("</svg>")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(parts) + "\n")
