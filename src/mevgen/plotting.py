"""Dependency-free SVG scatter panels for pairwise sample diagnostics.

One square panel per margin pair (s, k), s < k, laid out row-major in a
near-square grid.  Axes are linear from 0 and clipped at the 99.5th
percentile of each margin so single huge draws from the heavy upper tail
do not flatten the cloud; points beyond the clip are dropped, and the
panel title reports how many.  ``log_scale=True`` switches both axes to
log10 over the positive clipped range instead.

A circle stands for the points that fall in one cell of the quarter-pixel
grid: it is drawn at the cell's centre, so no point moves by more than
0.125 px along either axis, and with fill-opacity 1 - 0.45**count, the
exact composite of ``count`` coincident circles at opacity 0.55 (Porter and
Duff 1984, "Compositing digital images").  A panel therefore holds at most
(4 * 240 + 1)**2 circles whatever n is.  Output is deterministic: fixed
layout constants, fixed formatting, cells in order, no randomness.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import DomainError, ShapeError

PANEL = 240
MARGIN_LEFT = 52
MARGIN_BOTTOM = 40
MARGIN_TOP = 26
GAP = 16
POINT_RADIUS = 1.4
CLIP_PERCENTILE = 99.5

_POINT_COLOR = "#33547a"
_AXIS_COLOR = "#333333"
_FONT = "font-family=\"monospace\" font-size=\"11\" fill=\"#333333\""


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` of a nonempty 1-d array, bit for bit, without numpy.ma.

    np.percentile imports numpy.ma, about 14 ms of a ``plot`` process.  This takes the two
    order statistics around its "linear" virtual index (n - 1) * q / 100 by ``np.partition``
    and interpolates as numpy's ``_lerp`` does, from the upper one when the weight is at
    least 1/2.  As in numpy, an index at or past the last takes the last value with the
    weight measured from -1, and a NaN anywhere gives NaN.
    """
    n = values.size
    v = (n - 1) * (q / 100)
    lo, hi = (math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
    part = np.partition(values, sorted({lo % n, hi % n, n - 1}))
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b = part[lo], part[hi]
    t = v - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def _axis_range(values: np.ndarray, log_scale: bool) -> tuple[float, float]:
    if values.size == 0:
        return (0.0, 1.0)
    hi = _percentile(values, CLIP_PERCENTILE)
    if log_scale:
        pos = values[values > 0]
        if pos.size == 0 or hi <= 0:
            return (0.0, 1.0)
        lo = float(np.log10(pos.min()))
        hi = float(np.log10(hi))
    else:
        lo = 0.0
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def _panel_svg(
    xs: np.ndarray, ys: np.ndarray, s: int, k: int, ox: int, oy: int, log_scale: bool
) -> str:
    """The SVG text of the panel of margins ``xs`` and ``ys`` with its corner at (ox, oy)."""
    x_lo, x_hi = _axis_range(xs, log_scale)
    y_lo, y_hi = _axis_range(ys, log_scale)
    if log_scale:
        keep = (xs > 0) & (ys > 0)
        px_val = np.log10(xs[keep])
        py_val = np.log10(ys[keep])
    else:
        px_val = xs
        py_val = ys
    inside = (px_val >= x_lo) & (px_val <= x_hi) & (py_val >= y_lo) & (py_val <= y_hi)
    dropped = int(px_val.size - inside.sum())
    px = ox + (px_val[inside] - x_lo) / (x_hi - x_lo) * PANEL
    py = oy + PANEL - (py_val[inside] - y_lo) / (y_hi - y_lo) * PANEL

    parts = [
        f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{PANEL}" height="{PANEL}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    ]
    title = f"X_{s + 1} vs X_{k + 1}"
    if dropped:
        title += f" ({dropped} clipped)"
    parts.append(f'<text x="{_fmt(ox + PANEL / 2)}" y="{_fmt(oy - 8)}" text-anchor="middle" {_FONT}>{title}</text>')
    parts.append(
        f'<text x="{_fmt(ox + PANEL / 2)}" y="{_fmt(oy + PANEL + 30)}" text-anchor="middle" {_FONT}>X_{s + 1}</text>'
    )
    parts.append(
        f'<text x="{_fmt(ox - 40)}" y="{_fmt(oy + PANEL / 2)}" text-anchor="middle" {_FONT} '
        f'transform="rotate(-90 {_fmt(ox - 40)} {_fmt(oy + PANEL / 2)})">X_{k + 1}</text>'
    )
    lo_txt, hi_txt = (f"1e{x_lo:.3g}", f"1e{x_hi:.3g}") if log_scale else (_fmt(x_lo), _fmt(x_hi))
    parts.append(f'<text x="{_fmt(ox)}" y="{_fmt(oy + PANEL + 14)}" text-anchor="start" {_FONT}>{lo_txt}</text>')
    parts.append(f'<text x="{_fmt(ox + PANEL)}" y="{_fmt(oy + PANEL + 14)}" text-anchor="end" {_FONT}>{hi_txt}</text>')
    lo_txt, hi_txt = (f"1e{y_lo:.3g}", f"1e{y_hi:.3g}") if log_scale else (_fmt(y_lo), _fmt(y_hi))
    parts.append(f'<text x="{_fmt(ox - 4)}" y="{_fmt(oy + PANEL)}" text-anchor="end" {_FONT}>{lo_txt}</text>')
    parts.append(f'<text x="{_fmt(ox - 4)}" y="{_fmt(oy + 10)}" text-anchor="end" {_FONT}>{hi_txt}</text>')
    if px.size:
        # quarter-pixel cells, numbered x-major from the panel's corner; px and py lie
        # in [ox, ox + PANEL] and [oy, oy + PANEL], so each index lies in [0, 4 * PANEL]
        side = 4 * PANEL + 1
        cells = (np.rint(4 * px) - 4 * ox) * side + (np.rint(4 * py) - 4 * oy)
        # np.unique with return_counts, as with return_inverse, does not import numpy.ma
        cells, counts = np.unique(cells.astype(np.int64), return_counts=True)
        cx, cy = np.divmod(cells, side)
        # one % over the interleaved values, not one f-string per circle
        circle = (
            f'<circle cx="%.2f" cy="%.2f" r="{POINT_RADIUS}" fill="{_POINT_COLOR}" fill-opacity="%.3g"/>'
        )
        values = np.column_stack([cx / 4 + ox, cy / 4 + oy, 1 - 0.45**counts]).ravel().tolist()
        parts.append("\n".join([circle] * cells.size) % tuple(values))
    return "\n".join(parts) + "\n"


def pair_scatter_svg(data, path=None, log_scale: bool = False, pairs=None) -> str | None:
    """Render pairwise scatter panels for an (n, d) observation matrix.

    ``pairs`` selects 0-based coordinate pairs to render; the default is
    every (s, k) with s < k.  Returns the SVG text when ``path`` is None.
    Otherwise the text is written to ``path``, one panel at a time, so that
    only one panel's text is held, and None is returned; a regular file is
    replaced only once the whole SVG is written (:func:`mevgen.fileio._write_file`).
    Empty batches render empty axes.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d observation matrix, got ndim={arr.ndim}")
    d = arr.shape[1]
    if d < 2:
        raise DomainError("need at least two margins to plot pairs")
    if pairs is None:
        pairs = [(s, k) for s in range(d) for k in range(s + 1, d)]
    else:
        pairs = [(int(s), int(k)) for s, k in pairs]
        for s, k in pairs:
            if not (0 <= s < d and 0 <= k < d) or s == k:
                raise DomainError(f"pair ({s}, {k}) invalid for dimension {d}")
    if not pairs:
        raise DomainError("no pairs requested")
    ncols = int(np.ceil(np.sqrt(len(pairs))))
    nrows = int(np.ceil(len(pairs) / ncols))
    cell_w = MARGIN_LEFT + PANEL + GAP
    cell_h = MARGIN_TOP + PANEL + MARGIN_BOTTOM
    width = ncols * cell_w + GAP
    height = nrows * cell_h + GAP

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f"<!-- linear axes from 0, clipped at the {CLIP_PERCENTILE}th percentile per margin -->\n"
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n'
    )
    panels = (
        _panel_svg(
            arr[:, s], arr[:, k], s, k,
            GAP + idx % ncols * cell_w + MARGIN_LEFT, GAP + idx // ncols * cell_h + MARGIN_TOP,
            log_scale,
        )
        for idx, (s, k) in enumerate(pairs)
    )
    pieces = chain([head], panels, ["</svg>\n"])
    if path is None:
        return "".join(pieces)
    from .fileio import _write_file  # here only: drawing to a string needs no file layer

    _write_file(path, (piece.encode("utf-8") for piece in pieces))
    return None
