"""Dependency-free SVG scatter panels for pairwise sample diagnostics.

One square panel per margin pair (s, k), s < k, laid out row-major in a
near-square grid.  Axes are linear from 0 and clipped at the 99.5th
percentile of each margin so single huge draws from the heavy upper tail
do not flatten the cloud; points beyond the clip are dropped, and the
panel title reports how many.  ``log_scale=True`` switches both axes to
log10 over the positive clipped range instead.  Output is deterministic:
fixed layout constants, fixed formatting, no randomness.
"""

from __future__ import annotations

from pathlib import Path

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


def _axis_range(values: np.ndarray, log_scale: bool) -> tuple[float, float]:
    if values.size == 0:
        return (0.0, 1.0)
    hi = float(np.percentile(values, CLIP_PERCENTILE))
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
    parts: list[str],
    xs: np.ndarray,
    ys: np.ndarray,
    s: int,
    k: int,
    ox: float,
    oy: float,
    log_scale: bool,
) -> None:
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

    parts.append(
        f'<rect x="{_fmt(ox)}" y="{_fmt(oy)}" width="{PANEL}" height="{PANEL}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )
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
        # one % over the interleaved coordinates, not one f-string per point
        circle = (
            f'<circle cx="%.2f" cy="%.2f" r="{POINT_RADIUS}" fill="{_POINT_COLOR}" fill-opacity="0.55"/>'
        )
        coords = np.column_stack([px, py]).ravel().tolist()
        parts.append("\n".join([circle] * px.size) % tuple(coords))


def pair_scatter_svg(data, path=None, log_scale: bool = False, pairs=None) -> str:
    """Render pairwise scatter panels for an (n, d) observation matrix.

    ``pairs`` selects 0-based coordinate pairs to render; the default is
    every (s, k) with s < k.  Returns the SVG text; writes it to ``path`` as
    well when given.  Empty batches render empty axes.
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- linear axes from 0, clipped at the {CLIP_PERCENTILE}th percentile per margin -->",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for idx, (s, k) in enumerate(pairs):
        r, c = divmod(idx, ncols)
        ox = GAP + c * cell_w + MARGIN_LEFT
        oy = GAP + r * cell_h + MARGIN_TOP
        _panel_svg(parts, arr[:, s], arr[:, k], s, k, ox, oy, log_scale)
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg
