"""SVG scatter panels: determinism, structure, clipping, axis options, pixel cells."""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import mevgen as mg
from mevgen.errors import DomainError, ShapeError
from mevgen.plotting import GAP, MARGIN_LEFT, MARGIN_TOP, PANEL, _percentile, pair_scatter_svg


def _panel_titles(svg: str) -> list[str]:
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [
        el.text
        for el in root.iter(f"{ns}text")
        if el.text and el.text.startswith("X_") and " vs " in el.text
    ]


class TestPairScatter:
    @pytest.mark.parametrize(
        "rows, log_scale, digest",
        [
            (12, False, "acf322b8f4d6b264c246b8f8523e35592427ebabe89b2fed76980aa00ab76a7b"),
            (12, True, "20acd7276a5041325fa4d2c62075bb0016f9230119a4a5bbd165f1631e19630e"),
            (0, False, "2c8114c1ea5dad8b92254bff883cfb5dec3869ba222ccb8b701a9042415b73b6"),
        ],
        ids=["linear", "log", "empty"],
    )
    def test_bytes_are_pinned(self, rows, log_scale, digest):
        data = (np.arange(1.0, 37.0).reshape(12, 3) ** 1.5) % 7.0 + 0.25
        data[5, 1] = 1e9  # clipped from every panel it is in
        svg = pair_scatter_svg(data[:rows], log_scale=log_scale)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    def test_titles_are_pinned(self, log_scale):
        # the titles and clipped counts of the inputs above, as drawn before the points
        # were grouped into cells
        data = (np.arange(1.0, 37.0).reshape(12, 3) ** 1.5) % 7.0 + 0.25
        data[5, 1] = 1e9
        assert _panel_titles(pair_scatter_svg(data, log_scale=log_scale)) == [
            "X_1 vs X_2 (2 clipped)",
            "X_1 vs X_3 (2 clipped)",
            "X_2 vs X_3 (2 clipped)",
        ]

    def test_deterministic_output(self, ex3_spec):
        data = mg.sample_batch(ex3_spec, 300, seed=4).data
        assert pair_scatter_svg(data) == pair_scatter_svg(data)

    def test_all_pairs_by_default(self, ex3_spec):
        data = mg.sample_batch(ex3_spec, 50, seed=4).data
        titles = _panel_titles(pair_scatter_svg(data))
        assert [t.split(" (")[0] for t in titles] == [
            "X_1 vs X_2",
            "X_1 vs X_3",
            "X_2 vs X_3",
        ]

    def test_requested_pairs_only(self, ex3_spec):
        data = mg.sample_batch(ex3_spec, 50, seed=4).data
        titles = _panel_titles(pair_scatter_svg(data, pairs=[(2, 0)]))
        assert len(titles) == 1
        assert titles[0].startswith("X_3 vs X_1")

    def test_writes_file(self, tmp_path, ex3_spec):
        data = mg.sample_batch(ex3_spec, 20, seed=1).data
        out = tmp_path / "fig.svg"
        assert pair_scatter_svg(data, path=out) is None  # streamed, not held
        assert out.read_text() == pair_scatter_svg(data)

    def test_empty_batch_renders_axes(self):
        svg = pair_scatter_svg(np.empty((0, 2)))
        ET.fromstring(svg)  # well-formed
        assert "circle" not in svg

    def test_heavy_tail_is_clipped(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(1.0, 2.0, size=(400, 2))
        data[0, 0] = 1e9  # single huge draw must not survive the clip
        svg = pair_scatter_svg(data)
        assert "clipped)" in svg
        assert "1e+09" not in svg

    def test_log_scale_renders_points(self, ex3_spec):
        data = mg.sample_batch(ex3_spec, 100, seed=2).data
        svg = pair_scatter_svg(data, log_scale=True)
        assert svg.count("<circle") > 0
        ET.fromstring(svg)

    def test_point_count_matches_unclipped_data(self):
        data = np.column_stack([np.linspace(1, 2, 50), np.linspace(2, 3, 50)])
        svg = pair_scatter_svg(data)
        # 50 points, the extreme quantile clip drops at most one per margin
        assert svg.count("<circle") >= 48

    def test_invalid_inputs(self):
        with pytest.raises(ShapeError):
            pair_scatter_svg(np.zeros(5))
        with pytest.raises(DomainError):
            pair_scatter_svg(np.zeros((3, 1)))
        with pytest.raises(DomainError):
            pair_scatter_svg(np.ones((3, 2)), pairs=[(0, 2)])
        with pytest.raises(DomainError):
            pair_scatter_svg(np.ones((3, 2)), pairs=[])


_CIRCLE = re.compile(r'<circle cx="([0-9.]+)" cy="([0-9.]+)" r="1.4" fill="#33547a" fill-opacity="([0-9.]+)"/>')

#: The count of points behind each fill-opacity, for counts up to 9.
_COUNTS = {f"{1 - 0.45**count:.3g}": count for count in range(1, 10)}


def _pixels(data: np.ndarray) -> np.ndarray:
    """The unclipped points of a one-panel linear plot of positive ``data``, in pixels."""
    x, y = data.T
    x_hi, y_hi = np.percentile(x, 99.5), np.percentile(y, 99.5)
    keep = (x <= x_hi) & (y <= y_hi)
    ox, oy = GAP + MARGIN_LEFT, GAP + MARGIN_TOP
    return np.column_stack([ox + x[keep] / x_hi * PANEL, oy + PANEL - y[keep] / y_hi * PANEL])


class TestPixelCells:
    def test_circles_sit_on_quarter_pixels_within_an_eighth_of_their_points(self):
        rng = np.random.default_rng(8)
        data = 1.0 / rng.random((400, 2))  # a heavy tail: some points are clipped
        data[200:300] = data[:100]  # and many cells hold more than one
        circles = _CIRCLE.findall(pair_scatter_svg(data))
        centres = np.array([(float(cx), float(cy)) for cx, cy, _ in circles])
        points = _pixels(data)
        assert np.array_equal(centres * 4, np.rint(centres * 4))
        gap = np.abs(centres[:, None, :] - points[None, :, :]).max(axis=2)  # per axis
        assert gap.min(axis=1).max() <= 0.125  # each circle is near a point
        assert gap.min(axis=0).max() <= 0.125  # and each point near a circle
        counts = [_COUNTS[opacity] for _, _, opacity in circles]
        assert sum(counts) == len(points) < 400
        assert len(circles) < len(points)

    def test_circle_count_does_not_grow_with_n(self):
        grid = np.stack(np.meshgrid(np.arange(1.0, 9.0), np.arange(1.0, 9.0)), axis=-1)
        grid = grid.reshape(-1, 2)  # 64 points a pixel grid keeps apart
        svgs = [pair_scatter_svg(np.tile(grid, (reps, 1))) for reps in (10, 100)]
        assert [svg.count("<circle") for svg in svgs] == [64, 64]
        assert "clipped)" not in svgs[1]


class TestPercentile:
    @pytest.mark.parametrize("q", [99.5, 0.0, 37.5, 50.0, 99.9, 100.0])
    def test_bits_equal_np_percentile(self, q):
        rng = np.random.default_rng(int(q * 10))
        cases = [np.array(v) for v in ([3.0], [2.0, 1.0], [-0.0], [0.0, -0.0], [1.0, np.nan, 3.0])]
        cases += [np.array([np.inf, 1.0]), np.array([-np.inf, np.inf])]
        for n in [1, 2, 3, 8, 199, 200, 201, 1000]:
            cases.append(rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5))
            cases.append(rng.integers(0, 3, n).astype(np.float64))  # ties
            cases.append(1.0 / rng.random(n))  # a heavy upper tail, as the samples have
        for values in cases:
            with np.errstate(invalid="ignore"):
                want = np.float64(np.percentile(values, q))
                got = np.float64(_percentile(values.copy(), q))
            assert got.tobytes() == want.tobytes(), (values, q)
