import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kepler_billiard.svg import Figure, _fmt_points


def _points_per_point(fig: Figure, xs, ys) -> str:
    """The points of a polyline, one point at a time: the oracle of the
    array form, from the generator Figure.polyline used before it."""
    return " ".join(
        f"{fig._px(x):.2f},{fig._py(y):.2f}"
        for x, y in zip(map(float, xs), map(float, ys))
        if math.isfinite(x) and math.isfinite(y)
    )


# every float, NaN and both infinities included, and a share of values on
# the scale of the plot
coords = st.one_of(st.floats(), st.floats(-10.0, 10.0))
limits = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))


class TestPolyline:
    @given(
        points=st.lists(st.tuples(coords, coords), max_size=40),
        xlim=limits,
        ylim=limits,
        equal_aspect=st.booleans(),
        as_array=st.booleans(),
    )
    @example(points=[], xlim=(0.0, 1.0), ylim=(0.0, 1.0), equal_aspect=False, as_array=True)
    @example(points=[(math.nan, 1.0), (2.0, math.inf), (-math.inf, -math.inf)],
             xlim=(0.0, 1.0), ylim=(0.0, 1.0), equal_aspect=False, as_array=True)
    @example(points=[(math.nan, 1.0), (2.0, math.inf)],
             xlim=(0.0, 1.0), ylim=(0.0, 1.0), equal_aspect=False, as_array=False)
    # finite points whose pixel coordinates overflow to inf
    @example(points=[(1e308, -1e308), (-1e308, 0.5), (0.5, 0.5)],
             xlim=(0.0, 1.0), ylim=(0.0, 1.0), equal_aspect=False, as_array=True)
    def test_matches_per_point_form(self, points, xlim, ylim, equal_aspect, as_array):
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        fig = Figure(xlim, ylim, equal_aspect=equal_aspect)
        expected = _points_per_point(fig, xs, ys)
        if as_array:
            xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fig.polyline(xs, ys, dashed=True, opacity=0.5)
        if not expected:
            # no finite point: nothing is drawn
            assert fig._body == []
        else:
            assert fig._body == [
                '<polyline fill="none" stroke="#1f77b4" stroke-width="1.2"'
                ' stroke-dasharray="6 4" stroke-opacity="0.5"'
                f' points="{expected}"/>'
            ]


# values whose 100 v lies at or next to a rounding tie: 0.125 and 0.375 are
# ties that '%' rounds to even; 2.675 and (k + 1/2)/100 lie off the tie,
# while fl(100 v) may land on it
HALVES = [(k + 0.5) / 100
          for k in (0, 1, 2, 12, 267, 1234, 10**6 + 7, 10**9 + 3, 10**12 + 5, 10**14 - 1, 10**14)]
TIES = [0.125, 0.375, 2.675] + [
    w for v in HALVES for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -5e-324, -0.004,
           2.0**52 / 100, 2.0**52]
# every float, subnormals, signed zeros, infinities, NaN and magnitudes up to
# 1e300 included, and a share of values on the scale of a figure
values = st.one_of(st.floats(allow_subnormal=True), st.floats(-1e300, 1e300), st.floats(-1e3, 1e3))


class TestFormatPoints:
    """The array formatter of polyline points is '%.2f' byte for byte."""

    @given(points=st.lists(st.tuples(values, values), min_size=1, max_size=30))
    @example(points=[(v, -v) for v in TIES])
    @example(points=[(v, -v) for v in SPECIAL])
    def test_matches_percent(self, points):
        expected = " ".join("%.2f,%.2f" % pt for pt in points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _fmt_points(np.array(points, dtype=float)) == expected
            # through polyline, on a figure whose pixel maps are the identity
            fig = Figure((0.0, 1.0), (0.0, 1.0))
            fig._px = fig._py = lambda v: v
            fig.polyline([x for x, _ in points], [y for _, y in points])
        drawn = [pt for pt in points if math.isfinite(pt[0]) and math.isfinite(pt[1])]
        if drawn:
            assert fig._body[0].endswith(
                ' points="' + " ".join("%.2f,%.2f" % pt for pt in drawn) + '"/>')
        else:
            assert fig._body == []


def _marker_per_point(fig: Figure, x: float, y: float, crossed: bool,
                      plus: str = "#1f77b4", cross: str = "#d62728") -> str:
    """One marker's path as Figure.marker_plus and marker_cross wrote it,
    one point at a time: the oracle of Figure.markers."""
    cx, cy, s = fig._px(x), fig._py(y), 3.0
    if crossed:
        d = "M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f" % (
            cx - s, cy - s, cx + s, cy + s, cx - s, cy + s, cx + s, cy - s)
    else:
        d = "M %.2f %.2f H %.2f M %.2f %.2f V %.2f" % (cx - s, cy, cx + s, cx, cy - s, cy + s)
    return f'<path d="{d}" stroke="{cross if crossed else plus}" stroke-width="1" fill="none"/>'


def _check_markers(fig: Figure, points, **strokes) -> None:
    """markers draws every point's old path in input order, as one body
    entry, and the one-point forms draw the same paths one entry each."""
    expected = [_marker_per_point(fig, x, y, c, **strokes) for x, y, c in points]
    one = Figure(fig.xlim, fig.ylim)
    one._px, one._py = fig._px, fig._py
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fig.markers([x for x, _, _ in points], [y for _, y, _ in points],
                    np.array([c for _, _, c in points], dtype=bool), **strokes)
        for x, y, c in points:
            if c:
                one.marker_cross(x, y, stroke=strokes.get("cross", "#d62728"))
            else:
                one.marker_plus(x, y, stroke=strokes.get("plus", "#1f77b4"))
    assert fig._body == (["\n".join(expected)] if expected else [])
    assert one._body == expected


class TestMarkers:
    """Figure.markers writes the per-point paths of marker_plus and
    marker_cross byte for byte, in input order."""

    @given(points=st.lists(st.tuples(coords, coords, st.booleans()), max_size=30),
           xlim=limits, ylim=limits)
    @example(points=[], xlim=(0.0, 1.0), ylim=(0.0, 1.0))
    # pluses and crosses interleaved: drawn by kind they would reorder
    @example(points=[(0.1, 0.2, True), (0.3, 0.4, False), (0.5, 0.6, False), (0.7, 0.8, True)],
             xlim=(0.0, 1.0), ylim=(0.0, 1.0))
    @example(points=[(math.nan, 1.0, False), (2.0, math.inf, True), (-math.inf, math.nan, True),
                     (1e308, -1e308, False)],
             xlim=(0.0, 1.0), ylim=(0.0, 1.0))
    def test_matches_per_point_form(self, points, xlim, ylim):
        _check_markers(Figure(xlim, ylim), points)

    @given(points=st.lists(st.tuples(values, values, st.booleans()), min_size=1, max_size=20))
    @example(points=[(v, -v, i % 2 == 1) for i, v in enumerate(TIES)])
    @example(points=[(v, -v, i % 3 == 0) for i, v in enumerate(SPECIAL)])
    # pixel values whose +- 3 lands on an exact half
    @example(points=[(k / 8.0, -k / 8.0, k % 2 == 0) for k in range(-40, 41)])
    def test_pixel_values_match_percent(self, points):
        # on a figure whose pixel maps are the identity, so that the values
        # and their ties are chosen directly
        fig = Figure((0.0, 1.0), (0.0, 1.0))
        fig._px = fig._py = lambda v: v
        _check_markers(fig, points)

    def test_custom_strokes(self):
        fig = Figure((0.0, 10.0), (0.0, 10.0))
        _check_markers(fig, [(1.0, 2.0, False), (3.0, 4.0, True)],
                       plus="rgb(10%, 20%, 30%)", cross="#00ff00")


class TestEqualAspect:
    @pytest.mark.parametrize("xlim, ylim", [
        ((-1e308, 1e308), (0.0, 1.0)),
        ((0.0, 1.0), (-1e308, 1e308)),
        ((0.0, math.inf), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, math.inf)),
    ])
    def test_span_not_finite_keeps_limits(self, xlim, ylim):
        # the scale of a span that is not finite is 0: equal-aspect widening
        # leaves the limits as given, and the figure is the one without it
        figs = [Figure(xlim, ylim, title="t", equal_aspect=eq) for eq in (True, False)]
        for fig in figs:
            fig.polyline([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
            fig.dot(0.5, 0.5)
        assert figs[0].xlim == figs[1].xlim and figs[0].ylim == figs[1].ylim
        assert figs[0].to_svg() == figs[1].to_svg()
