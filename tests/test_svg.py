import math
import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from kepler_billiard.svg import Figure


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
