"""Tiny deterministic SVG emitter for the run figures.

Only the primitives the figures need: polylines (optionally dashed), point
markers (circle / plus / cross), straight lines, text, and a linear
data-to-pixel mapping with simple axes.  Output is a plain string built in a
fixed order, so identical inputs give byte-identical files.  Pixel
coordinates are written as ``"%.2f"`` writes them; a polyline's points, and
the pixel values of a set of markers, are formatted in one numpy pass
(``_fmt_points``) that gives the same bytes.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_points(pts: np.ndarray) -> str:
    """``" ".join("%.2f,%.2f" % pt for pt in pts)`` of an (N, 2) float array,
    byte for byte, formatted in one numpy pass.

    Each value v is written from k = rint(y), y = fl(100 v), as |k| // 100,
    ``.`` and |k| % 100 in two digits, after a ``-`` when v's sign bit is set
    (so -0.0 and tiny negatives give ``-0.00``, as ``%`` does).  For
    |y| < 2**52 every half-integer lies on y's float grid, so unless y is
    one, the exact product 100 v, within half an ulp of y, rounds to the
    same integer as y: the correctly rounded digits that ``%`` writes.  A
    value whose y is a half, not finite, or 2**52 or more in size is written
    by ``%`` itself.
    """
    v = pts.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = 100.0 * v
        k = np.rint(y)
        by_percent = ~(np.abs(y) < 2.0**52) | (np.abs(y - k) == 0.5)
    a = np.where(by_percent, 0.0, np.abs(k))  # integers below 2**52, exact in float
    d = len("%d" % (a.max(initial=0.0) // 100))  # integer digits of the widest
    # the bytes of value i are column i: sign, d integer digits, '.', two
    # decimals and the separator (',' after x, ' ' after y).  A zero byte is
    # dropped from the text, so it stands for no sign and for a leading zero;
    # a 1 marks the place of a value that '%' writes.
    cells = np.zeros((d + 5, v.size), np.uint8)
    cells[0] = np.where(by_percent, 1, np.where(np.signbit(v), 45, 0))
    cells[d + 1] = 46
    cells[d + 4, 0::2] = 44
    cells[d + 4, 1::2] = 32
    for row in (d + 3, d + 2, *range(d, 0, -1)):
        t = np.floor(a / 10.0)  # exact: a / 10 rounds below the next integer
        digit = a - 10.0 * t + 48.0
        if row < d:
            digit *= a > 0.0
        cells[row] = digit
        a = t
    cells[1:d + 4, by_percent] = 0
    text = cells.T.tobytes().translate(None, b"\0")[:-1].decode("ascii").split("\x01")
    written = map("%.2f".__mod__, v[by_percent].tolist())
    return text[0] + "".join(map(str.__add__, written, text[1:]))


# canvas size and plot-area margin in pixels
WIDTH, HEIGHT, MARGIN = 720, 540, 56
TICKS = 5  # per axis
MARKER_SIZE = 3.0  # half-width of the plus and cross markers, in pixels
# a marker path's slots as indices into (cx - s, cx, cx + s, cy - s, cy, cy + s);
# a plus has six slots, a cross eight
_PLUS = np.array([0, 4, 2, 1, 3, 5, -1, -1])
_CROSS = np.array([0, 3, 2, 5, 0, 5, 2, 3])


def _span(lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)``, widened when empty: by 1, or past |lo| = 1e9 by 1e-9*|lo|,
    a step that does not round away as 1 does from about 1e16 on."""
    if hi <= lo:
        hi = lo + max(1.0, 1e-9 * abs(lo))
    return lo, hi


class Figure:
    width, height, margin = WIDTH, HEIGHT, MARGIN

    def __init__(
        self,
        xlim: tuple[float, float],
        ylim: tuple[float, float],
        title: str = "",
        xlabel: str = "",
        ylabel: str = "",
        equal_aspect: bool = False,
    ):
        x0, x1 = _span(*xlim)
        y0, y1 = _span(*ylim)
        if equal_aspect:
            # widen the shorter data span so units map to equal pixel lengths;
            # a scale that is 0 or not finite (a span that is not finite, or
            # one so small that the scale overflows) leaves the limits as given
            avail_w = WIDTH - 2 * MARGIN
            avail_h = HEIGHT - 2 * MARGIN
            sx = avail_w / (x1 - x0)
            sy = avail_h / (y1 - y0)
            if 0.0 < sx < sy < math.inf:
                cy = 0.5 * (y0 + y1)
                half = 0.5 * avail_h / sx
                y0, y1 = cy - half, cy + half
            elif 0.0 < sy <= sx < math.inf:
                cx = 0.5 * (x0 + x1)
                half = 0.5 * avail_w / sy
                x0, x1 = cx - half, cx + half
        self.xlim = (x0, x1)
        self.ylim = (y0, y1)
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self._body: list[str] = []

    # _px and _py map a float or a float64 array alike, by the same operations
    def _px(self, x: float | np.ndarray) -> float | np.ndarray:
        x0, x1 = self.xlim
        return MARGIN + (x - x0) / (x1 - x0) * (WIDTH - 2 * MARGIN)

    def _py(self, y: float | np.ndarray) -> float | np.ndarray:
        y0, y1 = self.ylim
        return HEIGHT - MARGIN - (y - y0) / (y1 - y0) * (HEIGHT - 2 * MARGIN)

    def polyline(
        self,
        xs,
        ys,
        stroke: str = "#1f77b4",
        width: float = 1.2,
        dashed: bool = False,
        opacity: float = 1.0,
    ) -> None:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if not keep.any():
            return
        # a finite point far outside the limits maps to inf or nan, silently
        # as Python floats do, and is then printed as such
        with np.errstate(over="ignore", invalid="ignore"):
            px, py = self._px(xs[keep]), self._py(ys[keep])
        pts = _fmt_points(np.column_stack((px, py)))
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        op = f' stroke-opacity="{opacity:g}"' if opacity != 1.0 else ""
        self._body.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width:g}"'
            f"{dash}{op} points=\"{pts}\"/>"
        )

    def line(self, x0, y0, x1, y1, stroke="#000000", width=1.0) -> None:
        self._body.append(
            f'<line x1="{_fmt(self._px(x0))}" y1="{_fmt(self._py(y0))}" '
            f'x2="{_fmt(self._px(x1))}" y2="{_fmt(self._py(y1))}" '
            f'stroke="{stroke}" stroke-width="{width:g}"/>'
        )

    def dot(self, x, y, radius=2.0, fill="#000000") -> None:
        self._body.append(
            f'<circle cx="{_fmt(self._px(x))}" cy="{_fmt(self._py(y))}" '
            f'r="{radius:g}" fill="{fill}"/>'
        )

    def markers(self, xs, ys, crossed, plus="#1f77b4", cross="#d62728") -> None:
        """One ``<path>`` per point, in input order: a plus, or a cross where
        ``crossed`` is set, MARKER_SIZE pixels each way.

        The six pixel values of every point (cx, cy and each +- MARKER_SIZE)
        are formatted in one :func:`_fmt_points` pass, and the paths in one
        ``%`` of their joined templates."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        crossed = np.asarray(crossed, dtype=bool)
        if not xs.size:
            return
        size = MARKER_SIZE
        with np.errstate(over="ignore", invalid="ignore"):
            cx, cy = self._px(xs), self._py(ys)
            six = np.column_stack((cx - size, cx, cx + size, cy - size, cy, cy + size))
        v = _fmt_points(six.reshape(-1, 2)).replace(",", " ").split(" ")
        # each path's slots as indices into its point's six values
        slots = 6 * np.arange(xs.size)[:, None] + np.where(crossed[:, None], _CROSS, _PLUS)
        slots = slots[crossed[:, None] | (_PLUS >= 0)]
        paths = (
            '<path d="M %s %s H %s M %s %s V %s" '
            f'stroke="{plus.replace("%", "%%")}" stroke-width="1" fill="none"/>',
            '<path d="M %s %s L %s %s M %s %s L %s %s" '
            f'stroke="{cross.replace("%", "%%")}" stroke-width="1" fill="none"/>',
        )
        template = "\n".join(map(paths.__getitem__, crossed.tolist()))
        self._body.append(template % itemgetter(*slots.tolist())(v))

    def marker_plus(self, x, y, stroke="#1f77b4") -> None:
        self.markers([x], [y], [False], plus=stroke)

    def marker_cross(self, x, y, stroke="#d62728") -> None:
        self.markers([x], [y], [True], cross=stroke)

    def text(self, x_px: float, y_px: float, s: str, size=12, anchor="start") -> None:
        self._body.append(
            f'<text x="{_fmt(x_px)}" y="{_fmt(y_px)}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}">{s}</text>'
        )

    def _ticks(self, lo: float, hi: float) -> list[float]:
        return [lo + (hi - lo) * i / (TICKS - 1) for i in range(TICKS)]

    def _axes(self) -> list[str]:
        out: list[str] = []
        m, w, h = MARGIN, WIDTH, HEIGHT
        out.append(
            f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
            'fill="none" stroke="#444444" stroke-width="1"/>'
        )
        for xv in self._ticks(*self.xlim):
            px = self._px(xv)
            out.append(
                f'<line x1="{_fmt(px)}" y1="{h - m}" x2="{_fmt(px)}" y2="{h - m + 4}" '
                'stroke="#444444" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(px)}" y="{h - m + 16}" font-size="10" '
                f'font-family="monospace" text-anchor="middle">{xv:.3g}</text>'
            )
        for yv in self._ticks(*self.ylim):
            py = self._py(yv)
            out.append(
                f'<line x1="{m - 4}" y1="{_fmt(py)}" x2="{m}" y2="{_fmt(py)}" '
                'stroke="#444444" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{m - 6}" y="{_fmt(py + 3)}" font-size="10" '
                f'font-family="monospace" text-anchor="end">{yv:.3g}</text>'
            )
        if self.title:
            out.append(
                f'<text x="{w // 2}" y="{m - 10}" font-size="13" '
                f'font-family="monospace" text-anchor="middle">{self.title}</text>'
            )
        if self.xlabel:
            out.append(
                f'<text x="{w // 2}" y="{h - 10}" font-size="11" '
                f'font-family="monospace" text-anchor="middle">{self.xlabel}</text>'
            )
        if self.ylabel:
            out.append(
                f'<text x="14" y="{h // 2}" font-size="11" font-family="monospace" '
                f'text-anchor="middle" transform="rotate(-90 14 {h // 2})">{self.ylabel}</text>'
            )
        return out

    def to_svg(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
            f'width="{WIDTH}" height="{HEIGHT}">\n'
            '<rect width="100%" height="100%" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self._axes() + self._body) + "\n</svg>\n"
