"""Tiny deterministic SVG emitter for the run figures.

Only the primitives the figures need: polylines (optionally dashed), point
markers (circle / plus / cross), straight lines, text, and a linear
data-to-pixel mapping with simple axes.  Output is a plain string built in a
fixed order, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np


def _fmt(v: float) -> str:
    return f"{v:.2f}"


# canvas size and plot-area margin in pixels
WIDTH, HEIGHT, MARGIN = 720, 540, 56
TICKS = 5  # per axis
MARKER_SIZE = 3.0  # half-width of the plus and cross markers, in pixels


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
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
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

    def marker_plus(self, x, y, stroke="#1f77b4") -> None:
        cx, cy, size = self._px(x), self._py(y), MARKER_SIZE
        self._body.append(
            f'<path d="M {_fmt(cx - size)} {_fmt(cy)} H {_fmt(cx + size)} '
            f'M {_fmt(cx)} {_fmt(cy - size)} V {_fmt(cy + size)}" '
            f'stroke="{stroke}" stroke-width="1" fill="none"/>'
        )

    def marker_cross(self, x, y, stroke="#d62728") -> None:
        cx, cy, size = self._px(x), self._py(y), MARKER_SIZE
        self._body.append(
            f'<path d="M {_fmt(cx - size)} {_fmt(cy - size)} L {_fmt(cx + size)} {_fmt(cy + size)} '
            f'M {_fmt(cx - size)} {_fmt(cy + size)} L {_fmt(cx + size)} {_fmt(cy - size)}" '
            f'stroke="{stroke}" stroke-width="1" fill="none"/>'
        )

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
