"""Minimal deterministic SVG rendering of DoF regions.

Hand-rolled on purpose: output must be byte-identical for identical input,
and the plots are simple enough (a handful of convex polygons on labeled
axes) that a plotting library would only add nondeterminism.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .regions import DofRegion

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 18
MARGIN_BOTTOM = 48

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
)


def _fmt(x: float | int) -> str:
    return f"{x:.2f}" if isinstance(x, float) else str(x)


def _line(x1, y1, x2, y2, color: str = "black", width: int = 1) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"/>')


def _text(x, y, size: int, body, anchor: str = "", vertical=False) -> str:
    x, y = _fmt(x), _fmt(y)
    extra = f' text-anchor="{anchor}"' if anchor else ""
    if vertical:  # read bottom to top, turned about (x, y)
        extra += f' transform="rotate(-90 {x} {y})"'
    return (f'<text x="{x}" y="{y}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def render_regions(entries: Sequence[tuple[str, DofRegion]]) -> str:
    """SVG document showing each (label, region) as a filled polygon."""
    caps = [float(cap) for _, r in entries for cap in (r.d1_cap, r.d2_cap)]
    span = max(caps + [1.0]) * 1.08
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> float:
        return MARGIN_LEFT + v / span * plot_w

    def sy(v: float) -> float:
        return MARGIN_TOP + plot_h - v / span * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    # axes
    x0, y0 = sx(0.0), sy(0.0)
    lines += [
        _line(x0, y0, sx(span), y0),
        _line(x0, y0, x0, sy(span)),
        _text(sx(span / 2), HEIGHT - 10, 14, "d1", "middle"),
        _text(16, sy(span / 2), 14, "d2", "middle", vertical=True),
    ]

    # integer tick marks while they stay readable
    step = 1
    while span / step > 12:
        step *= 2
    tick = step
    while tick < span:
        lines += [
            _line(sx(tick), y0, sx(tick), y0 + 5),
            _text(sx(tick), y0 + 20, 11, tick, "middle"),
            _line(x0 - 5, sy(tick), x0, sy(tick)),
            _text(x0 - 9, sy(tick) + 4, 11, tick, "end"),
        ]
        tick += step

    for i, (label, region) in enumerate(entries):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}"
            for x, y in region.vertices
        )
        if len(region.vertices) >= 3:
            lines.append(
                f'<polygon points="{points}" fill="{color}" fill-opacity="0.12" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        else:
            lines.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )

    # legend, top right
    lx = WIDTH - MARGIN_RIGHT - 230
    ly = MARGIN_TOP + 14
    for i, (label, _) in enumerate(entries):
        color = PALETTE[i % len(PALETTE)]
        y = ly + 18 * i
        lines += [
            _line(lx, y - 4, lx + 24, y - 4, color, 3),
            _text(lx + 30, y, 12, label),
        ]

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(path: str | Path, entries: Sequence[tuple[str, DofRegion]]) -> None:
    Path(path).write_text(render_regions(entries), encoding="utf-8")
