"""Static SVG line charts for rank trajectories.

Hand-rolled markup keeps the outputs byte-deterministic; rank axes are
drawn inverted so climbing the ranking points up.
"""
from __future__ import annotations

from itertools import groupby
from typing import Mapping, Sequence

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH, _HEIGHT = 860, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 180, 40, 50


def rank_chart_svg(
    title: str,
    x_labels: Sequence[str],
    series: Mapping[str, Sequence[float | None]],
    config_hash: str,
) -> str:
    """Line chart of rank vs. time; None gaps break the line."""
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    values = [v for ys in series.values() for v in ys if v is not None]
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if hi == lo:
        hi = lo + 1.0

    def x_at(i: int) -> float:
        if len(x_labels) == 1:
            return _MARGIN_L + plot_w / 2
        return _MARGIN_L + plot_w * i / (len(x_labels) - 1)

    def y_at(v: float) -> float:
        # rank 1 (best) at the top
        return _MARGIN_T + plot_h * (v - lo) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<!-- config_hash={config_hash} -->",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )
    axis_y = _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_MARGIN_L + plot_w}" y2="{axis_y}" stroke="black"/>'
    )
    for i, label in enumerate(x_labels):
        parts.append(
            f'<text x="{x_at(i):.1f}" y="{axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for tick in (lo, (lo + hi) / 2, hi):
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y_at(tick) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )

    for si, (name, ys) in enumerate(series.items()):
        color = _PALETTE[si % len(_PALETTE)]
        for given, run in groupby(enumerate(ys), key=lambda point: point[1] is not None):
            if not given:
                continue
            seg = [f"{x_at(i):.2f},{y_at(v):.2f}" for i, v in run]
            if len(seg) == 1:
                x, y = seg[0].split(",")
                parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        ly = _MARGIN_T + 14 * si
        parts.append(
            f'<rect x="{_MARGIN_L + plot_w + 12}" y="{ly}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w + 28}" y="{ly + 9}" '
            f'font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
