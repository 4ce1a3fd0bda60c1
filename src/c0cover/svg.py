"""Deterministic SVG rendering of packs and covers.

Points are drawn from the pack's 2D coordinates, boundary highlighted,
cover members as translucent convex hulls in a fixed palette and order.
"""

from __future__ import annotations

import numpy as np

from .covers import Cover
from .errors import NoCoordinates
from .packs import DiscretePack

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain; degenerate inputs return themselves."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def emit_svg(pack: DiscretePack, cover: Cover | None = None) -> str:
    """Render the pack (and optionally a cover) as a standalone SVG document."""
    coords = pack.coords
    if coords is None or coords.ndim != 2 or coords.shape[1] not in (1, 2):
        raise NoCoordinates("pack carries no 1D or 2D coordinates")
    if coords.shape[1] == 1:
        coords = np.column_stack([coords[:, 0], np.zeros(len(coords))])
    size = 480.0
    pad = 0.08
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (1 - 2 * pad) * size / span.max()

    # every point's drawn (x, y), rounded once: point p is at xy[p]
    px = (coords[:, 0] - lo[0]) * scale + pad * size
    py = size - ((coords[:, 1] - lo[1]) * scale + pad * size)
    xy = list(zip(np.round(px, 3).tolist(), np.round(py, 3).tolist()))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="0 0 {size:g} {size:g}">',
        f'<rect width="{size:g}" height="{size:g}" fill="white"/>',
    ]
    if cover is not None:
        for i, member in enumerate(cover.members):
            color = PALETTE[i % len(PALETTE)]
            hull = _hull([xy[p] for p in sorted(member)])
            if len(hull) == 1:
                x, y = hull[0]
                parts.append(
                    f'<circle cx="{x}" cy="{y}" r="6" fill="{color}" fill-opacity="0.25"/>'
                )
            elif len(hull) == 2:
                (x1, y1), (x2, y2) = hull
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{color}" '
                    f'stroke-opacity="0.45" stroke-width="7" stroke-linecap="round"/>'
                )
            else:
                pts = " ".join(f"{x},{y}" for x, y in hull)
                parts.append(
                    f'<polygon points="{pts}" fill="{color}" fill-opacity="0.25" '
                    f'stroke="{color}" stroke-opacity="0.6"/>'
                )
    for p, (x, y) in enumerate(xy):
        if p in pack.boundary:
            parts.append(f'<circle cx="{x}" cy="{y}" r="3.2" fill="#d62728" stroke="black" stroke-width="0.6"/>')
        else:
            parts.append(f'<circle cx="{x}" cy="{y}" r="1.8" fill="#333333"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
