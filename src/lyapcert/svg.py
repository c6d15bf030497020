"""Minimal native SVG rendering: validity heatmaps, ROA overlays, phase portraits.

No plotting dependency; plain string assembly. Grids with more than two state
dimensions are drawn as the 2-D slice through the origin along a chosen axis
pair. A grid coordinate takes only nodes_per_axis values, so validity-map cells
are drawn from per-axis string tables: each pixel position is computed and
formatted once per axis value and picked by axis index. The validity map
is made one block of grid nodes at a time, so its text is never held whole.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import groupby

import numpy as np

from .verify import BLOCK

GREEN = "#3fa34d"
RED = "#d64545"
PALE = "#bfe3c5"

CANVAS = 640.0
MARGIN = 40.0
PHASE_DENSITY = 24   # vector-field glyphs per axis of a phase portrait


def _scaler(radius: float):
    span = 2.0 * radius
    scale = (CANVAS - 2 * MARGIN) / span

    def to_px(u: float, v: float) -> tuple[float, float]:
        return (MARGIN + (u + radius) * scale, CANVAS - MARGIN - (v + radius) * scale)

    return to_px, scale


class Blocks:
    """Text a writer makes block by block: each iteration makes the blocks afresh,
    and len() is the text's length, as for the joined string."""

    def __init__(self, make: Callable[[], Iterator[str]]):
        self._make = make

    def __iter__(self) -> Iterator[str]:
        return self._make()

    def __len__(self) -> int:
        return sum(map(len, self._make()))


def render_validity_svg(vmap, grid, roa=None, axes: tuple[int, int] = (0, 1)) -> Blocks:
    """Green/red cell map with an optional ROA member outline, BLOCK grid nodes
    of cells at a time."""
    return Blocks(lambda: _validity_svg(vmap, grid, roa, axes))


def _validity_svg(vmap, grid, roa, axes: tuple[int, int]) -> Iterator[str]:
    to_px, scale = _scaler(grid.radius)
    cell = grid.spacing * scale
    # each rect is its x table entry + its y table entry + its style tail
    offsets = (grid.axis_coords + grid.radius) * scale
    x_heads = np.array([f'<rect x="{x:.2f}" y="' for x in (MARGIN + offsets - cell / 2).tolist()],
                       dtype=object)
    y_texts = np.array([f"{y:.2f}" for y in (CANVAS - MARGIN - offsets - cell / 2).tolist()],
                       dtype=object)
    size = f'" width="{cell:.2f}" height="{cell:.2f}" fill='
    fills = np.array([f'{size}"{color}" fill-opacity="0.85"/>\n' for color in (PALE, GREEN, RED)],
                     dtype=object)
    outline = f'{size}"none" stroke="#1f2a44" stroke-width="0.6"/>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:.0f}" height="{CANVAS:.0f}" '
           f'viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">\n'
           f'<rect width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="white"/>\n')
    rest = [k for k in range(grid.dim) if k not in axes]
    half = grid.nodes_per_axis // 2
    green = vmap.green

    def rects(member):
        """Each block's rects on the slice (off-plane coordinates all zero, at index half):
        filled cells, or with a member mask, the members' outlines."""
        for start in range(0, grid.n_nodes, BLOCK):
            block = slice(start, start + BLOCK)
            index = grid.index[block]
            drawn = np.all(index[:, rest] == half, axis=1)
            if member is not None:
                drawn &= member[block]
            at = np.nonzero(drawn)[0]
            ix, iy = index[at][:, axes].T
            tails = (outline if member is not None else
                     fills[np.where(vmap.exempt[block][at], 0, np.where(green[block][at], 1, 2))])
            yield "".join((x_heads[ix] + y_texts[iy] + tails).tolist())

    yield from rects(None)
    if roa is not None and not roa.empty:
        member = np.zeros(grid.n_nodes, dtype=bool)
        member[roa.member_rows] = True
        yield from rects(member)
    yield _axis_frame(grid.radius, to_px) + "\n</svg>"


def render_phase_svg(system, radius: float, states: np.ndarray) -> str:
    """2-D phase portrait (vector field glyphs) over the disc of the given radius,
    with one trajectory's (n, 2) states."""
    to_px, _scale = _scaler(radius)
    xs = np.linspace(-radius, radius, PHASE_DENSITY)
    pts = np.array([(a, b) for a in xs for b in xs])
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    vel = system.f_batch(pts)
    norm = np.linalg.norm(vel, axis=1, keepdims=True)
    unit = vel / np.maximum(norm, 1e-12)
    arrow_len = 0.35 * (2 * radius / PHASE_DENSITY)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:.0f}" height="{CANVAS:.0f}" '
        f'viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">',
        f'<rect width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="white"/>',
    ]
    for p, u in zip(pts, unit):
        x0, y0 = to_px(p[0], p[1])
        x1, y1 = to_px(p[0] + arrow_len * u[0], p[1] + arrow_len * u[1])
        parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
                     f'stroke="#5a5a5a" stroke-width="0.8"/>')
        parts.append(f'<circle cx="{x1:.2f}" cy="{y1:.2f}" r="1.1" fill="#5a5a5a"/>')
    # a point that formats like the one before it draws nothing: keep the first of each run
    pts_s = " ".join(point for point, _ in groupby(
        f"{x:.2f},{y:.2f}" for x, y in (to_px(s[0], s[1]) for s in states)))
    parts.append(f'<polyline points="{pts_s}" fill="none" stroke="#14365f" stroke-width="1.2"/>')
    parts.append(_axis_frame(radius, to_px))
    parts.append("</svg>")
    return "\n".join(parts)


def _axis_frame(radius: float, to_px) -> str:
    x0, y0 = to_px(-radius, -radius)
    x1, y1 = to_px(radius, radius)
    return (f'<rect x="{min(x0, x1):.2f}" y="{min(y0, y1):.2f}" '
            f'width="{abs(x1 - x0):.2f}" height="{abs(y1 - y0):.2f}" '
            f'fill="none" stroke="#222222" stroke-width="1"/>')
