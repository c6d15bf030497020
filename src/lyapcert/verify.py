"""Grid certification of candidate Lyapunov functions through per-cell bounds.

The valid region is the euclidean ball D = {|x|_2 <= d}. Its covering grid is
a uniform axis-aligned lattice over the ball (plus a half-cell collar at the
rim), with l1 covering radius tau = sum_i h_i / 2: every point of D lies
within l1 distance tau of a node, whose cell it lies in.
Certification reads two bounds per cell u: vbar_low below the bias-corrected
value Vbar = V - V(0) and lie_high above the Lie derivative. Node u passes
when vbar_low(u) > 0 and lie_high(u) < 0, so the conditions hold on its cell.
The bounds are Vbar(u) - K_V(u) * tau and Lie(u) + K_Vdot(u) * tau.

Candidates are anything with batched `value(X)` and `value_and_gradient(X, work)`
methods (`work` a dict the blocks of one sweep share, for arrays a candidate keeps; the
MLP wrapper and the quadratic baseline both qualify), so every method is certified alike.

The checks near the origin are vacuous by construction: Vbar(0) = 0 and V is
K_V-Lipschitz, so nodes with |u|_1 <= tau can never have vbar_low > 0, for
any candidate. Nodes inside a configurable exemption radius are therefore marked
exempt and excluded from the certified claim, which covers the annulus
between the exemption radius and d; time-domain validation covers the hole.
The exempt nodes, and the plane areas are measured and maps drawn on, are the
grid's: `build_grid` fixes both, for every candidate checked on the grid.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import BLOCK, region_radii

SAFETY = 1.2   # inflation of the sampled maxima into the Lipschitz constants
SLAB = 1 << 13   # box nodes build_grid enumerates at a time


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform lattice covering the ball, with its l1 covering radius."""

    radius: float
    nodes_per_axis: int
    dim: int
    spacing: float
    tau: float
    index: np.ndarray           # (n, dim) position of each node coordinate in axis_coords, unsigned
    origin_row: int
    boundary: np.ndarray        # (n,) collar node or a missing face neighbor
    box_rows: np.ndarray        # (nodes_per_axis ** dim,) int32 row of a box node, -1 off the grid
    exempt: np.ndarray          # (n,) the origin and the nodes within the exemption radius
    plane: tuple[int, int]      # the state plane areas are measured and maps drawn on

    @property
    def n_nodes(self) -> int:
        return self.index.shape[0]

    @property
    def axis_coords(self) -> np.ndarray:
        """The nodes_per_axis values a coordinate takes, in lattice order."""
        half = self.nodes_per_axis // 2
        return np.arange(-half, half + 1) * self.spacing

    def coords(self, rows) -> np.ndarray:
        """Coordinates of the given rows: node r's coordinate k is axis_coords[index[r, k]],
        the same bits as (index[r, k] - half) * spacing."""
        return self.axis_coords.take(self.index[rows])

    def face_neighbors(self, rows: np.ndarray) -> np.ndarray:
        """(2, dim, len(rows)) rows of the rows' face neighbors, -axis k at [0, k] and +axis k
        at [1, k]; an absent one, a step off the box included, is the node's own row."""
        strides = self.nodes_per_axis ** np.arange(self.dim - 1, -1, -1)
        index = self.index.take(rows, axis=0).T
        keys = (strides.astype(float) @ index).astype(np.int64)   # exact: keys are below 2 ** 53
        on_box = index != np.array([0, self.nodes_per_axis - 1], index.dtype)[:, None, None]
        found = self.box_rows[np.where(on_box, keys + strides[:, None] * [[[-1]], [[1]]], keys)]
        return np.where(found < 0, rows, found)


def build_grid(radius: float, nodes_per_axis: int, dim: int, exempt_radius: float = 0.0,
               plane: tuple[int, int] = (0, 1)) -> GridSpec:
    """Uniform odd-count lattice over [-d, d]^dim, clipped to the ball plus a half-cell
    collar, with its exempt nodes (|p|_2 <= exempt_radius, and the origin) and its plane:
    the given one above two dimensions, (0, 1) at two and below.

    The collar (nodes with |p|_2 in (d, d + sqrt(dim) h/2]) is what makes the
    covering radius exactly tau = sum_i h_i/2: the componentwise-nearest node
    of any x in D is then always present. Collar nodes belong to the boundary
    layer, so they are checked but can never join a sublevel set.

    The box is enumerated in row order, SLAB nodes at a time, and only the ball and collar
    nodes are kept, index in the narrowest unsigned type, rows in an int32 box table.
    """
    half = (nodes_per_axis - 1) // 2
    spacing = radius / half
    collar = radius + np.sqrt(dim) * spacing / 2.0
    slack = 1e-12 * radius   # rounding allowance on the norms, relative like them
    box_rows = np.full(nodes_per_axis**dim, -1, dtype=np.int32)
    kept, n_kept = [], 0
    for start in range(0, box_rows.size, SLAB):
        flat = np.arange(start, min(start + SLAB, box_rows.size))
        index = np.stack(np.unravel_index(flat, (nodes_per_axis,) * dim), axis=1)
        norms = np.linalg.norm((index - half) * spacing, axis=1)
        inside = norms <= collar + slack
        box_rows[flat[inside]] = np.arange(n_kept, n_kept := n_kept + np.count_nonzero(inside))
        norms = norms[inside]
        kept.append((index[inside].astype(np.min_scalar_type(nodes_per_axis - 1)),
                     norms > radius + slack, norms <= exempt_radius))
    index, boundary, exempt = (np.concatenate(part) for part in zip(*kept))   # boundary: collar
    origin_row = int(box_rows[box_rows.size // 2])   # the box's centre node
    exempt[origin_row] = True
    grid = GridSpec(radius=float(radius), nodes_per_axis=nodes_per_axis, dim=dim,
                    spacing=float(spacing), tau=float(dim * spacing / 2.0), index=index,
                    origin_row=origin_row, boundary=boundary, box_rows=box_rows, exempt=exempt,
                    plane=plane if dim > 2 else (0, 1))
    for rows in np.split(np.arange(n_kept), range(BLOCK, n_kept, BLOCK)):   # absent: u itself
        boundary[rows] |= (grid.face_neighbors(rows) == rows).any(axis=(0, 1))
    return grid


def estimate_lipschitz(grad_inf, lie, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (K_V, K_Vdot): the sampled maxima over each node's cell star, times SAFETY.

    `grad_inf` and `lie` are the l-infinity norm of the candidate's gradient
    and its Lie derivative at every grid node. K_V(u) is the largest of
    grad_inf at u and its face neighbors, K_Vdot(u) the largest Lie-derivative
    difference quotient between u and a face neighbor, taken BLOCK nodes and their
    neighbors at a time (an absent neighbor is u itself: no maximum moves). The
    covering argument only needs the constant on a node's cell, so flat regions are
    not punished for steep ones (a global constant fails an elongated quadratic all
    along its flat axis). These are sample estimates, not bounds. An infinite Lie
    value gives its node a NaN K_Vdot (inf - inf) and its neighbors an infinite one.
    """
    k_v, k_lie = np.empty(grid.n_nodes), np.empty(grid.n_nodes)
    with np.errstate(invalid="ignore"):   # inf - inf
        for start in range(0, grid.n_nodes, BLOCK):
            block = slice(start, start + BLOCK)
            nb = grid.face_neighbors(np.arange(start, min(start + BLOCK, grid.n_nodes)))
            np.maximum(grad_inf[block], grad_inf[nb].max(axis=(0, 1)), out=k_v[block])
            np.abs(lie[block] - lie[nb]).max(axis=(0, 1), out=k_lie[block])
    # rounding is monotone, so scaling the largest difference gives the largest quotient
    k_v *= SAFETY
    return k_v, np.multiply(np.multiply(k_lie, 1.0 / grid.spacing, out=k_lie), SAFETY, out=k_lie)


@dataclass(frozen=True, eq=False)
class ValidityMap:
    """Per-node values and cell bounds of one candidate; the flags derive from the bounds."""

    vbar: np.ndarray        # bias-corrected values V(u) - V(0)
    lie: np.ndarray         # grad V(u)^T f(u)
    vbar_low: np.ndarray    # lower bound of Vbar on u's cell
    lie_high: np.ndarray    # upper bound of the Lie derivative on u's cell
    exempt: np.ndarray      # the grid's exempt nodes, not checked

    @property
    def positivity_ok(self) -> np.ndarray:
        return (self.vbar_low > 0.0) | self.exempt

    @property
    def decrease_ok(self) -> np.ndarray:
        return (self.lie_high < 0.0) | self.exempt

    @property
    def green(self) -> np.ndarray:
        return self.positivity_ok & self.decrease_ok

    @property
    def fully_green(self) -> bool:
        return bool(np.all(self.green))


def check_validity(candidate, system, grid: GridSpec) -> ValidityMap:
    """Bound Vbar from below and the Lie derivative from above on every node's cell.

    The bounds are Vbar(u) - K_V(u) * tau and Lie(u) + K_Vdot(u) * tau, with the per-node
    constants of estimate_lipschitz. The nodes are swept BLOCK at a time: each block
    evaluates V and its gradient in one sweep (in arrays the candidate keeps in `work` for
    the next block), and f, into preallocated per-node arrays, and keeps of the gradient only
    its l-infinity norm, from which (with the Lie derivatives) the constants are estimated;
    the bounds are made in the constants' arrays. The exempt nodes are the grid's.
    A bound that comes out NaN (an infinite Lie value at the node or NaN near
    it) bounds nothing, so it is +inf: the node's decrease check fails.
    """
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])
    vbar, lie, grad_inf = (np.empty(grid.n_nodes) for _ in range(3))
    work = {}
    for start in range(0, grid.n_nodes, BLOCK):
        block = slice(start, start + BLOCK)
        X = grid.coords(block)
        values, grads = candidate.value_and_gradient(X, work)
        np.subtract(values, v0, out=vbar[block])
        np.sum(grads * system.f_batch(X), axis=1, out=lie[block])
        np.max(np.abs(grads), axis=1, out=grad_inf[block])
    del work   # freed before the constants, which may take its memory
    vbar_low, lie_high = estimate_lipschitz(grad_inf, lie, grid)   # made the bounds in place
    np.subtract(vbar, np.multiply(vbar_low, grid.tau, out=vbar_low), out=vbar_low)
    with np.errstate(invalid="ignore"):   # -inf + inf at a node whose Lie value is -inf
        np.add(lie, np.multiply(lie_high, grid.tau, out=lie_high), out=lie_high)
    lie_high[np.isnan(lie_high)] = np.inf
    return ValidityMap(vbar, lie, vbar_low, lie_high, grid.exempt)


@dataclass(frozen=True, eq=False)
class RegionSelection:
    radius: float               # the last round's
    artifact: object            # what fit returned for that radius
    rounds: int
    accepted: bool              # whether the last round was accepted


def select_valid_region(fit, d0: float, shrink_factor: float, max_rounds: int) -> RegionSelection:
    """Shrinking-radius outer loop: refit and recheck until a round is accepted.

    fit(d) trains on the ball of radius d, checks the result there and returns
    (artifact, accepted). The radius follows region_radii until a round is
    accepted or the rounds run out; the selection holds the last round's radius
    and artifact, and whether it was accepted.
    """
    for rounds, d in enumerate(region_radii(d0, shrink_factor, max_rounds), start=1):
        artifact, accepted = fit(d)
        if accepted:
            break
    return RegionSelection(radius=d, artifact=artifact, rounds=rounds, accepted=accepted)


def export_validity_csv(vmap: ValidityMap, grid: GridSpec) -> Iterator[str]:
    """The validity CSV, one row per node, as its header and then BLOCK nodes of
    rows at a time. Each coordinate's repr is made once per axis value and
    picked by axis index, so only vbar and lie are formatted per node."""
    header = [f"x{i + 1}" for i in range(grid.dim)]
    yield ",".join(header + ["vbar", "lie", "positivity_ok", "decrease_ok", "exempt"]) + "\r\n"
    # tolist() yields Python floats, whose repr round-trips exactly
    axis_reprs = np.array([repr(v) for v in grid.axis_coords.tolist()], dtype=object)
    flag_text = np.array(["0", "1"], dtype=object)
    flags = (vmap.positivity_ok, vmap.decrease_ok, vmap.exempt)
    for start in range(0, grid.n_nodes, BLOCK):
        block = slice(start, start + BLOCK)
        cols = [axis_reprs[idx].tolist() for idx in grid.index[block].T]
        cols += [map(repr, col[block].tolist()) for col in (vmap.vbar, vmap.lie)]
        cols += [flag_text[flag[block].astype(np.int8)].tolist() for flag in flags]
        yield "\r\n".join(map(",".join, zip(*cols))) + "\r\n"
