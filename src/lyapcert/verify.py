"""Grid certification of candidate Lyapunov functions through per-cell bounds.

The valid region is the euclidean ball D = {|x|_2 <= d}. Its covering grid is
a uniform axis-aligned lattice over the ball (plus a half-cell collar at the
rim), with l1 covering radius tau = sum_i h_i / 2: every point of D lies
within l1 distance tau of a node, whose cell it lies in.
Certification reads two bounds per cell u: vbar_low below the bias-corrected
value Vbar = V - V(0) and lie_high above the Lie derivative. Node u passes
when vbar_low(u) > 0 and lie_high(u) < 0, so the conditions hold on its cell.
The bounds are Vbar(u) - K_V(u) * tau and Lie(u) + K_Vdot(u) * tau.

Candidates are anything with batched `value(X)` and `value_and_gradient(X)`
methods (the MLP wrapper and the quadratic baseline both qualify), so every
method in the package is certified by this same code path.

The checks near the origin are vacuous by construction: Vbar(0) = 0 and V is
K_V-Lipschitz, so nodes with |u|_1 <= tau can never have vbar_low > 0, for
any candidate. Nodes inside a configurable exemption radius are therefore marked
exempt and excluded from the certified claim, which covers the annulus
between the exemption radius and d; time-domain validation covers the hole.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

SAFETY = 1.2   # inflation of the sampled maxima into the Lipschitz constants
SLAB = 1 << 16   # box nodes build_grid enumerates at a time
BLOCK = 4096     # nodes the map's sweep, its constants and its writers take at a time


class RegionSelectionFailure(Exception):
    """No region radius was accepted within the round budget."""

    def __init__(self, rounds: int, last_radius: float, artifact):
        super().__init__(f"no valid region after {rounds} rounds (last radius {last_radius:g})")
        self.artifact = artifact    # what the last round's fit returned


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform lattice covering the ball, with its l1 covering radius."""

    radius: float
    nodes_per_axis: int
    dim: int
    spacing: float
    tau: float
    index: np.ndarray           # (n, dim) position of each node coordinate in axis_coords
    origin_row: int
    boundary: np.ndarray        # (n,) collar node or a missing face neighbor
    neighbors: np.ndarray       # (n, 2 dim) -axis k neighbor in column 2k, +axis k in 2k+1, or self

    @property
    def n_nodes(self) -> int:
        return self.index.shape[0]

    @property
    def cell_volume(self) -> float:
        return float(self.spacing**self.dim)

    @property
    def axis_coords(self) -> np.ndarray:
        """The nodes_per_axis values a coordinate takes, in lattice order."""
        half = self.nodes_per_axis // 2
        return np.arange(-half, half + 1) * self.spacing

    def coords(self, rows) -> np.ndarray:
        """Coordinates of the given rows: node r's coordinate k is axis_coords[index[r, k]],
        the same bits as (index[r, k] - half) * spacing."""
        return self.axis_coords[self.index[rows]]


def build_grid(radius: float, nodes_per_axis: int, dim: int) -> GridSpec:
    """Uniform odd-count lattice over [-d, d]^dim, clipped to the ball plus a
    half-cell collar.

    The collar (nodes with |p|_2 in (d, d + sqrt(dim) h/2]) is what makes the
    covering radius exactly tau = sum_i h_i/2: the componentwise-nearest node
    of any x in D is then always present. Collar nodes belong to the boundary
    layer, so they are checked but can never join a sublevel set.

    The box is enumerated in row order (first axis slowest), SLAB consecutive
    box nodes at a time, and only the ball and collar nodes are kept, so memory
    follows the ball's node count and not the box's. The kept nodes' flat box
    indices are sorted, so a face neighbor's row is found by binary search.
    """
    half = (nodes_per_axis - 1) // 2
    spacing = radius / half
    collar = radius + np.sqrt(dim) * spacing / 2.0
    box = (nodes_per_axis,) * dim
    kept = []
    for start in range(0, nodes_per_axis**dim, SLAB):
        flat = np.arange(start, min(start + SLAB, nodes_per_axis**dim))
        index = np.stack(np.unravel_index(flat, box), axis=1)
        norms = np.linalg.norm((index - half) * spacing, axis=1)
        inside = norms <= collar + 1e-12
        kept.append((flat[inside], index[inside], norms[inside] > radius + 1e-12))
    flat, index, boundary = (np.concatenate(part) for part in zip(*kept))   # boundary: collar
    del kept

    strides = np.array([nodes_per_axis**(dim - 1 - k) for k in range(dim)], dtype=np.int64)
    rows = np.arange(flat.size)[:, None]   # an absent neighbor is the node itself
    neighbors = np.array(np.broadcast_to(rows, (flat.size, 2 * dim)), order="F")   # by column
    for axis in range(dim):
        target = flat + strides[axis]
        up = np.minimum(np.searchsorted(flat, target), flat.size - 1)
        src = np.nonzero((flat[up] == target) & (index[:, axis] < 2 * half))[0]
        neighbors[src, 2 * axis + 1] = up[src]
        neighbors[up[src], 2 * axis] = src   # v is u's -axis neighbor when u is v's +axis one
    boundary |= (neighbors == rows).any(axis=1)
    return GridSpec(
        radius=float(radius), nodes_per_axis=nodes_per_axis, dim=dim,
        spacing=float(spacing), tau=float(dim * spacing / 2.0), index=index,
        origin_row=int(np.searchsorted(flat, half * strides.sum())),
        boundary=boundary, neighbors=neighbors,
    )


def estimate_lipschitz(grad_inf, lie, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (K_V, K_Vdot): the sampled maxima over each node's cell star, times SAFETY.

    `grad_inf` and `lie` are the l-infinity norm of the candidate's gradient
    and its Lie derivative at every grid node. K_V(u) is the largest of
    grad_inf at u and its face neighbors, K_Vdot(u) the largest
    Lie-derivative difference quotient between u and a face neighbor, taken
    BLOCK nodes and one neighbor column at a time. The covering argument only
    needs the constant on a node's cell, so flat regions are not punished for
    steep ones (a global constant fails an elongated quadratic all along its
    flat axis). These are sample estimates, not bounds. An infinite Lie value
    gives its node a NaN K_Vdot (inf - inf) and its neighbors an infinite one.
    """
    k_v, k_lie = grad_inf.copy(), np.zeros(grid.n_nodes)
    with np.errstate(invalid="ignore"):   # inf - inf
        for start in range(0, grid.n_nodes, BLOCK):
            block = slice(start, start + BLOCK)
            for nb in grid.neighbors[block].T:   # an absent neighbor is u itself: no maximum moves
                np.maximum(k_v[block], grad_inf[nb], out=k_v[block])
                np.maximum(k_lie[block], np.abs(lie[block] - lie[nb]), out=k_lie[block])
    # rounding is monotone, so scaling the largest difference gives the largest quotient
    return k_v * SAFETY, k_lie * (1.0 / grid.spacing) * SAFETY


@dataclass(frozen=True, eq=False)
class ValidityMap:
    """Per-node values and cell bounds of one candidate; the flags derive from the bounds."""

    vbar: np.ndarray        # bias-corrected values V(u) - V(0)
    lie: np.ndarray         # grad V(u)^T f(u)
    vbar_low: np.ndarray    # lower bound of Vbar on u's cell
    lie_high: np.ndarray    # upper bound of the Lie derivative on u's cell
    exempt: np.ndarray      # origin + optional near-origin ball, not checked

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


def check_validity(candidate, system, grid: GridSpec, exempt_radius: float = 0.0) -> ValidityMap:
    """Bound Vbar from below and the Lie derivative from above on every node's cell.

    The bounds are Vbar(u) - K_V(u) * tau and Lie(u) + K_Vdot(u) * tau, with
    the per-node constants of estimate_lipschitz. The nodes are swept BLOCK
    at a time: each block evaluates V and its gradient in one sweep, and f,
    into preallocated per-node arrays, and keeps of the gradient only its
    l-infinity norm, from which (with the Lie derivatives) the constants are
    estimated. The origin node (where both conditions are excluded by
    definition) and any node within the exemption radius are marked exempt.
    A bound that comes out NaN (an infinite Lie value at the node or NaN near
    it) bounds nothing, so it is +inf: the node's decrease check fails.
    """
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])
    vbar, lie, grad_inf = (np.empty(grid.n_nodes) for _ in range(3))
    exempt = np.empty(grid.n_nodes, dtype=bool)
    for start in range(0, grid.n_nodes, BLOCK):
        block = slice(start, start + BLOCK)
        X = grid.coords(block)
        values, grads = candidate.value_and_gradient(X)
        np.subtract(values, v0, out=vbar[block])
        np.sum(grads * system.f_batch(X), axis=1, out=lie[block])
        np.max(np.abs(grads), axis=1, out=grad_inf[block])
        exempt[block] = np.linalg.norm(X, axis=1) <= exempt_radius
    exempt[grid.origin_row] = True
    k_v, k_lie = estimate_lipschitz(grad_inf, lie, grid)
    with np.errstate(invalid="ignore"):   # -inf + inf at a node whose Lie value is -inf
        lie_high = lie + k_lie * grid.tau
    lie_high[np.isnan(lie_high)] = np.inf
    return ValidityMap(vbar=vbar, lie=lie, vbar_low=vbar - k_v * grid.tau,
                       lie_high=lie_high, exempt=exempt)


@dataclass(frozen=True, eq=False)
class RegionSelection:
    radius: float
    artifact: object            # what fit returned for the final radius
    rounds: int


def select_valid_region(fit, d0: float, shrink_factor: float, max_rounds: int) -> RegionSelection:
    """Shrinking-radius outer loop: refit and recheck until a round is accepted.

    fit(d) trains on the ball of radius d, checks the result there and returns
    (artifact, accepted). The radius shrinks geometrically until a round is
    accepted; running out of rounds raises RegionSelectionFailure with the last
    round's radius and artifact.
    """
    d = float(d0)
    for round_idx in range(max_rounds):
        if round_idx:
            d *= shrink_factor
        artifact, accepted = fit(d)
        if accepted:
            return RegionSelection(radius=d, artifact=artifact, rounds=round_idx + 1)
    raise RegionSelectionFailure(max_rounds, d, artifact)


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
