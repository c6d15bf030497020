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

from dataclasses import dataclass

import numpy as np

SAFETY = 1.2   # inflation of the sampled maxima into the Lipschitz constants


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
    coords: np.ndarray          # (n, dim) node coordinates
    lattice: np.ndarray         # (n, dim) integer lattice indices
    origin_row: int
    boundary: np.ndarray        # (n,) node has a missing face neighbor
    neighbor_pairs: np.ndarray  # (m, 2) face-adjacent node rows

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def cell_volume(self) -> float:
        return float(self.spacing**self.dim)

    @property
    def axis_coords(self) -> np.ndarray:
        """The nodes_per_axis values a coordinate takes, in lattice order: node r's
        coordinate k is axis_coords[axis_index[r, k]], bit for bit."""
        half = self.nodes_per_axis // 2
        return np.arange(-half, half + 1) * self.spacing

    @property
    def axis_index(self) -> np.ndarray:
        """(n, dim) position of each node coordinate in axis_coords."""
        return self.lattice + self.nodes_per_axis // 2


def build_grid(radius: float, nodes_per_axis: int, dim: int) -> GridSpec:
    """Uniform odd-count lattice over [-d, d]^dim, clipped to the ball plus a
    half-cell collar.

    The collar (nodes with |p|_2 in (d, d + sqrt(dim) h/2]) is what makes the
    covering radius exactly tau = sum_i h_i/2: the componentwise-nearest node
    of any x in D is then always present. Collar nodes belong to the boundary
    layer, so they are checked but can never join a sublevel set.
    """
    half = (nodes_per_axis - 1) // 2
    spacing = radius / half
    axis_idx = np.arange(-half, half + 1)
    mesh = np.meshgrid(*([axis_idx] * dim), indexing="ij")
    lattice = np.stack([m.reshape(-1) for m in mesh], axis=1)
    coords = lattice * spacing
    norms = np.linalg.norm(coords, axis=1)
    collar = radius + np.sqrt(dim) * spacing / 2.0
    inside = norms <= collar + 1e-12

    # flat row index over the full box grid; -1 marks clipped-away nodes
    n_axis = nodes_per_axis
    full_rows = np.full(n_axis**dim, -1, dtype=np.int64)
    full_rows[inside] = np.arange(int(inside.sum()))
    lattice = lattice[inside]
    coords = coords[inside]
    strides = np.array([n_axis**(dim - 1 - k) for k in range(dim)], dtype=np.int64)
    flat = (lattice + half) @ strides

    pairs = []
    boundary = np.linalg.norm(coords, axis=1) > radius + 1e-12   # collar nodes
    for axis in range(dim):
        at_edge = lattice[:, axis] == half
        neighbor = np.where(at_edge, -1, full_rows[np.minimum(flat + strides[axis], full_rows.size - 1)])
        missing = neighbor < 0
        boundary |= missing
        src = np.nonzero(~missing)[0]
        pairs.append(np.stack([src, neighbor[src]], axis=1))
        at_edge = lattice[:, axis] == -half
        neighbor = np.where(at_edge, -1, full_rows[np.maximum(flat - strides[axis], 0)])
        boundary |= neighbor < 0
    origin_row = int(full_rows[(np.zeros(dim, dtype=np.int64) + half) @ strides])
    return GridSpec(
        radius=float(radius), nodes_per_axis=nodes_per_axis, dim=dim,
        spacing=float(spacing), tau=float(dim * spacing / 2.0),
        coords=coords, lattice=lattice, origin_row=origin_row,
        boundary=boundary, neighbor_pairs=np.concatenate(pairs, axis=0),
    )


def estimate_lipschitz(grads, lie, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (K_V, K_Vdot): the sampled maxima over each node's cell star, times SAFETY.

    `grads` and `lie` are the candidate's gradient and Lie derivative at every
    grid node. K_V(u) is the largest l-infinity gradient norm at u and its
    face neighbors, K_Vdot(u) the largest Lie-derivative difference quotient
    over u's face pairs. The covering argument only needs the constant on a
    node's cell, so flat regions are not punished for steep ones (a global
    constant fails an elongated quadratic all along its flat axis). These
    are sample estimates, not bounds.
    """
    a, b = grid.neighbor_pairs[:, 0], grid.neighbor_pairs[:, 1]
    lie_quot = np.abs(lie[a] - lie[b]) * (1.0 / grid.spacing)
    grad_inf = np.max(np.abs(grads), axis=1)
    k_v = grad_inf.copy()
    np.maximum.at(k_v, a, grad_inf[b])
    np.maximum.at(k_v, b, grad_inf[a])
    k_lie = np.zeros(grid.n_nodes)
    np.maximum.at(k_lie, a, lie_quot)
    np.maximum.at(k_lie, b, lie_quot)
    return k_v * SAFETY, k_lie * SAFETY


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
    the per-node constants of estimate_lipschitz. V, its gradient and f are
    evaluated once per node (V and the gradient in one sweep) and the
    constants estimated from those same arrays. The origin node (where both
    conditions are excluded by definition) and any node within the exemption
    radius are marked exempt.
    """
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])
    values, grads = candidate.value_and_gradient(grid.coords)
    vbar = values - v0
    lie = np.sum(grads * system.f_batch(grid.coords), axis=1)
    k_v, k_lie = estimate_lipschitz(grads, lie, grid)
    exempt = np.linalg.norm(grid.coords, axis=1) <= exempt_radius
    exempt[grid.origin_row] = True
    return ValidityMap(vbar=vbar, lie=lie, vbar_low=vbar - k_v * grid.tau,
                       lie_high=lie + k_lie * grid.tau, exempt=exempt)


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


def export_validity_csv(vmap: ValidityMap, grid: GridSpec) -> str:
    """One row per node; each coordinate's repr is made once per axis value and
    picked by lattice index, so only vbar and lie are formatted per node."""
    header = [f"x{i + 1}" for i in range(grid.dim)]
    header += ["vbar", "lie", "positivity_ok", "decrease_ok", "exempt"]
    # tolist() yields Python floats, whose repr round-trips exactly
    axis_reprs = np.array([repr(v) for v in grid.axis_coords.tolist()], dtype=object)
    cols = [axis_reprs[idx].tolist() for idx in grid.axis_index.T]
    cols += [map(repr, col.tolist()) for col in (vmap.vbar, vmap.lie)]
    flag_text = np.array(["0", "1"], dtype=object)
    cols += [flag_text[flag.astype(np.int8)].tolist()
             for flag in (vmap.positivity_ok, vmap.decrease_ok, vmap.exempt)]
    return "\r\n".join([",".join(header), *map(",".join, zip(*cols))]) + "\r\n"
