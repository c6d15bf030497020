"""Lipschitz-based grid certification of candidate Lyapunov functions.

The valid region is the euclidean ball D = {|x|_2 <= d}. Its covering grid is
a uniform axis-aligned lattice over the ball (plus a half-cell collar at the
rim), with l1 covering radius tau = sum_i h_i / 2: every point of D lies
within l1 distance tau of a node.
A candidate V passes at a node u when the bias-corrected value
Vbar(u) = V(u) - V(0) clears the margin K_V * tau and the Lie derivative
clears -K_Vdot * tau; by Lipschitz continuity the untightened conditions then
hold everywhere in D between nodes.

Candidates are anything with batched `value(X)` and `gradient(X)` methods
(the MLP wrapper and the quadratic baseline both qualify), so every method in
the package is certified by this same code path.

The checks near the origin are vacuous by construction: Vbar(0) = 0 and V is
K_V-Lipschitz, so nodes with |u|_1 <= tau can never clear K_V * tau, for any
candidate. Nodes inside a configurable exemption radius are therefore marked
exempt and excluded from the certified claim, which covers the annulus
between the exemption radius and d; time-domain validation covers the hole.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

SAFETY = 1.2   # inflation of the sampled maxima into the Lipschitz constants


class RegionSelectionFailure(Exception):
    """No region radius produced fully green maps within the round budget."""

    def __init__(self, rounds: int, last_radius: float, maps: tuple):
        super().__init__(f"no valid region after {rounds} rounds (last radius {last_radius:g})")
        self.last_radius = last_radius
        self.maps = maps            # the last round's validity maps


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


def build_grid(radius: float, nodes_per_axis: int, dim: int) -> GridSpec:
    """Uniform odd-count lattice over [-d, d]^dim, clipped to the ball plus a
    half-cell collar.

    The collar (nodes with |p|_2 in (d, d + sqrt(dim) h/2]) is what makes the
    covering radius exactly tau = sum_i h_i/2: the componentwise-nearest node
    of any x in D is then always present. Collar nodes belong to the boundary
    layer, so they are checked but can never join a sublevel set.
    """
    if nodes_per_axis < 3 or nodes_per_axis % 2 == 0:
        raise ValueError("nodes_per_axis must be odd and >= 3 so the origin is a node")
    if radius <= 0 or dim < 1:
        raise ValueError("radius must be positive, dim >= 1")
    if nodes_per_axis**dim > 50_000_000:
        raise ValueError("grid too large; reduce nodes_per_axis or dimension")
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


@dataclass(frozen=True, eq=False)
class LipschitzConstants:
    k_v: float | np.ndarray     # of the candidate value w.r.t. l1 distance; or one per node
    k_lie: float | np.ndarray   # of the Lie derivative field (drives the decrease margin)

    def __post_init__(self):
        if min(np.min(self.k_v), np.min(self.k_lie)) < 0:
            raise ValueError("Lipschitz constants must be nonnegative")


def estimate_lipschitz(grads: np.ndarray, lie: np.ndarray, grid: GridSpec) -> LipschitzConstants:
    """Per-node constants: sampled maxima over each node's cell star, times SAFETY.

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
    return LipschitzConstants(k_v=k_v * SAFETY, k_lie=k_lie * SAFETY)


@dataclass(frozen=True, eq=False)
class ValidityMap:
    """Per-node tightened-condition results for one candidate."""

    vbar: np.ndarray        # bias-corrected values V(u) - V(0)
    lie: np.ndarray         # grad V(u)^T f(u)
    positivity_ok: np.ndarray
    decrease_ok: np.ndarray
    exempt: np.ndarray      # origin + optional near-origin ball, not checked
    constants: LipschitzConstants

    @property
    def green(self) -> np.ndarray:
        return (self.positivity_ok & self.decrease_ok) | self.exempt

    @property
    def fully_green(self) -> bool:
        return bool(np.all(self.green))


def check_validity(candidate, system, grid: GridSpec, constants: LipschitzConstants | None = None,
                   exempt_radius: float = 0.0) -> ValidityMap:
    """Evaluate both tightened conditions at every node.

    Non-exempt node u is positivity-green when Vbar(u) > K_V * tau and
    decrease-green when the Lie derivative is < -K_Vdot * tau. The origin
    node (where both conditions are excluded by definition) and any node
    within the exemption radius are marked exempt. The gradient and f are
    evaluated once per node; without `constants`, the per-node constants are
    estimated from those same arrays.
    """
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])
    vbar = candidate.value(grid.coords) - v0
    grads = candidate.gradient(grid.coords)
    lie = np.sum(grads * system.f_batch(grid.coords), axis=1)
    if constants is None:
        constants = estimate_lipschitz(grads, lie, grid)

    pos_ok = vbar > constants.k_v * grid.tau
    dec_ok = lie < -constants.k_lie * grid.tau
    exempt = np.linalg.norm(grid.coords, axis=1) <= exempt_radius
    exempt[grid.origin_row] = True
    pos_ok = pos_ok | exempt
    dec_ok = dec_ok | exempt
    return ValidityMap(vbar=vbar, lie=lie, positivity_ok=pos_ok, decrease_ok=dec_ok,
                       exempt=exempt, constants=constants)


@dataclass(frozen=True, eq=False)
class RegionSelection:
    radius: float
    artifact: object            # whatever train_fn returned for the final radius
    rounds: int


def select_valid_region(train_fn, verify_fn, d0: float, shrink_factor: float,
                        max_rounds: int, accept_fn) -> RegionSelection:
    """Shrinking-radius outer loop: retrain and recheck until the maps pass.

    train_fn(d) trains on the ball of radius d and returns an artifact (for
    the meta pipeline, the meta parameters); verify_fn(artifact, d) returns
    the validity maps of every task-adapted candidate on that region. The
    radius shrinks geometrically until accept_fn(maps, d) holds; running out
    of rounds raises RegionSelectionFailure with the last round's radius and
    maps.
    """
    if not (0.0 < shrink_factor < 1.0):
        raise ValueError("shrink_factor must lie in (0, 1)")
    if max_rounds < 1:
        raise ValueError("need at least one round")
    d = float(d0)
    for round_idx in range(max_rounds):
        if round_idx:
            d *= shrink_factor
        artifact = train_fn(d)
        maps = tuple(verify_fn(artifact, d))
        if accept_fn(maps, d):
            return RegionSelection(radius=d, artifact=artifact, rounds=round_idx + 1)
    raise RegionSelectionFailure(max_rounds, d, maps)


def export_validity_csv(vmap: ValidityMap, grid: GridSpec, path) -> None:
    header = [f"x{i + 1}" for i in range(grid.dim)]
    header += ["vbar", "lie", "positivity_ok", "decrease_ok", "exempt"]
    # column-wise: tolist() yields Python floats, whose repr round-trips exactly
    cols = [map(repr, col.tolist()) for col in (*grid.coords.T, vmap.vbar, vmap.lie)]
    cols += [map(int, flag.tolist()) for flag in (vmap.positivity_ok, vmap.decrease_ok, vmap.exempt)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))
