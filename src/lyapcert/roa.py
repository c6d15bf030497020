"""Region-of-attraction extraction from validity maps.

The certified ROA is the largest sublevel set {Vbar <= c} that enters no cell
of a red node and no cell of the outer boundary layer of D (so the continuum
set cannot leak out of the verified region), restricted to the face-connected
component of the origin. Everything is grid-resolution limited: c is a node
value, capped below the cell lower bound vbar_low of every blocked node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import BLOCK
from .control import SingularSystem, solve_discrete_lyapunov
from .dynamics import MAX_RK4_STEPS, ClosedLoopSystem, simulate_batch
from .verify import GridSpec, ValidityMap


@dataclass(frozen=True, eq=False)
class RoaResult:
    c: float                    # certified sublevel value
    member_rows: np.ndarray     # grid rows with Vbar <= c (origin component)
    area: float                 # the member cells' shadow on the grid's plane
    binding: int | None         # the blocked row whose vbar_low is the cap; None if none

    @property
    def empty(self) -> bool:
        return self.c == 0.0

    @property
    def n_cells(self) -> int:
        return int(self.member_rows.size)


def _origin_component(rows: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Member rows in the origin's face-adjacent component: all when each but the origin
    has a member face neighbor nearer it (lattice l1), else breadth first by frontiers."""
    tag = np.full(grid.n_nodes, -2, dtype=np.int8)   # -2 off the rows, -1 a row, 0 reached
    tag[rows] = -1
    tag[grid.origin_row] = 0
    for block in np.split(rows, range(BLOCK, rows.size, BLOCK)):
        index = grid.index.take(block, axis=0).T   # the -axis step nears the origin above half
        nearer = np.stack((index > grid.nodes_per_axis // 2, index < grid.nodes_per_axis // 2))
        if not np.all(((tag[grid.face_neighbors(block)] > -2) & nearer).any(axis=(0, 1))
                      | (block == grid.origin_row)):
            break
    else:
        return np.nonzero(tag > -2)[0]
    frontier = np.array([grid.origin_row])
    while frontier.size:   # an absent neighbor is the node itself, already reached
        nb = grid.face_neighbors(frontier).ravel()
        frontier = np.unique(nb[tag[nb] == -1])
        tag[frontier] = 0
    return np.nonzero(tag == 0)[0]


def largest_level_set(vmap: ValidityMap, grid: GridSpec) -> RoaResult:
    """Extraction of the certified sublevel value.

    A node is blocked when it is not green or sits in the outer boundary
    layer. Vbar is at least vbar_low(u) everywhere in a blocked node u's cell,
    so with c the largest non-exempt node value strictly below the least such
    bound, the continuum set {Vbar <= c} enters no blocked cell. The blocked
    node of that least bound (the first, on a tie) is the result's binding row.
    A level at or below zero yields the empty result (c = 0, no cells, area 0).
    """
    blocked = np.nonzero(~vmap.green | grid.boundary)[0]
    binding = int(blocked[np.argmin(vmap.vbar_low[blocked])]) if blocked.size else None
    cap = np.inf if binding is None else vmap.vbar_low[binding]
    eligible = vmap.vbar[(vmap.vbar < cap) & ~vmap.exempt]
    c = float(np.max(eligible)) if eligible.size else 0.0
    if c <= 0.0:
        return RoaResult(0.0, np.empty(0, dtype=np.intp), 0.0, binding)

    rows = _origin_component(np.nonzero(vmap.vbar <= c)[0], grid)
    return RoaResult(c, rows, roa_area(rows, grid), binding)


def roa_area(rows: np.ndarray, grid: GridSpec) -> float:
    """The area of the cells' shadow on the grid's plane: in 2-d, their count times
    the cell area."""
    return float(np.count_nonzero(_plane_image(rows, grid)) * grid.spacing**2)


def _plane_image(rows: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(nodes_per_axis, nodes_per_axis) occupancy of the rows' plane index pairs."""
    i, j = grid.plane
    image = np.zeros((grid.nodes_per_axis,) * 2, dtype=bool)
    members = grid.index[rows]
    image[members[:, i], members[:, j]] = True
    return image


RK4_STEP_LIMIT = 2.5   # largest h * rho(A) the gate integrates at; RK4's real-axis limit is 2.785


@dataclass(frozen=True)
class ConvergenceCheck:
    n_samples: int
    step: float                 # RK4 step the rollouts used
    entered: int                # rollouts that entered the basin
    diverged: int               # rollouts that diverged
    capped: int                 # rollouts still outside the basin after MAX_RK4_STEPS steps

    @property
    def vacuous(self) -> bool:
        return self.n_samples == 0

    @property
    def fraction(self) -> float:
        return self.entered / self.n_samples if self.n_samples else 1.0


def gate_step(system: ClosedLoopSystem, h: float) -> float:
    """h / m for the least m >= 1 with (h / m) * rho(A) <= RK4_STEP_LIMIT.

    A is the closed loop's linearization at the origin and rho(A) its
    spectral radius, so the rollouts near the origin stay inside RK4's
    stability region even where the fast eigenvalue is stiff.
    """
    rho = np.max(np.abs(np.linalg.eigvals(system.linearization())))
    return h / max(1, math.ceil(h * rho / RK4_STEP_LIMIT))


STEP_ROUNDING = 2.0 ** -40   # allowance for |fl(RK4 step) - RK4 step|_2, per unit of 1 + |x|_2
SLACK = 1e-9                  # relative allowance on computed spectra and on the membership test


def _rk4_remainder(a: float, G: float, p: int, h: float, nu: float) -> float:
    """Bound on |RK4_h(x) - M x|_2 over |x|_2 <= nu, M the RK4 matrix of hA,
    |A|_2 <= a and |f(z) - A z|_2 <= G |z|_2^p for |z|_2 <= 1; inf when a
    stage may leave the unit ball.

    Stage i evaluates f at z_i = x + c_i h k_{i-1}; its deviation from the
    linear stage, d_i = A c_i h d_{i-1} + r(z_i), is bounded through the
    stage-norm bounds, and RK4_h(x) - M x = (h / 6)(d_1 + 2 d_2 + 2 d_3 + d_4).
    """
    k = dev = total = 0.0
    for c, weight in ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        z = nu + c * h * k
        if z > 1.0:
            return math.inf
        r = G * z ** p
        k = a * z + r
        dev = a * c * h * dev + r
        total += weight * dev
    return h / 6.0 * total


def basin(system: ClosedLoopSystem, h: float) -> tuple[np.ndarray, float] | None:
    """(Q, level): a Q-ball {x^T Q x <= level} that one floating-point RK4 step of
    size h maps into itself, contracting, or None.

    M is the RK4 matrix of hA (A the linearization) and Q solves
    M^T Q M - Q = -I, so |Mx|_Q <= sqrt(kappa) |x|_Q with kappa the largest
    generalized eigenvalue of (M^T Q M, Q), taken for the computed Q. For
    |x|_Q <= rho, |x|_2 <= rho / low with low = sqrt(lambda_min(Q)), and a
    rounded step x+ leaves M x by at most E(|x|_2) + STEP_ROUNDING (1 + |x|_2)
    in 2-norm, E the stage-composed remainder (`_rk4_remainder`) of the
    system's (G, p) bound and STEP_ROUNDING an absolute and relative rounding
    allowance (P(0) - P(x) of the microgrid does not round relative to |x|).
    E is a polynomial in its radius with nonnegative coefficients and no term
    below degree p >= 1 (or inf once a stage may leave the unit ball, which
    stays so at larger radii), so E(nu) / nu is nondecreasing and
    E(|x|_2) <= |x|_Q E(rho / low) / rho. With high = sqrt(lambda_max(Q)):

        |x+|_Q <= q |x|_Q + e,  q = sqrt(kappa) + high (E(rho / low) / rho
                                    + STEP_ROUNDING / low),  e = high STEP_ROUNDING.

    Where q rho + e <= rho, one step maps the Q-ball of radius rho into itself,
    and k steps bring a row in it within q^k rho + e / (1 - q) of the origin.
    The basin is the largest such ball of radius low 2^(-j/8), j = 0, 1, ...
    (|x|_2 <= 1 at j = 0), tried down to rho (1 - sqrt(kappa)) < e, where no
    radius passes as q >= sqrt(kappa); none when rho(M) >= 1.
    """
    A = system.linearization()
    hA = h * A
    eye = np.eye(A.shape[0])
    M = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)
    if np.max(np.abs(np.linalg.eigvals(M))) >= 1.0:
        return None
    try:
        Q = solve_discrete_lyapunov(M, eye)
        L_inv = np.linalg.inv(np.linalg.cholesky(Q))
    except (SingularSystem, np.linalg.LinAlgError):
        return None
    kappa = np.linalg.eigvalsh(L_inv @ M.T @ Q @ M @ L_inv.T)[-1]
    lam = np.linalg.eigvalsh(Q)
    contraction = math.sqrt(kappa * (1.0 + SLACK))
    low, high = math.sqrt(lam[0] * (1.0 - SLACK)), math.sqrt(lam[-1] * (1.0 + SLACK))
    a = np.linalg.norm(A, 2) * (1.0 + SLACK)
    G, p = system.remainder_bound()
    e = high * STEP_ROUNDING
    rho = low
    while rho * (1.0 - contraction) >= e:
        q = contraction + high * (_rk4_remainder(a, G, p, h, rho / low) / rho
                                  + STEP_ROUNDING / low)
        if q * rho + e <= rho:   # an infinite q fails
            return Q, rho * rho * (1.0 - SLACK)
        rho *= 2.0 ** -0.125
    return None


def _start_states(result: RoaResult, candidate, grid: GridSpec, n_samples: int,
                  seed: int) -> np.ndarray:
    """n_samples states uniform over the member cells, drawn from default_rng(seed)
    and rejection-filtered to {Vbar <= c}."""
    rng = np.random.default_rng(seed)
    centers = grid.coords(result.member_rows)
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])

    parts = [np.empty((0, grid.dim))]   # the accepted rows of each draw
    found = attempts = 0
    while found < n_samples and attempts < 60 * n_samples:
        take = n_samples - found
        batch = centers[rng.integers(centers.shape[0], size=take)]
        batch += rng.uniform(-0.5, 0.5, size=(take, grid.dim)) * grid.spacing
        ok = np.linalg.norm(batch, axis=1) <= grid.radius
        ok &= (candidate.value(batch) - v0) <= result.c
        parts.append(batch[ok])
        found += len(parts[-1])
        attempts += take
    if found < n_samples:
        # jitter keeps landing above the level: fall back to the node centers
        parts.append(centers[rng.integers(centers.shape[0], size=n_samples - found)])
    return np.concatenate(parts)


def monte_carlo_convergence(system: ClosedLoopSystem, certificates, grid: GridSpec,
                            n_samples: int, h: float, seed: int) -> list[ConvergenceCheck]:
    """Roll out RK4 trajectories from inside each certified set, in one sweep.

    `certificates` is a list of (RoaResult, candidate) pairs; one check is
    returned per pair. Each nonempty set draws n_samples initial states from
    its own default_rng(seed), uniform over its member cells and
    rejection-filtered to {Vbar <= c} (cell jitter can otherwise step just
    over the level). All draws are then integrated by one simulate_batch call
    at gate_step(system, h), each row until it enters the step's `basin`,
    diverges or has taken MAX_RK4_STEPS steps. A check's fraction is the share
    of its rollouts that entered the basin, from where they provably converge;
    a step with no basin fails every rollout without integrating any. An
    empty ROA is vacuously 1.0.
    """
    step = gate_step(system, h)
    starts = [_start_states(result, candidate, grid, n_samples, seed)
              for result, candidate in certificates if not result.empty]
    counts = iter(())
    if starts:
        X0 = np.concatenate(starts)
        region = basin(system, step)
        outcomes = np.zeros((3, len(X0)), dtype=bool)   # entered the basin, diverged, capped
        if region is not None:
            _, diverged, entered = simulate_batch(system, X0, step, MAX_RK4_STEPS * step, region)
            outcomes = np.stack([entered, diverged, ~(entered | diverged)])
        counts = iter(outcomes.reshape(3, len(starts), n_samples).sum(axis=2).T.tolist())
    return [ConvergenceCheck(0, step, 0, 0, 0) if result.empty
            else ConvergenceCheck(n_samples, step, *next(counts))
            for result, _ in certificates]


def export_roa_json(result: RoaResult, grid: GridSpec) -> dict:
    return {
        "c": result.c,
        "area": result.area,
        "n_cells": result.n_cells,
        "empty": result.empty,
        "plane": list(grid.plane) if grid.dim > 2 else None,
        "grid": {"radius": grid.radius, "nodes_per_axis": grid.nodes_per_axis,
                 "dim": grid.dim, "tau": grid.tau},
    }


def export_boundary_csv(result: RoaResult, grid: GridSpec) -> str:
    """Member cells whose face neighborhood leaves the member set (2-D plane)."""
    rows = ["u,v"]
    if not result.empty:
        cells = np.pad(_plane_image(result.member_rows, grid), 1)
        inner = cells[:-2, 1:-1] & cells[2:, 1:-1] & cells[1:-1, :-2] & cells[1:-1, 2:]
        reprs = [repr(v) for v in grid.axis_coords.tolist()]
        rows += [f"{reprs[a]},{reprs[b]}"
                 for a, b in np.argwhere(cells[1:-1, 1:-1] & ~inner).tolist()]
    return "".join(row + "\r\n" for row in rows)
