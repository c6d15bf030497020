"""Region-of-attraction extraction from validity maps.

The certified ROA is the largest sublevel set {Vbar <= c} that enters no cell
of a red node and no cell of the outer boundary layer of D (so the continuum
set cannot leak out of the verified region), restricted to the face-connected
component of the origin. Everything is grid-resolution limited: c is a node
value, capped below the cell lower bound vbar_low of every blocked node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .control import SingularSystem, solve_discrete_lyapunov
from .dynamics import ClosedLoopSystem, simulate_batch
from .verify import GridSpec, ValidityMap


@dataclass(frozen=True, eq=False)
class RoaResult:
    c: float                    # certified sublevel value
    member_rows: np.ndarray     # grid rows with Vbar <= c (origin component)
    area: float                 # member cell count x cell volume (or plane shadow)
    plane: tuple[int, int]      # the state plane the area and the drawings use

    @property
    def empty(self) -> bool:
        return self.c == 0.0

    @property
    def n_cells(self) -> int:
        return int(self.member_rows.size)


def _origin_component(rows: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Restrict member rows to the origin's face-adjacent component, found breadth
    first; a neighbor column maps distinct nodes to distinct neighbors, except that
    an absent neighbor is the node itself, which is already reached."""
    member = np.zeros(grid.n_nodes, dtype=bool)
    member[rows] = True
    reached = np.zeros(grid.n_nodes, dtype=bool)
    reached[grid.origin_row] = True
    frontier = np.array([grid.origin_row])
    while frontier.size:
        found = []
        for nb in grid.neighbors[frontier].T:
            nb = nb[member[nb] & ~reached[nb]]
            reached[nb] = True   # before the next column looks, so no frontier repeats a node
            found.append(nb)
        frontier = np.concatenate(found)
    return np.nonzero(reached)[0]


def largest_level_set(vmap: ValidityMap, grid: GridSpec, plane: tuple[int, int]) -> RoaResult:
    """Extraction of the certified sublevel value.

    A node is blocked when it is not green or sits in the outer boundary
    layer. Vbar is at least vbar_low(u) everywhere in a blocked node u's cell,
    so with c the largest non-exempt node value strictly below the least such
    bound, the continuum set {Vbar <= c} enters no blocked cell. A level at
    or below zero yields the empty result (c = 0, area 0).
    """
    blocked = (~vmap.green) | grid.boundary
    cap = np.min(vmap.vbar_low[blocked], initial=np.inf)
    eligible = vmap.vbar[(vmap.vbar < cap) & ~vmap.exempt]
    c = float(np.max(eligible)) if eligible.size else 0.0
    if c <= 0.0:
        return RoaResult(c=0.0, member_rows=np.array([grid.origin_row]), area=0.0, plane=plane)

    rows = _origin_component(np.nonzero(vmap.vbar <= c)[0], grid)
    result = RoaResult(c=c, member_rows=rows, area=0.0, plane=plane)
    return replace(result, area=roa_area(result, grid))


def roa_area(result: RoaResult, grid: GridSpec) -> float:
    """Nonempty member-cell area: full-dimensional for dim <= 2, plane shadow above."""
    if grid.dim > 2:
        shadow = _plane_image(result, grid, result.plane)
        return float(np.count_nonzero(shadow) * grid.spacing**2)
    return float(result.n_cells * grid.cell_volume)


def _plane_image(result: RoaResult, grid: GridSpec, axes: tuple[int, int]) -> np.ndarray:
    """(nodes_per_axis, nodes_per_axis) occupancy of the member cells' (i, j) index pairs."""
    i, j = axes
    image = np.zeros((grid.nodes_per_axis,) * 2, dtype=bool)
    members = grid.index[result.member_rows]
    image[members[:, i], members[:, j]] = True
    return image


RK4_STEP_LIMIT = 2.5   # largest h * rho(A) the gate integrates at; RK4's real-axis limit is 2.785


@dataclass(frozen=True)
class ConvergenceCheck:
    fraction: float
    n_samples: int
    step: float                 # RK4 step the rollouts used

    @property
    def vacuous(self) -> bool:
        return self.n_samples == 0


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


REGION_RADII = 32   # Q-radii the retirement region tries, from the ball's to |x|_2 = 1


def retirement_region(system: ClosedLoopSystem, h: float, tol: float,
                      n_steps: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(Q, levels) such that a row x with k of n_steps floating-point RK4 steps of
    size h still to go and x^T Q x <= levels[k] ends below tol, or None.

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

    Where q rho + e <= rho, the Q-ball of radius rho maps into itself, and with
    f = e / (1 - q) and r_k = f + (low tol - f) / q^k one step maps
    min(rho, r_k) into min(rho, r_(k-1)); r_0 = low tol lies inside
    |x|_2 <= tol, so by induction a row inside min(rho, r_k) with k steps to go
    ends below tol. levels[k] is the largest such radius, squared, over
    REGION_RADII radii from low tol / 2 to low (|x|_2 <= 1), and never below
    the ball that needs no step count: the largest of low tol / 2 halved j
    times that one step maps into itself, inside |x|_2 <= tol / 2. levels is
    nondecreasing in k. No region when rho(M) >= 1 or no ball radius passes.
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

    def gain(rho: float) -> float:
        return contraction + high * (_rk4_remainder(a, G, p, h, rho / low) / rho
                                     + STEP_ROUNDING / low)

    rho = low * tol / 2.0
    for _ in range(60):   # past 2^-60 the rounding allowance outweighs any contraction
        if gain(rho) * rho + e <= rho:
            break
        rho /= 2.0
    else:
        return None
    levels = np.full(n_steps + 1, rho * rho)
    steps_to_go = np.arange(n_steps + 1)
    for rho in np.geomspace(low * tol / 2.0, low, REGION_RADII):
        q = gain(rho)
        if not q * rho + e <= rho:   # an infinite q fails too
            continue
        f = e / (1.0 - q)
        if f < low * tol:
            with np.errstate(divide="ignore"):   # q^k underflows to 0: rho caps r_k
                radius = np.minimum(rho, f + (low * tol - f) / q ** steps_to_go)
            np.maximum(levels, radius * radius, out=levels)
    return Q, levels * (1.0 - SLACK)


def _start_states(result: RoaResult, candidate, grid: GridSpec, n_samples: int,
                  seed: int) -> np.ndarray:
    """n_samples states uniform over the member cells, drawn from default_rng(seed)
    and rejection-filtered to {Vbar <= c}."""
    rng = np.random.default_rng(seed)
    centers = grid.coords(result.member_rows)
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])

    points = []
    attempts = 0
    while len(points) < n_samples and attempts < 60 * n_samples:
        take = n_samples - len(points)
        idx = rng.integers(centers.shape[0], size=take)
        jitter = rng.uniform(-0.5, 0.5, size=(take, grid.dim)) * grid.spacing
        batch = centers[idx] + jitter
        ok = np.linalg.norm(batch, axis=1) <= grid.radius
        ok &= (candidate.value(batch) - v0) <= result.c
        points.extend(batch[ok])
        attempts += take
    if len(points) < n_samples:
        # jitter keeps landing above the level: fall back to the node centers
        idx = rng.integers(centers.shape[0], size=n_samples - len(points))
        points.extend(centers[idx])
    return np.asarray(points[:n_samples])


def monte_carlo_convergence(system: ClosedLoopSystem, certificates, grid: GridSpec,
                            n_samples: int, h: float, horizon: float, tol: float,
                            seed: int) -> list[ConvergenceCheck]:
    """Roll out RK4 trajectories from inside each certified set, in one sweep.

    `certificates` is a list of (RoaResult, candidate) pairs; one check is
    returned per pair. Each nonempty set draws n_samples initial states from
    its own default_rng(seed), uniform over its member cells and
    rejection-filtered to {Vbar <= c} (cell jitter can otherwise step just
    over the level). All draws are then integrated by one simulate_batch call
    at gate_step(system, h) up to the horizon, each row retired once it enters
    the step's retirement_region for the steps it has still to go, from where
    it provably ends below tol. A check's fraction is the share of its
    rollouts that retired or end with |x(horizon)|_2 < tol; an empty ROA is
    vacuously 1.0.
    """
    step = gate_step(system, h)
    starts = [_start_states(result, candidate, grid, n_samples, seed)
              for result, candidate in certificates if not result.empty]
    fractions = iter(())
    if starts:
        region = retirement_region(system, step, tol, int(round(horizon / step)))
        finals, diverged, retired = simulate_batch(system, np.concatenate(starts), step,
                                                   horizon, region)
        converged = retired | (~diverged & (np.linalg.norm(finals, axis=1) < tol))
        fractions = iter(converged.reshape(len(starts), n_samples).mean(axis=1).tolist())
    return [ConvergenceCheck(fraction=1.0, n_samples=0, step=step) if result.empty
            else ConvergenceCheck(fraction=next(fractions), n_samples=n_samples, step=step)
            for result, _ in certificates]


def export_roa_json(result: RoaResult, grid: GridSpec) -> dict:
    return {
        "c": result.c,
        "area": result.area,
        "n_cells": result.n_cells,
        "empty": result.empty,
        "plane": list(result.plane) if grid.dim > 2 else None,
        "grid": {"radius": grid.radius, "nodes_per_axis": grid.nodes_per_axis,
                 "dim": grid.dim, "tau": grid.tau},
    }


def export_boundary_csv(result: RoaResult, grid: GridSpec) -> str:
    """Member cells whose face neighborhood leaves the member set (2-D plane)."""
    rows = ["u,v"]
    if not result.empty:
        cells = np.pad(_plane_image(result, grid, result.plane), 1)
        inner = cells[:-2, 1:-1] & cells[2:, 1:-1] & cells[1:-1, :-2] & cells[1:-1, 2:]
        reprs = [repr(v) for v in grid.axis_coords.tolist()]
        rows += [f"{reprs[a]},{reprs[b]}"
                 for a, b in np.argwhere(cells[1:-1, 1:-1] & ~inner).tolist()]
    return "".join(row + "\r\n" for row in rows)
