"""Lookups, writers and reference implementations the tests share; the library
itself never needs them.

The reference writers are the per-node loops the library's writers replaced
(Python float arithmetic, formatting and set lookups at every node); the
library's table-driven writers must reproduce their output byte for byte.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lyapcert import cli, control, dynamics, net, roa, svg, verify
from lyapcert.config import PRESETS

ROOT = Path(__file__).resolve().parents[1]

# appended to a peak_kb script: print the peak resident set in KB
PEAK_PROBE = """
import resource
try:   # VmHWM, unlike ru_maxrss, does not count the resident set of the launching process
    print(next(int(line.split()[1]) for line in open("/proc/self/status")
               if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_kb(script, *args, timeout=120):
    """Peak resident set (KB) of a child Python process that runs `script` with
    `args` as argv[1:], on one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script + PEAK_PROBE, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def nominal_params(system_id, n_microgrids=3):
    """A system's nominal parameter tuple; the microgrid's has n_microgrids droops."""
    values = {"pendulum": dynamics.NOMINAL_PENDULUM, "fan": dynamics.NOMINAL_FAN}.get(system_id)
    return dynamics.ParamVector(system_id, values or dynamics.nominal_microgrid(n_microgrids))


def nominal_system(system_id, n_microgrids=3):
    """The closed loop at the nominal parameters, as `build_system` makes it."""
    return dynamics.build_system(nominal_params(system_id, n_microgrids))


# every shipped system family at its preset's test tuple, and the stiff l = 0.254
# pendulum, which the Monte-Carlo gate integrates at a sub-step
GATE_CASES = [("ip_stochastic_l", None), ("mg3_dc12", None), ("mg5_dc12", None),
              ("cf_m", None), ("ip_stochastic_l", 0.254)]


def gate_case(preset, length=None):
    """(system, gate step, RoaBlock) of a preset's test tuple, as the Monte-Carlo gate
    integrates it; `length` swaps in another pendulum length."""
    cfg = PRESETS[preset]
    params = cfg.system.test()
    if length is not None:
        params = dynamics.ParamVector("pendulum", (length, *params.values[1:]))
    system = dynamics.build_system(params)
    return system, roa.gate_step(system, cfg.roa.mc_step), cfg.roa


def lattice_points(grid):
    """(n, dim) integer lattice point of each node: its axis index less half the axis."""
    return grid.index - grid.nodes_per_axis // 2


def node_coords(grid):
    """(n, dim) node coordinates as lattice point times spacing."""
    return lattice_points(grid) * grid.spacing


def row_of(grid, lattice_point):
    """Grid row of an integer lattice point, or None when the point is not a node."""
    rows = np.nonzero(np.all(lattice_points(grid) == np.asarray(lattice_point), axis=1))[0]
    return int(rows[0]) if rows.size else None


def save_checkpoint(path, theta, arch, extra=None) -> None:
    """Write a checkpoint file as the `train-meta` and `adapt` commands do."""
    cli.atomic_write_text(Path(path), json.dumps(net.checkpoint_payload(theta, arch, extra)))


def reference_gradient(candidate, X):
    """grad_x V; for the MLP from its own forward sweep, with tanh' in fresh arrays."""
    if not isinstance(candidate, net.MlpLyapunov):
        return candidate.gradient(X)
    _, acts = net._forward_sweep(candidate._weights, X[None])
    return net._input_gradient(candidate._weights, net._tanh_primes(acts))[0]


def reference_build_grid(radius, nodes_per_axis, dim):
    """build_grid from the whole box: every box node is made, then clipped to the
    ball plus collar, and both face neighbors on each axis are looked up in a
    box-sized row table; a node with no face neighbor on a side holds its own row."""
    half = (nodes_per_axis - 1) // 2
    spacing = radius / half
    mesh = np.meshgrid(*([np.arange(nodes_per_axis)] * dim), indexing="ij")
    index = np.stack([m.reshape(-1) for m in mesh], axis=1)
    norms = np.linalg.norm((index - half) * spacing, axis=1)
    inside = norms <= radius + np.sqrt(dim) * spacing / 2.0 + 1e-12
    full_rows = np.full(nodes_per_axis**dim, -1, dtype=np.int64)
    full_rows[inside] = np.arange(int(inside.sum()))
    index, norms = index[inside], norms[inside]
    strides = np.array([nodes_per_axis**(dim - 1 - k) for k in range(dim)], dtype=np.int64)
    flat = index @ strides
    neighbors = np.empty((index.shape[0], 2 * dim), dtype=np.int64)
    for axis in range(dim):
        neighbors[:, 2 * axis] = np.where(index[:, axis] == 0, -1,
                                          full_rows[np.maximum(flat - strides[axis], 0)])
        neighbors[:, 2 * axis + 1] = np.where(
            index[:, axis] == 2 * half, -1,
            full_rows[np.minimum(flat + strides[axis], full_rows.size - 1)])
    missing = neighbors < 0
    neighbors[missing] = np.nonzero(missing)[0]
    boundary = (norms > radius + 1e-12) | missing.any(axis=1)
    return verify.GridSpec(
        radius=float(radius), nodes_per_axis=nodes_per_axis, dim=dim, spacing=float(spacing),
        tau=float(dim * spacing / 2.0), index=index,
        origin_row=int(full_rows[np.full(dim, half) @ strides]), boundary=boundary,
        neighbors=neighbors)


def reference_check_validity(candidate, system, grid, exempt_radius=0.0):
    """check_validity in one pass over all nodes, with V and its gradient from two
    separate sweeps."""
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])
    X = node_coords(grid)
    vbar = candidate.value(X) - v0
    grads = reference_gradient(candidate, X)
    lie = np.sum(grads * system.f_batch(X), axis=1)
    k_v, k_lie = verify.estimate_lipschitz(np.max(np.abs(grads), axis=1), lie, grid)
    exempt = np.linalg.norm(X, axis=1) <= exempt_radius
    exempt[grid.origin_row] = True
    return verify.ValidityMap(vbar=vbar, lie=lie, vbar_low=vbar - k_v * grid.tau,
                              lie_high=lie + k_lie * grid.tau, exempt=exempt)


def reference_validity_csv(vmap, grid) -> str:
    """The validity CSV through csv.writer, one repr per value and node."""
    header = [f"x{i + 1}" for i in range(grid.dim)]
    header += ["vbar", "lie", "positivity_ok", "decrease_ok", "exempt"]
    cols = [map(repr, col.tolist()) for col in (*node_coords(grid).T, vmap.vbar, vmap.lie)]
    cols += [map(int, flag.tolist()) for flag in (vmap.positivity_ok, vmap.decrease_ok, vmap.exempt)]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(zip(*cols))
    return text.getvalue()


def reference_validity_svg(vmap, grid, roa=None, axes=(0, 1)) -> str:
    """The validity SVG with one to_px call and one formatting per node."""
    to_px, scale = svg._scaler(grid.radius)
    cell = grid.spacing * scale
    rest = [k for k in range(grid.dim) if k not in axes]
    rows = np.nonzero(np.all(lattice_points(grid)[:, rest] == 0, axis=1))[0]
    coords = node_coords(grid)
    green = vmap.green
    member = set()
    if roa is not None and not roa.empty:
        member = set(int(r) for r in roa.member_rows)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{svg.CANVAS:.0f}" '
        f'height="{svg.CANVAS:.0f}" viewBox="0 0 {svg.CANVAS:.0f} {svg.CANVAS:.0f}">',
        f'<rect width="{svg.CANVAS:.0f}" height="{svg.CANVAS:.0f}" fill="white"/>',
    ]
    for row in rows:
        u, v = coords[row, axes[0]], coords[row, axes[1]]
        px, py = to_px(u, v)
        color = svg.PALE if vmap.exempt[row] else (svg.GREEN if green[row] else svg.RED)
        parts.append(
            f'<rect x="{px - cell / 2:.2f}" y="{py - cell / 2:.2f}" '
            f'width="{cell:.2f}" height="{cell:.2f}" fill="{color}" fill-opacity="0.85"/>'
        )
    if member:
        for row in rows:
            if int(row) not in member:
                continue
            u, v = coords[row, axes[0]], coords[row, axes[1]]
            px, py = to_px(u, v)
            parts.append(
                f'<rect x="{px - cell / 2:.2f}" y="{py - cell / 2:.2f}" '
                f'width="{cell:.2f}" height="{cell:.2f}" fill="none" '
                f'stroke="#1f2a44" stroke-width="0.6"/>'
            )
    parts.append(svg._axis_frame(grid.radius, to_px))
    parts.append("</svg>")
    return "\n".join(parts)


def reference_project_plane(result, grid, axes) -> np.ndarray:
    """The distinct (lattice_i, lattice_j) member pairs through np.unique."""
    i, j = axes
    return np.unique(lattice_points(grid)[result.member_rows][:, (i, j)], axis=0)


def reference_boundary_csv(result, grid) -> str:
    """The boundary CSV from a set of plane cells and per-cell neighbor lookups."""
    shadow = (reference_project_plane(result, grid, result.plane) if not result.empty
              else np.empty((0, 2), dtype=int))
    cells = set(map(tuple, shadow))
    rows = ["u,v"]
    for ci, cj in sorted(cells):
        if any((ci + di, cj + dj) not in cells
               for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))):
            rows.append(f"{float(ci * grid.spacing)!r},{float(cj * grid.spacing)!r}")
    return "".join(row + "\r\n" for row in rows)


def ring_admittance(n):
    """The microgrid's line admittance matrix: a ring of unit lines (one line for n = 2)."""
    Y = np.zeros((n, n))
    for i in range(n):
        Y[i, (i + 1) % n] = Y[(i + 1) % n, i] = 1.0
    return Y


def reference_microgrid(dc, X):
    """The microgrid field (-dc o x - (P(x) - P(0)) + K o x) / J and its Jacobian at
    the origin (diag(K - dc - Ws 1) + Ws) / J, from per-node and per-line arrays
    W = E E^T o Y, gamma, E, G, J and K, at the ring's E = 1, G = 0, J = 1, K = 0
    and one line angle pi/2 - 0.1; P = sum_k W_ik cos(x_i - x_k - gamma_ik) + E_i^2 G_i
    by the angle-difference identity."""
    n = X.shape[1]
    dc = np.asarray(dc)
    gamma = np.full((n, n), np.pi / 2 - 0.1)
    E, G, J, K = np.ones(n), np.zeros(n), np.ones(n), np.zeros(n)
    W = np.outer(E, E) * ring_admittance(n)
    WcT = np.ascontiguousarray((W * np.cos(gamma)).T)
    WsT = np.ascontiguousarray((W * np.sin(gamma)).T)

    def power(X):
        c, s = np.cos(X), np.sin(X)
        return c * (c @ WcT - s @ WsT) + s * (s @ WcT + c @ WsT) + E**2 * G

    dP = power(X) - power(np.zeros((1, n)))[0]
    Ws = W * np.sin(gamma)
    return ((-dc * X - dP + K * X) / J,
            (np.diag(K - dc - Ws.sum(axis=1)) + Ws) / J[:, None])


def reference_simulate_batch(system, X0, h, horizon):
    """simulate_batch with the 2-norm divergence rule evaluated at every step."""
    X = np.array(X0, dtype=float)
    alive = np.arange(X.shape[0])
    for _ in range(int(round(horizon / h))):
        if alive.size == 0:
            break
        X[alive] = dynamics.rk4_step(system.f_batch, X[alive], h)
        bad = np.linalg.norm(X[alive], axis=1) > dynamics.DIVERGENCE_NORM
        alive = alive[~bad]
    diverged = np.ones(X.shape[0], dtype=bool)
    diverged[alive] = False
    return X, diverged


def gate_levels(system, step, roa_block):
    """`roa.retirement_region` of a gate case over the gate's horizon: (Q, levels)."""
    return roa.retirement_region(system, step, roa_block.mc_tol,
                                 int(round(roa_block.mc_horizon / step)))


def reference_retirement_ball(system, h, tol):
    """The invariant ball the gate retired rows in before its levels counted the steps
    to go: (Q, level), the largest of sqrt(lambda_min(Q)) tol / 2 halved j times whose
    Q-ball one rounded RK4 step maps into itself, or None."""
    hA = h * system.linearization()
    eye = np.eye(len(hA))
    M = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)
    if np.max(np.abs(np.linalg.eigvals(M))) >= 1.0:
        return None
    Q = control.solve_discrete_lyapunov(M, eye)
    lam = np.linalg.eigvalsh(Q)
    low, high = np.sqrt(lam[0] * (1.0 - roa.SLACK)), np.sqrt(lam[-1] * (1.0 + roa.SLACK))
    L_inv = np.linalg.inv(np.linalg.cholesky(Q))
    contraction = np.sqrt(np.linalg.eigvalsh(L_inv @ M.T @ Q @ M @ L_inv.T)[-1]
                          * (1.0 + roa.SLACK))
    a = np.linalg.norm(hA / h, 2) * (1.0 + roa.SLACK)
    G, p = system.remainder_bound()
    rho = low * tol / 2.0
    for _ in range(60):
        nu = rho / low
        step = roa._rk4_remainder(a, G, p, h, nu) + roa.STEP_ROUNDING * (1.0 + nu)
        if contraction * rho + high * step <= rho:
            return Q, rho * rho * (1.0 - roa.SLACK)
        rho /= 2.0
    return None


def per_row_jacobian(theta, arch, X):
    """dV/dtheta (n, n_params) one row of X at a time, through 1-d vectors: each weight
    block the outer product of its layer's adjoint and input."""
    layers = [(W, b[0]) for W, b in net.unpack(theta, arch)]
    J = np.empty((len(X), arch.n_params))
    for r, x in enumerate(X):
        acts = [x]
        for W, b in layers[:-1]:
            acts.append(np.tanh(W @ acts[-1] + b))
        delta = np.ones(1)
        for (W, _), (gW, gb), a in zip(layers[::-1], net.unpack(J[r], arch)[::-1], acts[::-1]):
            gW[...] = np.outer(delta, a)
            gb[...] = delta
            delta = (delta @ W) * (1.0 - a * a)   # the input layer's is never read
    return J
