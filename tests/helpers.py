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
from lyapcert.config import PRESETS, nominal_microgrid, peak_bytes

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


def child_int(script, *args, timeout=120):
    """The integer a child Python process prints when it runs `script` with `args` as
    argv[1:], on one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def peak_kb(script, *args, timeout=120):
    """Peak resident set (KB) of a child Python process that runs `script` with
    `args` as argv[1:], on one BLAS thread."""
    return child_int(script + PEAK_PROBE, *args, timeout=timeout)


def estimated_growth(stage, small, large):
    """How many bytes `config.peak_bytes`'s estimate of the stage whose name starts with
    `stage` grows by from config `small` to config `large`."""
    def estimate(cfg):
        return next(peak for name, peak in peak_bytes(cfg).items() if name.startswith(stage))
    return estimate(large) - estimate(small)


def nominal_params(system_id, n_microgrids=3):
    """A system's nominal parameter tuple; the microgrid's has n_microgrids droops."""
    values = {"pendulum": dynamics.NOMINAL_PENDULUM, "fan": dynamics.NOMINAL_FAN}.get(system_id)
    return values or nominal_microgrid(n_microgrids)


def nominal_system(system_id, n_microgrids=3):
    """The closed loop at the nominal parameters, as `build_system` makes it."""
    return dynamics.build_system(system_id, nominal_params(system_id, n_microgrids))


# every shipped system family at its preset's test tuple, and the stiff l = 0.254
# pendulum, which the Monte-Carlo gate integrates at a sub-step
GATE_CASES = [("ip_stochastic_l", None), ("mg3_dc12", None), ("mg5_dc12", None),
              ("cf_m", None), ("ip_stochastic_l", 0.254)]


def gate_case(preset, length=None):
    """(system, gate step, RoaBlock) of a preset's test tuple, as the Monte-Carlo gate
    integrates it; `length` swaps in another pendulum length."""
    cfg = PRESETS[preset]
    values = cfg.system.theta_test
    if length is not None:
        values = (length, *values[1:])
    system = dynamics.build_system(cfg.system.system_id, values)
    return system, roa.gate_step(system, cfg.roa.mc_step), cfg.roa


def lattice_points(grid):
    """(n, dim) integer lattice point of each node: its axis index less half the axis."""
    return grid.index.astype(np.int64) - grid.nodes_per_axis // 2


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


def reference_build_grid(radius, nodes_per_axis, dim, exempt_radius=0.0, plane=(0, 1)):
    """build_grid from the whole box: every box node is made, then clipped to the
    ball plus collar, and the kept ones are numbered in a box-sized row table; a node
    is in the boundary layer when it is in the collar or one of its face neighbors
    (reference_face_neighbors) is missing. A node is exempt when its coordinates'
    norm is at most exempt_radius, and the origin is."""
    half = (nodes_per_axis - 1) // 2
    spacing = radius / half
    mesh = np.meshgrid(*([np.arange(nodes_per_axis)] * dim), indexing="ij")
    index = np.stack([m.reshape(-1) for m in mesh], axis=1)
    norms = np.linalg.norm((index - half) * spacing, axis=1)
    inside = norms <= radius + np.sqrt(dim) * spacing / 2.0 + 1e-12
    box_rows = np.full(nodes_per_axis**dim, -1, dtype=np.int32)
    box_rows[inside] = np.arange(int(inside.sum()))
    index, norms = index[inside], norms[inside]
    origin_row = int(box_rows[np.ravel_multi_index((half,) * dim, (nodes_per_axis,) * dim)])
    exempt = norms <= exempt_radius
    exempt[origin_row] = True
    grid = verify.GridSpec(
        radius=float(radius), nodes_per_axis=nodes_per_axis, dim=dim, spacing=float(spacing),
        tau=float(dim * spacing / 2.0), index=index.astype(np.min_scalar_type(nodes_per_axis - 1)),
        origin_row=origin_row, boundary=norms > radius + 1e-12, box_rows=box_rows,
        exempt=exempt, plane=plane if dim > 2 else (0, 1))
    own = reference_face_neighbors(grid) == np.arange(grid.n_nodes)
    grid.boundary[own.any(axis=(0, 1))] = True
    return grid


def reference_face_neighbors(grid):
    """(2, dim, n) face neighbor rows, -axis k at [0, k] and +axis k at [1, k], from
    the lattice point one step away, looked up in a box-sized row table made from the
    grid's index alone; a node with no face neighbor on a side holds its own row."""
    n, dim = grid.nodes_per_axis, grid.dim
    index = grid.index.astype(np.int64)
    strides = np.array([n**(dim - 1 - k) for k in range(dim)], dtype=np.int64)
    flat = index @ strides
    full_rows = np.full(n**dim, -1, dtype=np.int64)
    full_rows[flat] = np.arange(grid.n_nodes)
    neighbors = np.empty((2, dim, grid.n_nodes), dtype=np.int64)
    for axis in range(dim):
        neighbors[0, axis] = np.where(index[:, axis] == 0, -1,
                                      full_rows[np.maximum(flat - strides[axis], 0)])
        neighbors[1, axis] = np.where(index[:, axis] == n - 1, -1,
                                      full_rows[np.minimum(flat + strides[axis], n**dim - 1)])
    return np.where(neighbors < 0, np.arange(grid.n_nodes), neighbors)


def reference_check_validity(candidate, system, grid, exempt_radius=0.0):
    """check_validity in one pass over all nodes, with V and its gradient from two
    separate sweeps, and each node's exemption from its coordinates' norm."""
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


def frozen_bounds(vbar, lie, grad_inf, grid):
    """(vbar_low, lie_high) by the expressions of the map before its bounds were made in
    place: the constants' star maxima over the whole-box neighbor table, then each
    product and sum in a new array; a NaN upper bound is +inf."""
    nb = reference_face_neighbors(grid)
    with np.errstate(invalid="ignore"):   # inf - inf
        k_v = np.maximum(grad_inf, grad_inf[nb].max(axis=(0, 1)))
        k_lie = np.abs(lie - lie[nb]).max(axis=(0, 1))
    k_v, k_lie = k_v * verify.SAFETY, k_lie * (1.0 / grid.spacing) * verify.SAFETY
    with np.errstate(invalid="ignore"):   # -inf + inf
        lie_high = lie + k_lie * grid.tau
    lie_high[np.isnan(lie_high)] = np.inf
    return vbar - k_v * grid.tau, lie_high


def frozen_stacked_field(system, X):
    """The pendulum's and the fan's x_dot as the columns' np.stack, before the fields
    wrote one array; the microgrid's from the system."""
    if system.system_id == "pendulum":
        l, m, g, b = system.values
        theta, theta_dot = X[:, 0], X[:, 1]
        u = -(X @ system.gain.T)[:, 0]
        theta_ddot = (m * g * l * np.sin(theta) - b * theta_dot + u) / (m * l * l)
        return np.stack([theta_dot, theta_ddot], axis=1)
    if system.system_id == "fan":
        m, J, r, g, d = system.values
        xd, yd, th, thd = X[:, 1], X[:, 3], X[:, 4], X[:, 5]
        U = -(X @ system.gain.T)
        u1, u2 = U[:, 0], U[:, 1]
        sin_t, cos_t = np.sin(th), np.cos(th)
        xdd = (-m * g * sin_t - d * xd + u1 * cos_t - u2 * sin_t) / m
        ydd = (m * g * (cos_t - 1.0) - d * yd + u1 * sin_t + u2 * cos_t) / m
        return np.stack([xd, xdd, yd, ydd, thd, r * u1 / J], axis=1)
    return system.f_batch(X)


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
    shadow = (reference_project_plane(result, grid, grid.plane) if not result.empty
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


def reference_horizon_level(system, h, tol=1e-2, horizon=20.0):
    """(Q, level): the Q-ball the gate retired a row in with `horizon` still to go when it
    asked |x(horizon)|_2 < tol, or None. The level is the largest of the squared radii
    min(rho, f + (low tol - f) / q^k), k = round(horizon / h), f = e / (1 - q), over 32
    radii rho from low tol / 2 to low with q rho + e <= rho, and never below the largest
    of low tol / 2 halved j times with q rho + e <= rho (q, e and low as `roa.basin` has
    them)."""
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
    e = high * roa.STEP_ROUNDING

    def gain(rho):
        return contraction + high * (roa._rk4_remainder(a, G, p, h, rho / low) / rho
                                     + roa.STEP_ROUNDING / low)

    balls = [low * tol / 2.0 ** j for j in range(1, 61)]
    best = next((rho for rho in balls if gain(rho) * rho + e <= rho), None)
    if best is None:
        return None
    for rho in np.geomspace(low * tol / 2.0, low, 32):
        q = gain(rho)
        if q * rho + e <= rho and e / (1.0 - q) < low * tol:
            f = e / (1.0 - q)
            with np.errstate(divide="ignore"):
                best = max(best, min(rho, f + (low * tol - f) / q ** round(horizon / h)))
    return Q, best * best * (1.0 - roa.SLACK)


class RowCounting:
    """A system whose f_batch counts the rows it evaluates; all else is the system's."""

    def __init__(self, system):
        self.system, self.rows = system, 0

    def __getattr__(self, name):
        return getattr(self.system, name)

    def f_batch(self, X):
        self.rows += len(X)
        return self.system.f_batch(X)


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


# The derivative engine and bowl fit frozen as they stood before their hot paths were
# rewritten in place: the library's `loss_gradients`, `hvps` and `shaped_init` must
# keep these bits. They share only the parameter layout (`net.unpack`), the random init
# and the ball sampler with the library.
FROZEN_INIT = dict(scale=3.0, points=2048, iters=20, chunk=256, damping=1.0, up=4.0, down=3.0)


def _frozen_forward(weights, X):
    acts = [X]
    for l, (W, b) in enumerate(weights):
        Z = acts[l] @ W.transpose(0, 2, 1)
        Z += b
        if l == len(weights) - 1:
            return Z[..., 0], acts
        acts.append(np.tanh(Z, out=Z))


def _frozen_tanh_primes(acts):
    sps = [None]
    for A in acts[1:]:
        S = np.multiply(A, A)
        sps.append(np.subtract(1.0, S, out=S))
    return sps


def _frozen_input_gradient(weights, sps):
    delta = weights[-1][0] * sps[-1]
    for l in range(len(weights) - 2, 0, -1):
        delta = delta @ weights[l][0]
        delta *= sps[l]
    return delta @ weights[0][0]


def _frozen_tangent(weights, sps, Y):
    T, U = [Y], [None]
    for l, (W, _b) in enumerate(weights[:-1], start=1):
        u = T[l - 1] @ W.transpose(0, 2, 1)
        U.append(u)
        T.append(sps[l] * u)
    return T, U


def _frozen_backprop(weights, acts, sps, T, U, pos, dec, grads):
    L = len(weights)
    W_out = weights[-1][0]
    gW_out, gb_out = grads[-1]
    gW_out += pos[:, None, :] @ acts[L - 1] + dec[:, None, :] @ T[L - 1]
    gb_out += pos.sum(axis=1)[:, None, None]
    T_bar = dec[..., None] * W_out
    A_bar = pos[..., None] * W_out
    ones = np.ones((1, pos.shape[1]))
    for l in range(L - 1, 0, -1):
        sp = sps[l]
        spp = -2.0 * acts[l] * sp
        U_bar = sp * T_bar
        Z_bar = spp * U[l] * T_bar
        Z_bar += sp * A_bar
        gW, gb = grads[l - 1]
        gW += U_bar.transpose(0, 2, 1) @ T[l - 1] + Z_bar.transpose(0, 2, 1) @ acts[l - 1]
        gb += ones @ Z_bar
        if l > 1:
            W_l = weights[l - 1][0]
            T_bar = U_bar @ W_l
            A_bar = Z_bar @ W_l


def frozen_loss_gradients(thetas, arch, batch, cfg, values=False):
    """`net.loss_gradients` as frozen: (B, n_params) gradients, and with `values` the
    loss terms (V, grad_x V^T y, V(0))."""
    X, Y = (np.concatenate([a, np.zeros_like(a[:, :1])], axis=1) for a in batch)
    n = X.shape[1] - 1
    weights = net.unpack(np.atleast_2d(thetas), arch)
    V, acts = _frozen_forward(weights, X)
    sps = _frozen_tanh_primes(acts)
    T, U = _frozen_tangent(weights, sps, Y)
    S = (T[-1] @ weights[-1][0].transpose(0, 2, 1))[..., 0]
    pos = np.where((cfg.eps1 - V) > 0.0, -1.0 / n, 0.0)
    pos[:, n] = 2.0 * V[:, n]
    dec = np.where((cfg.eps2 + S) > 0.0, 1.0 / n, 0.0)
    dec[:, n] = 0.0
    grad = np.zeros((len(V), arch.n_params))
    _frozen_backprop(weights, acts, sps, T, U, pos, dec, net.unpack(grad, arch))
    if not values:
        return grad
    lie = np.sum(_frozen_input_gradient(weights, sps)[:, :n] * batch[1], axis=2)
    return grad, (V[:, :n], lie, V[:, n])


def frozen_hvps(theta, arch, batch, cfg, v):
    """`net.hvps` as frozen: central differences of `frozen_loss_gradients` at the 2P
    points theta +- eps_p v_p, eps_p = 1e-4 / max(1, |v_p|), 0 for a zero or non-finite v_p."""
    twice = tuple(np.concatenate([a, a]) for a in batch)
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, theta.size)
    norms = np.array([np.linalg.norm(row) for row in rows])
    usable = ((norms != 0.0) & np.isfinite(norms))[:, None]
    eps = 1e-4 / np.maximum(1.0, np.where(usable[:, 0], norms, 1.0))[:, None]
    step = np.where(usable, eps * rows, 0.0)
    G = frozen_loss_gradients(np.concatenate([theta + step, theta - step]), arch, twice, cfg)
    return np.where(usable, (G[:len(rows)] - G[len(rows):]) / (2.0 * eps), 0.0).reshape(v.shape)


def _frozen_value_jacobian(theta, arch, X):
    weights = net.unpack(theta[None], arch)
    V, acts = _frozen_forward(weights, X[None])
    sps = _frozen_tanh_primes(acts)
    J = np.empty((len(X), arch.n_params))
    delta = np.ones((len(X), 1))
    for l, (gW, gb) in reversed(list(enumerate(net.unpack(J, arch)))):
        np.multiply(delta[:, :, None], acts[l][0][:, None, :], out=gW)
        gb[:, 0] = delta
        if l > 0:
            delta = delta @ weights[l][0][0]
            delta *= sps[l][0]
    return V[0], J


def frozen_shaped_init(arch, seed, radius):
    """`net.shaped_init` as frozen: the Levenberg-Marquardt bowl fit, normal equations
    rebuilt after every kept step and the damping added as mu * I."""
    k = FROZEN_INIT
    theta = net.init_params(arch, seed)
    X = dynamics.sample_ball(np.random.default_rng(seed), k["points"], arch.input_dim, radius)
    target = k["scale"] * (np.linalg.norm(X, axis=1) / radius) ** 2

    def cost(theta):
        r = _frozen_forward(net.unpack(theta[None], arch), X[None])[0][0] - target
        return r @ r

    def normal_equations(theta):
        JtJ, Jtr = np.zeros((arch.n_params, arch.n_params)), np.zeros(arch.n_params)
        for start in range(0, k["points"], k["chunk"]):
            V, J = _frozen_value_jacobian(theta, arch, X[start:start + k["chunk"]])
            JtJ += J.T @ J
            Jtr += J.T @ (V - target[start:start + k["chunk"]])
        return JtJ / k["points"], Jtr / k["points"]

    fit, damping = cost(theta), k["damping"]
    JtJ, Jtr = normal_equations(theta)
    for _ in range(k["iters"]):
        trial = theta - np.linalg.solve(JtJ + damping * np.eye(arch.n_params), Jtr)
        trial_fit = cost(trial)
        if trial_fit < fit:
            theta, fit, damping = trial, trial_fit, damping / k["down"]
            JtJ, Jtr = normal_equations(theta)
        else:
            damping *= k["up"]
    return theta
