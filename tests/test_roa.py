import csv
import io
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from lyapcert import dynamics, roa, verify
from lyapcert.baselines import QuadraticLyapunov
from lyapcert.config import PRESETS

from helpers import (GATE_CASES, RowCounting, estimated_growth, gate_case, lattice_points,
                     node_coords, nominal_system, peak_kb, reference_horizon_level,
                     reference_simulate_batch, row_of)

# peak resident set (KB) of one Monte-Carlo gate of four (16, 16) pendulum certificates
# with argv[1] rollouts each, over every interior cell of a 9 x 9 grid, capped at five
# steps (the peak comes with the first)
GATE_PEAK = """
import sys
import numpy as np
from lyapcert import dynamics, net, roa, verify
arch = net.Architecture(2, (16, 16))
system = dynamics.build_system("pendulum", dynamics.NOMINAL_PENDULUM)
grid = verify.build_grid(1.0, 9, 2)
result = roa.RoaResult(c=1e300, member_rows=np.nonzero(~grid.boundary)[0], area=1.0, binding=None)
certificate = (result, net.MlpLyapunov(net.init_params(arch, 0), arch))
roa.MAX_RK4_STEPS = 5
roa.monte_carlo_convergence(system, [certificate] * 4, grid, int(sys.argv[1]), 0.01, 0)
"""

# peak resident set (KB) of drawing argv[1] gate start states for one certificate of a
# (4,) pendulum network, over every interior cell of a 9 x 9 grid
START_PEAK = """
import sys
import numpy as np
from lyapcert import net, roa, verify
arch = net.Architecture(2, (4,))
grid = verify.build_grid(1.0, 9, 2)
result = roa.RoaResult(c=1e300, member_rows=np.nonzero(~grid.boundary)[0], area=1.0, binding=None)
roa._start_states(result, net.MlpLyapunov(net.init_params(arch, 0), arch), grid,
                  int(sys.argv[1]), 0)
"""


def listed_start_states(result, candidate, grid, n_samples, seed):
    """The gate's start-state draw as it gathered its accepted rows, one per-row array
    at a time in a Python list."""
    rng = np.random.default_rng(seed)
    centers = grid.coords(result.member_rows)
    v0 = float(candidate.value(np.zeros((1, grid.dim)))[0])
    points, attempts = [], 0
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
        idx = rng.integers(centers.shape[0], size=n_samples - len(points))
        points.extend(centers[idx])
    return np.asarray(points[:n_samples])


class LinearSystem:
    def __init__(self, dim):
        self.dim = dim

    def f(self, x):
        return -np.asarray(x, dtype=float).reshape(-1)

    def f_batch(self, X):
        return -np.asarray(X, dtype=float)

    def linearization(self):
        return -np.eye(self.dim)

    def remainder_bound(self):
        return 0.0, 2


class CubicSystem:
    """x_dot = -x + x^3 per axis: converges inside the unit box, diverges outside."""

    def __init__(self, dim):
        self.dim = dim

    def f(self, x):
        return self.f_batch(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def f_batch(self, X):
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return -X + X**3

    def linearization(self):
        return -np.eye(self.dim)

    def remainder_bound(self):
        return 1.0, 3          # |x^3|_2 <= |x|_2^3, componentwise cubes


def short_pendulum(length):
    return dynamics.build_system("pendulum", (length, 0.15, 9.81, 0.1))


def with_flags(grid, vbar, green_mask, vbar_low=None):
    """A map whose non-green nodes fail decrease; the cell lower bound of Vbar is
    `vbar_low`, by default Vbar itself."""
    n = grid.n_nodes
    vbar = np.asarray(vbar, dtype=float)
    return verify.ValidityMap(
        vbar=vbar, lie=-np.ones(n), vbar_low=vbar if vbar_low is None else vbar_low,
        lie_high=np.where(np.asarray(green_mask, dtype=bool), -1.0, 1.0),
        exempt=np.arange(n) == grid.origin_row)


def all_green_map(grid, vbar):
    return with_flags(grid, vbar, np.ones(grid.n_nodes, dtype=bool))


def bfs_component(grid, vbar, c):
    """Reference origin component of {vbar <= c}: breadth-first search over
    lattice face neighbors. Returns the sorted rows and the largest depth."""
    member = set(np.nonzero(vbar <= c)[0].tolist()) | {grid.origin_row}
    depth = {grid.origin_row: 0}
    queue = deque([grid.origin_row])
    lattice = lattice_points(grid)
    while queue:
        row = queue.popleft()
        for axis in range(grid.dim):
            for step in (-1, 1):
                point = lattice[row].copy()
                point[axis] += step
                j = row_of(grid, point)
                if j is not None and j in member and j not in depth:
                    depth[j] = depth[row] + 1
                    queue.append(j)
    return np.array(sorted(depth)), max(depth.values())


class TestLargestLevelSet:
    def test_quadratic_disk(self):
        grid = verify.build_grid(2.0, 41, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid)
        # cap is the smallest boundary-layer value, about (d - h)^2
        expected_c = (2.0 - grid.spacing) ** 2
        assert result.c == pytest.approx(expected_c, abs=2 * grid.spacing * 2.0 + 1e-9)
        assert result.area == pytest.approx(np.pi * result.c, rel=0.1)

    def test_all_red_empty(self):
        grid = verify.build_grid(1.0, 5, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(with_flags(grid, vbar, np.zeros(grid.n_nodes)), grid)
        assert result.empty and result.c == 0.0 and result.area == 0.0
        assert result.n_cells == 0 and roa.export_roa_json(result, grid)["n_cells"] == 0

    def test_single_red_caps_strictly(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        green = np.ones(grid.n_nodes, dtype=bool)
        bad = row_of(grid, [3, 0])
        green[bad] = False
        v_star = vbar[bad]
        result = roa.largest_level_set(with_flags(grid, vbar, green), grid)
        assert 0.0 < result.c < v_star

    def test_members_are_green_and_nested(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        vmap = all_green_map(grid, vbar)
        result = roa.largest_level_set(vmap, grid)
        assert np.all(vmap.green[result.member_rows])
        # level-set nesting: members at c' <= c are a subset
        smaller = set(np.nonzero(vbar <= result.c / 2)[0]) & set(result.member_rows.tolist())
        assert smaller <= set(result.member_rows.tolist())

    def test_cap_clears_blocked_cells(self):
        # red node u = (5, 0) with Vbar(u) = 0.25 and a cell lower bound of 0.15
        # (K_V = 1, tau = 0.1), below green node values such as (4, 2) at 0.20,
        # so c must stay below 0.15
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        green = np.ones(grid.n_nodes, dtype=bool)
        bad = row_of(grid, [5, 0])
        green[bad] = False
        vbar_low = vbar.copy()
        vbar_low[bad] -= 1.0 * grid.tau
        vmap = with_flags(grid, vbar, green, vbar_low=vbar_low)
        floor = vbar_low[bad]
        assert vbar[row_of(grid, [4, 2])] > floor
        result = roa.largest_level_set(vmap, grid)
        assert 0.0 < result.c < floor

    def test_binding_row_set_the_cap(self):
        """The binding row is the blocked node of the least cell bound: the red node of
        a map whose other nodes are green, the boundary-layer node of the least Vbar on
        an all-green map, and None when no node is blocked."""
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        green = np.ones(grid.n_nodes, dtype=bool)
        bad = row_of(grid, [5, 0])
        green[bad] = False
        assert roa.largest_level_set(with_flags(grid, vbar, green), grid).binding == bad
        binding = roa.largest_level_set(all_green_map(grid, vbar), grid).binding
        assert grid.boundary[binding] and vbar[binding] == np.min(vbar[grid.boundary])
        unbounded = replace(grid, boundary=np.zeros(grid.n_nodes, dtype=bool))
        result = roa.largest_level_set(all_green_map(unbounded, vbar), unbounded)
        assert result.binding is None and result.c == np.max(vbar)

    def test_cap_uses_local_constants(self):
        # only the red node's cell has a wide bound; it alone sets the cap
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        green = np.ones(grid.n_nodes, dtype=bool)
        bad = row_of(grid, [5, 0])
        green[bad] = False
        k_node = np.full(grid.n_nodes, 0.01)
        k_node[bad] = 1.0
        vmap = with_flags(grid, vbar, green, vbar_low=vbar - k_node * grid.tau)
        result = roa.largest_level_set(vmap, grid)
        assert 0.0 < result.c < vbar[bad] - 1.0 * grid.tau

    def test_monotone_in_green_set(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        green = np.ones(grid.n_nodes, dtype=bool)
        green[row_of(grid, [2, 0])] = False
        c_small = roa.largest_level_set(with_flags(grid, vbar, green), grid).c
        green[row_of(grid, [2, 0])] = True
        c_big = roa.largest_level_set(with_flags(grid, vbar, green), grid).c
        assert c_big >= c_small

    def test_connectivity_excludes_islands(self):
        grid = verify.build_grid(1.0, 21, 2)
        # two bowls: origin bowl plus a disconnected low-lying island at the rim
        vbar = np.sum(node_coords(grid)**2, axis=1)
        island = np.linalg.norm(node_coords(grid) - np.array([0.7, 0.0]), axis=1) < 0.15
        vbar[island] = 0.001
        # ring of red between origin component and the island
        ring = (np.linalg.norm(node_coords(grid) - np.array([0.7, 0.0]), axis=1) >= 0.15) & \
               (np.linalg.norm(node_coords(grid) - np.array([0.7, 0.0]), axis=1) < 0.3)
        green = ~ring
        result = roa.largest_level_set(with_flags(grid, vbar, green), grid)
        island_rows = set(np.nonzero(island)[0].tolist())
        assert not (island_rows & set(result.member_rows.tolist()))

    def test_3d_pocket_excluded_like_bfs(self):
        grid = verify.build_grid(1.0, 21, 3)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        dist = np.linalg.norm(node_coords(grid) - np.array([0.6, 0.0, 0.0]), axis=1)
        pocket = dist < 0.15
        vbar[pocket] = 0.001
        green = ~((dist >= 0.15) & (dist < 0.3))     # a red shell seals the pocket
        result = roa.largest_level_set(with_flags(grid, vbar, green), grid)
        assert result.c > 0.001
        expected, _ = bfs_component(grid, vbar, result.c)
        np.testing.assert_array_equal(result.member_rows, expected)
        assert not set(np.nonzero(pocket)[0].tolist()) & set(result.member_rows.tolist())

    def test_2d_serpentine_matches_bfs(self):
        grid = verify.build_grid(1.0, 41, 2)
        lattice = [tuple(p) for p in lattice_points(grid).tolist()]
        # a snake through the origin: rows y = -12, -8, ..., 12 joined at
        # alternating ends, plus a sealed-off segment at y = 16
        path = set()
        for k, y in enumerate(range(-12, 13, 4)):
            path |= {(x, y) for x in range(-12, 13)}
            if y < 12:
                x_end = 12 if k % 2 == 0 else -12
                path |= {(x_end, y + dy) for dy in range(1, 4)}
        stray = {(x, 16) for x in range(-8, 9)}
        vbar = np.full(grid.n_nodes, 10.0)
        low = [i for i, p in enumerate(lattice) if p in path | stray]
        vbar[low] = 0.01
        vbar[grid.origin_row] = 0.0
        result = roa.largest_level_set(all_green_map(grid, vbar), grid)
        expected, depth = bfs_component(grid, vbar, result.c)
        np.testing.assert_array_equal(result.member_rows, expected)
        assert result.n_cells == len(path) and depth > 90   # face steps from the origin

    @pytest.mark.parametrize("dim, nodes", [(2, 41), (3, 21)])
    def test_tilted_bowl_and_a_stray_member_match_bfs(self, dim, nodes):
        """Sublevel sets of a tilted bowl, where each member but the origin has a member
        face neighbor nearer the origin, and the same sets with a stray member far out,
        which has none, give the breadth-first reference's rows."""
        grid = verify.build_grid(1.0, nodes, dim)
        x = node_coords(grid)
        vbar = np.sum(x**2, axis=1) + 1.5 * x[:, 0] * x[:, -1]
        stray = row_of(grid, [nodes // 2 - 1] + [0] * (dim - 1))
        for c in (0.05, 0.2):
            assert vbar[stray] > c
            for values in (vbar, np.where(np.arange(grid.n_nodes) == stray, 0.0, vbar)):
                got = roa._origin_component(np.nonzero(values <= c)[0], grid)
                np.testing.assert_array_equal(got, bfs_component(grid, values, c)[0])
                assert stray not in got


class TestRoaArea:
    def test_cell_multiplication(self):
        grid = verify.build_grid(1.0, 101, 2)   # spacing 0.02
        assert roa.roa_area(np.arange(100), grid) == pytest.approx(100 * 0.02 * 0.02)

    def test_projection_counts_shadow_once(self):
        grid = verify.build_grid(1.0, 5, 3)
        # column of cells stacked along axis 2 over the same (i, j) cell
        rows = [row_of(grid, [0, 0, k]) for k in (-1, 0, 1)]
        assert roa.roa_area(np.array(rows), grid) == pytest.approx(grid.spacing**2)


class TestMonteCarloConvergence:
    def test_linear_system_fully_converges(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid)
        cand = QuadraticLyapunov(np.eye(2))
        check, = roa.monte_carlo_convergence(LinearSystem(2), [(result, cand)], grid, 200,
                                             h=0.01, seed=0)
        assert check.fraction == 1.0 and not check.vacuous
        assert (check.entered, check.diverged, check.capped) == (200, 0, 0)

    def test_empty_roa_vacuous(self):
        grid = verify.build_grid(1.0, 5, 2)
        empty = roa.RoaResult(c=0.0, member_rows=np.empty(0, dtype=int), area=0.0,
                              binding=None)
        cand = QuadraticLyapunov(np.eye(2))
        check, = roa.monte_carlo_convergence(LinearSystem(2), [(empty, cand)], grid, 100,
                                             0.01, seed=0)
        assert check.vacuous and check.fraction == 1.0

    def test_deterministic_given_seed(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid)
        cand = QuadraticLyapunov(np.eye(2))
        a = roa.monte_carlo_convergence(LinearSystem(2), [(result, cand)], grid, 50, 0.05,
                                        seed=3)
        b = roa.monte_carlo_convergence(LinearSystem(2), [(result, cand)], grid, 50, 0.05,
                                        seed=3)
        assert a == b

    def test_rejection_keeps_samples_in_level_set(self):
        grid = verify.build_grid(1.0, 21, 2)
        cand = QuadraticLyapunov(np.eye(2))
        vbar = cand.value(node_coords(grid))
        result = roa.largest_level_set(all_green_map(grid, vbar), grid)
        # monkeypatch-free check: draw like the sampler and confirm the filter
        rng = np.random.default_rng(5)
        centers = grid.coords(result.member_rows)
        idx = rng.integers(centers.shape[0], size=500)
        pts = centers[idx] + rng.uniform(-0.5, 0.5, size=(500, 2)) * grid.spacing
        keep = cand.value(pts) <= result.c
        assert keep.sum() > 0


class TestStartStates:
    @pytest.mark.parametrize("c, dim", [(1e300, 2), (0.3, 2), (0.05, 3), (-1.0, 2)],
                             ids=["all-in", "rejecting", "rejecting-3d", "fallback"])
    def test_same_states_as_the_listed_draw(self, c, dim):
        """Every draw, with rejections at the ball and at the level and with the
        fall-back to node centers, returns the listed draw's states bit for bit."""
        grid = verify.build_grid(1.0, 9, dim)
        result = roa.RoaResult(c=c, member_rows=np.nonzero(~grid.boundary)[0], area=1.0,
                               binding=None)
        cand = QuadraticLyapunov(np.diag(np.arange(1.0, dim + 1.0)))
        states = roa._start_states(result, cand, grid, 300, 4)
        assert states.shape == (300, dim)
        np.testing.assert_array_equal(states, listed_start_states(result, cand, grid, 300, 4))

    def test_peak_memory_per_sample(self):
        """From 20,000 to 60,000 start states of one (4,) network's certificate, the
        draw grows the peak resident set by under 120 B per added sample: 55 B measured,
        against 219 B when the accepted rows were gathered as a list of per-row arrays.
        (On a (16, 16) network the value sweep over the whole draw sets the peak:
        282 B, 300 B with the list.)"""
        growth = (peak_kb(START_PEAK, 60_000) - peak_kb(START_PEAK, 20_000)) * 1024
        assert growth < 120 * 40_000, f"{growth / 40_000:.0f} B per added sample"


class TestStackedGate:
    def test_peak_memory_per_sample(self):
        """From 20,000 to 60,000 rollouts per certificate, a gate of four certificates,
        as `compare` runs it, grows the peak resident set by less than the memory
        budget's gate estimate (`config.peak_bytes`, 1,472 B per sample at (16, 16) in
        2-d): 854 B measured."""
        growth = (peak_kb(GATE_PEAK, 60_000) - peak_kb(GATE_PEAK, 20_000)) * 1024
        cfg = PRESETS["ip_stochastic_l"]
        gates = [replace(cfg, roa=replace(cfg.roa, mc_samples=n)) for n in (20_000, 60_000)]
        assert growth < estimated_growth("Monte-Carlo gate", *gates), \
            f"{growth / 40_000:.0f} B per added sample"

    @pytest.mark.parametrize("system, scale, some_diverge", [
        (CubicSystem(2), 1.5, True),              # rows outside the unit box diverge
        (short_pendulum(0.254), 1.0, True),       # RK4-unstable step: every moving row diverges
        (nominal_system("microgrid"), 3.0, False),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_stacked_sweep_matches_per_part_sweeps(self, system, scale, some_diverge):
        rng = np.random.default_rng(0)
        parts = [rng.uniform(-scale, scale, (n, system.dim)) for n in (40, 2, 25)]
        parts[1][0] = 0.0                         # an equilibrium row never diverges
        finals, diverged, retired = dynamics.simulate_batch(system, np.concatenate(parts),
                                                            0.01, 2.0)
        singles = [dynamics.simulate_batch(system, part, 0.01, 2.0) for part in parts]
        np.testing.assert_array_equal(finals, np.concatenate([f for f, _, _ in singles]))
        np.testing.assert_array_equal(diverged, np.concatenate([d for _, d, _ in singles]))
        assert diverged.any() == some_diverge and not diverged.all() and not retired.any()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_stacked_gate_matches_per_certificate_gates(self):
        grid = verify.build_grid(1.5, 21, 2)
        cand = QuadraticLyapunov(np.eye(2))
        vbar = cand.value(node_coords(grid))
        wide = roa.largest_level_set(all_green_map(grid, vbar), grid)
        narrow = roa.largest_level_set(
            with_flags(grid, vbar, np.linalg.norm(node_coords(grid), axis=1) < 0.8), grid)
        empty = roa.RoaResult(c=0.0, member_rows=np.empty(0, dtype=int), area=0.0,
                              binding=None)
        flat = QuadraticLyapunov(np.diag([1.0, 0.5]))
        certificates = [(wide, cand), (empty, cand), (narrow, cand), (narrow, flat)]
        stacked = roa.monte_carlo_convergence(CubicSystem(2), certificates, grid, 100,
                                              0.01, seed=7)
        singles = [roa.monte_carlo_convergence(CubicSystem(2), [pair], grid, 100,
                                               0.01, seed=7)[0]
                   for pair in certificates]
        assert stacked == singles
        assert 0.0 < stacked[0].fraction < 1.0             # the wide set has diverging rows
        assert stacked[0].entered + stacked[0].diverged == 100 and stacked[0].capped == 0
        assert stacked[1].vacuous and stacked[1].fraction == 1.0
        assert stacked[2].fraction == 1.0


class TestGateStep:
    @pytest.mark.parametrize("length", [0.254, 0.275])
    def test_short_pendulum_gate_substeps(self, length, monkeypatch):
        # h * rho(A) is 3.31 at l = 0.254 and 2.82 at l = 0.275, beyond RK4's
        # real-axis limit 2.785: the fixed step's RK4 matrix has spectral radius
        # at least 1, so it has no basin and the gate fails every rollout unintegrated
        system = RowCounting(short_pendulum(length))
        cfg = PRESETS["ip_stochastic_l"]
        grid = verify.build_grid(1.0, 21, 2)
        cand = QuadraticLyapunov(np.eye(2))
        certificates = [(roa.largest_level_set(all_green_map(grid, cand.value(node_coords(grid))),
                                               grid), cand)]
        check, = roa.monte_carlo_convergence(system, certificates, grid, 200,
                                             cfg.roa.mc_step, seed=0)
        assert check.step == 0.005 and check.fraction == 1.0
        monkeypatch.setattr(roa, "gate_step", lambda system, h: h)
        system.rows = 0
        fixed, = roa.monte_carlo_convergence(system, certificates, grid, 200,
                                             cfg.roa.mc_step, seed=0)
        assert fixed.step == 0.01 and fixed.fraction == 0.0 and system.rows == 0
        assert roa.basin(system, 0.01) is None

    def test_presets_keep_the_configured_step(self):
        for cfg in PRESETS.values():
            system = dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
            assert roa.gate_step(system, cfg.roa.mc_step) == cfg.roa.mc_step
        assert roa.gate_step(short_pendulum(0.3), 0.01) == 0.01


class TwoWells:
    """x_dot = -x (x - 1)(x - 2) per axis: stable at 0 and at 2, unstable at 1."""

    dim = 2

    def f_batch(self, X):
        return -X * (X - 1.0) * (X - 2.0)

    def linearization(self):
        return -2.0 * np.eye(2)

    def remainder_bound(self):
        return 4.0, 2          # |3 x^2 - x^3| <= 4 x^2 per axis where |x| <= 1


def shell_certificate(grid, inner, outer):
    """A certificate whose member cells are the grid nodes with inner <= |x|_2 <= outer,
    at an unlimited level of a unit quadratic."""
    norms = np.linalg.norm(node_coords(grid), axis=1)
    rows = np.nonzero((norms >= inner) & (norms <= outer))[0]
    return (roa.RoaResult(c=1e300, member_rows=rows, area=1.0, binding=None),
            QuadraticLyapunov(np.eye(grid.dim)))


class TestConvergenceRule:
    """A rollout passes the gate when it enters the basin, however long that takes."""

    def test_fan_shell_converges(self):
        """Every start in the 0.4-0.64 shell of cf_m's test system enters the basin, after
        about 4,400 steps of 0.01 on average; at a fixed 20 s horizon and a 0.01
        tolerance about a fifth of them passed."""
        system, step, mc = gate_case("cf_m")
        counting = RowCounting(system)
        grid = verify.build_grid(1.0, 9, 6)
        check, = roa.monte_carlo_convergence(counting, [shell_certificate(grid, 0.4, 0.64)],
                                             grid, 180, mc.mc_step, seed=0)
        assert check.fraction == 1.0 and step == mc.mc_step
        assert 1_000 < counting.rows / 4 / 180 < 20_000   # steps per row

    def test_row_outside_the_basin_fails_at_the_cap(self, monkeypatch):
        """Rows drawn around the second stable equilibrium x = (2, 2) never enter the
        basin at the origin: they fail at the step cap, neither diverged nor passed."""
        monkeypatch.setattr(roa, "MAX_RK4_STEPS", 1_000)
        grid = verify.build_grid(2.5, 21, 2)
        result, cand = shell_certificate(grid, 0.0, 2.5)
        check, = roa.monte_carlo_convergence(TwoWells(), [(result, cand)], grid, 300, 0.01,
                                             seed=0)
        starts = roa._start_states(result, cand, grid, 300, 0)
        far = np.any(starts > 1.0 + grid.spacing, axis=1)   # beyond the unstable x_i = 1
        assert check.diverged == 0 and check.capped >= far.sum() > 0
        assert check.entered + check.capped == 300 and check.fraction < 1.0


def q_sphere_states(Q, level, n, seed):
    """n states with x^T Q x = level, in uniformly drawn directions of y = L^T x."""
    Y = np.random.default_rng(seed).normal(size=(n, len(Q)))
    Y *= np.sqrt(level) / np.linalg.norm(Y, axis=1, keepdims=True)
    return np.linalg.solve(np.linalg.cholesky(Q).T, Y.T).T     # x^T Q x = |y|^2


def q_norms(Q, X):
    return np.sqrt(np.sum((X @ Q) * X, axis=1))


class TestRetirementBall:
    """The gate retires a row in one basin per system and step, which one rounded RK4
    step maps into itself."""

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    def test_one_rounded_step_maps_the_ball_into_itself(self, preset, length):
        system, step, _ = gate_case(preset, length)
        Q, level = roa.basin(system, step)
        X = q_sphere_states(Q, level, 4000, seed=1)
        X[2000:] *= np.random.default_rng(1).random((2000, 1))   # half of them inside
        images = dynamics.rk4_step(system.f_batch, X, step)
        assert np.all(np.sum((images @ Q) * images, axis=1) <= level)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_basin_covers_horizon_level(self, preset):
        system_block = PRESETS[preset].system
        for values in (system_block.theta0, system_block.theta_test):
            self.check_basin(dynamics.build_system(system_block.system_id, values))

    @pytest.mark.parametrize("length", [0.25, 0.5, 0.75, 1.0, 1.25, 1.5])
    def test_pendulum_basin_covers_horizon_level(self, length):
        self.check_basin(short_pendulum(length))

    @staticmethod
    def check_basin(system):
        """The system has a basin at its gate step that covers the ball of the same Q the
        gate retired rows in with a full 20 s horizon still to go."""
        step = roa.gate_step(system, PRESETS["ip_stochastic_l"].roa.mc_step)
        Q, level = roa.basin(system, step)
        horizon_Q, horizon_level = reference_horizon_level(system, step)
        np.testing.assert_array_equal(Q, horizon_Q)
        assert level >= horizon_level

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    def test_basin_rows_contract_toward_the_origin(self, preset, length):
        # rows on the basin's boundary stay in it, each step no farther out in Q-norm
        system, step, _ = gate_case(preset, length)
        Q, level = roa.basin(system, step)
        X = q_sphere_states(Q, level, 200, seed=2)
        norms = q_norms(Q, X)
        for _ in range(300):
            X = dynamics.rk4_step(system.f_batch, X, step)
            assert np.all(q_norms(Q, X) <= norms)
            norms = q_norms(Q, X)
        assert np.all(norms < np.sqrt(level))

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_gate_fractions_match_full_rollouts(self, preset, length, monkeypatch):
        # a row passes exactly when its full rollout ends in the basin at the step cap
        system, step, mc = gate_case(preset, length)
        monkeypatch.setattr(roa, "MAX_RK4_STEPS", 5_000)
        grid = verify.build_grid(PRESETS[preset].verify.d0, 5, system.dim)
        cand = QuadraticLyapunov(np.eye(system.dim))
        result = roa.largest_level_set(all_green_map(grid, cand.value(node_coords(grid))), grid)
        check, = roa.monte_carlo_convergence(system, [(result, cand)], grid, 100, mc.mc_step,
                                             seed=0)
        Q, level = roa.basin(system, step)
        finals, diverged = reference_simulate_batch(
            system, roa._start_states(result, cand, grid, 100, 0), step, 5_000 * step)
        with np.errstate(over="ignore", invalid="ignore"):
            inside = ~diverged & (np.sum((finals @ Q) * finals, axis=1) <= level)
        assert check.entered == inside.sum() and check.diverged == diverged.sum()
        assert 0.0 < check.fraction


class TestExports:
    def test_json_and_boundary(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid)
        payload = roa.export_roa_json(result, grid)
        assert payload["c"] == result.c and payload["grid"]["tau"] == grid.tau
        lines = roa.export_boundary_csv(result, grid).strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) > 4

    def test_boundary_bytes_match_csv_writer(self, tmp_path):
        # the string builder against the csv-module writer it replaced
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid)
        text = roa.export_boundary_csv(result, grid)
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(["u", "v"])
        for line in text.splitlines()[1:]:
            writer.writerow(line.split(","))
        assert text == ref.getvalue() and text.endswith("\r\n")
