import csv
import io
from collections import deque

import numpy as np
import pytest

from lyapcert import dynamics, roa, verify
from lyapcert.baselines import QuadraticLyapunov
from lyapcert.config import PRESETS

from helpers import (GATE_CASES, gate_case, gate_levels, lattice_points, node_coords,
                     nominal_system, reference_retirement_ball, row_of)


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
    return dynamics.build_system(dynamics.ParamVector("pendulum", (length, 0.15, 9.81, 0.1)))


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
        result = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        # cap is the smallest boundary-layer value, about (d - h)^2
        expected_c = (2.0 - grid.spacing) ** 2
        assert result.c == pytest.approx(expected_c, abs=2 * grid.spacing * 2.0 + 1e-9)
        assert result.area == pytest.approx(np.pi * result.c, rel=0.1)

    def test_all_red_empty(self):
        grid = verify.build_grid(1.0, 5, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(with_flags(grid, vbar, np.zeros(grid.n_nodes)), grid,
                                       (0, 1))
        assert result.empty and result.c == 0.0 and result.area == 0.0
        assert grid.origin_row in result.member_rows

    def test_single_red_caps_strictly(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        green = np.ones(grid.n_nodes, dtype=bool)
        bad = row_of(grid, [3, 0])
        green[bad] = False
        v_star = vbar[bad]
        result = roa.largest_level_set(with_flags(grid, vbar, green), grid, (0, 1))
        assert 0.0 < result.c < v_star

    def test_members_are_green_and_nested(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        vmap = all_green_map(grid, vbar)
        result = roa.largest_level_set(vmap, grid, (0, 1))
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
        result = roa.largest_level_set(vmap, grid, (0, 1))
        assert 0.0 < result.c < floor

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
        result = roa.largest_level_set(vmap, grid, (0, 1))
        assert 0.0 < result.c < vbar[bad] - 1.0 * grid.tau

    def test_monotone_in_green_set(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        green = np.ones(grid.n_nodes, dtype=bool)
        green[row_of(grid, [2, 0])] = False
        c_small = roa.largest_level_set(with_flags(grid, vbar, green), grid, (0, 1)).c
        green[row_of(grid, [2, 0])] = True
        c_big = roa.largest_level_set(with_flags(grid, vbar, green), grid, (0, 1)).c
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
        result = roa.largest_level_set(with_flags(grid, vbar, green), grid, (0, 1))
        island_rows = set(np.nonzero(island)[0].tolist())
        assert not (island_rows & set(result.member_rows.tolist()))

    def test_3d_pocket_excluded_like_bfs(self):
        grid = verify.build_grid(1.0, 21, 3)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        dist = np.linalg.norm(node_coords(grid) - np.array([0.6, 0.0, 0.0]), axis=1)
        pocket = dist < 0.15
        vbar[pocket] = 0.001
        green = ~((dist >= 0.15) & (dist < 0.3))     # a red shell seals the pocket
        result = roa.largest_level_set(with_flags(grid, vbar, green), grid, (0, 1))
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
        result = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        expected, depth = bfs_component(grid, vbar, result.c)
        np.testing.assert_array_equal(result.member_rows, expected)
        assert result.n_cells == len(path) and depth > 90   # face steps from the origin


class TestRoaArea:
    def test_cell_multiplication(self):
        grid = verify.build_grid(1.0, 101, 2)   # spacing 0.02
        rows = np.arange(100)
        result = roa.RoaResult(c=1.0, member_rows=rows, area=0.0, plane=(0, 1))
        assert roa.roa_area(result, grid) == pytest.approx(100 * 0.02 * 0.02)

    def test_projection_counts_shadow_once(self):
        grid = verify.build_grid(1.0, 5, 3)
        # column of cells stacked along axis 2 over the same (i, j) cell
        rows = [row_of(grid, [0, 0, k]) for k in (-1, 0, 1)]
        result = roa.RoaResult(c=1.0, member_rows=np.array(rows), area=0.0, plane=(0, 1))
        assert roa.roa_area(result, grid) == pytest.approx(grid.spacing**2)


class TestMonteCarloConvergence:
    def test_linear_system_fully_converges(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        cand = QuadraticLyapunov(np.eye(2))
        check, = roa.monte_carlo_convergence(LinearSystem(2), [(result, cand)], grid, 200,
                                             h=0.01, horizon=20.0, tol=1e-2, seed=0)
        assert check.fraction == 1.0 and not check.vacuous

    def test_empty_roa_vacuous(self):
        grid = verify.build_grid(1.0, 5, 2)
        empty = roa.RoaResult(c=0.0, member_rows=np.array([grid.origin_row]),
                              area=0.0, plane=(0, 1))
        cand = QuadraticLyapunov(np.eye(2))
        check, = roa.monte_carlo_convergence(LinearSystem(2), [(empty, cand)], grid, 100,
                                             0.01, 1.0, 1e-2, seed=0)
        assert check.vacuous and check.fraction == 1.0

    def test_deterministic_given_seed(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        cand = QuadraticLyapunov(np.eye(2))
        a = roa.monte_carlo_convergence(LinearSystem(2), [(result, cand)], grid, 50, 0.05, 2.0,
                                        1e-1, seed=3)
        b = roa.monte_carlo_convergence(LinearSystem(2), [(result, cand)], grid, 50, 0.05, 2.0,
                                        1e-1, seed=3)
        assert a == b

    def test_rejection_keeps_samples_in_level_set(self):
        grid = verify.build_grid(1.0, 21, 2)
        cand = QuadraticLyapunov(np.eye(2))
        vbar = cand.value(node_coords(grid))
        result = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        # monkeypatch-free check: draw like the sampler and confirm the filter
        rng = np.random.default_rng(5)
        centers = grid.coords(result.member_rows)
        idx = rng.integers(centers.shape[0], size=500)
        pts = centers[idx] + rng.uniform(-0.5, 0.5, size=(500, 2)) * grid.spacing
        keep = cand.value(pts) <= result.c
        assert keep.sum() > 0


class TestStackedGate:
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
        wide = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        narrow = roa.largest_level_set(
            with_flags(grid, vbar, np.linalg.norm(node_coords(grid), axis=1) < 0.8), grid, (0, 1))
        empty = roa.RoaResult(c=0.0, member_rows=np.array([grid.origin_row]),
                              area=0.0, plane=(0, 1))
        flat = QuadraticLyapunov(np.diag([1.0, 0.5]))
        certificates = [(wide, cand), (empty, cand), (narrow, cand), (narrow, flat)]
        stacked = roa.monte_carlo_convergence(CubicSystem(2), certificates, grid, 100,
                                              0.01, 3.0, 1e-1, seed=7)
        singles = [roa.monte_carlo_convergence(CubicSystem(2), [pair], grid, 100,
                                               0.01, 3.0, 1e-1, seed=7)[0]
                   for pair in certificates]
        assert stacked == singles
        assert 0.0 < stacked[0].fraction < 1.0             # the wide set has diverging rows
        assert stacked[1].vacuous and stacked[1].fraction == 1.0
        assert stacked[2].fraction == 1.0


class TestGateStep:
    @pytest.mark.parametrize("length", [0.254, 0.275])
    def test_short_pendulum_gate_substeps(self, length, monkeypatch):
        # h * rho(A) is 3.31 at l = 0.254 and 2.82 at l = 0.275, beyond RK4's
        # real-axis limit 2.785: at the fixed step every rollout diverges
        system = short_pendulum(length)
        cfg = PRESETS["ip_stochastic_l"]
        grid = verify.build_grid(1.0, 21, 2)
        cand = QuadraticLyapunov(np.eye(2))
        certificates = [(roa.largest_level_set(all_green_map(grid, cand.value(node_coords(grid))),
                                               grid, (0, 1)), cand)]
        check, = roa.monte_carlo_convergence(system, certificates, grid, 200,
                                             cfg.roa.mc_step, cfg.roa.mc_horizon,
                                             cfg.roa.mc_tol, seed=0)
        assert check.step == 0.005 and check.fraction == 1.0
        monkeypatch.setattr(roa, "gate_step", lambda system, h: h)
        fixed, = roa.monte_carlo_convergence(system, certificates, grid, 200,
                                             cfg.roa.mc_step, cfg.roa.mc_horizon,
                                             cfg.roa.mc_tol, seed=0)
        assert fixed.step == 0.01 and fixed.fraction == 0.0

    def test_presets_keep_the_configured_step(self):
        for cfg in PRESETS.values():
            system = dynamics.build_system(cfg.system.test())
            assert roa.gate_step(system, cfg.roa.mc_step) == cfg.roa.mc_step
        assert roa.gate_step(short_pendulum(0.3), 0.01) == 0.01


def q_sphere_states(Q, level, n, seed):
    """n states with x^T Q x = level, in uniformly drawn directions of y = L^T x."""
    Y = np.random.default_rng(seed).normal(size=(n, len(Q)))
    Y *= np.sqrt(level) / np.linalg.norm(Y, axis=1, keepdims=True)
    return np.linalg.solve(np.linalg.cholesky(Q).T, Y.T).T     # x^T Q x = |y|^2


class TestRetirementBall:
    """The retirement region is one Q-ball per count of steps still to go."""

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    def test_one_rounded_step_maps_the_ball_into_itself(self, preset, length):
        # the ball with k steps to go lands in the one with k - 1 to go, inside itself
        system, step, mc = gate_case(preset, length)
        Q, levels = gate_levels(system, step, mc)
        assert np.sqrt(levels[0] / np.linalg.eigvalsh(Q)[0]) < mc.mc_tol
        for k in (1, 2, 50, len(levels) - 1):
            X = q_sphere_states(Q, levels[k], 4000, seed=k)
            X[2000:] *= np.random.default_rng(k).random((2000, 1))   # half of them inside
            images = dynamics.rk4_step(system.f_batch, X, step)
            assert np.all(np.sum((images @ Q) * images, axis=1) <= levels[k - 1])

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    def test_levels_grow_with_the_steps_to_go_from_the_ball(self, preset, length):
        system, step, mc = gate_case(preset, length)
        Q, levels = gate_levels(system, step, mc)
        ball_Q, ball = reference_retirement_ball(system, step, mc.mc_tol)
        np.testing.assert_array_equal(Q, ball_Q)
        assert len(levels) == round(mc.mc_horizon / step) + 1
        assert np.all(np.diff(levels) >= 0.0) and levels[0] >= ball
        if length is not None:   # the stiff step's contraction region is smaller than its ball
            assert np.all(levels == ball)

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    def test_level_boundaries_end_below_tol_after_their_steps(self, preset, length):
        system, step, mc = gate_case(preset, length)
        Q, levels = gate_levels(system, step, mc)
        for k in (0, 1, 10, 100, len(levels) - 1):
            X = q_sphere_states(Q, levels[k], 200, seed=k)
            for _ in range(k):
                X = dynamics.rk4_step(system.f_batch, X, step)
            assert np.all(np.linalg.norm(X, axis=1) < mc.mc_tol)

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_gate_fractions_match_full_rollouts(self, preset, length, monkeypatch):
        system, _, mc = gate_case(preset, length)
        grid = verify.build_grid(PRESETS[preset].verify.d0, 5, system.dim)
        cand = QuadraticLyapunov(np.eye(system.dim))
        certificates = [(roa.largest_level_set(all_green_map(grid, cand.value(node_coords(grid))),
                                               grid, (0, 1)), cand)]
        retiring = roa.monte_carlo_convergence(system, certificates, grid, 100, mc.mc_step,
                                               mc.mc_horizon, mc.mc_tol, seed=0)
        monkeypatch.setattr(roa, "retirement_region", lambda system, h, tol, n_steps: None)
        full = roa.monte_carlo_convergence(system, certificates, grid, 100, mc.mc_step,
                                           mc.mc_horizon, mc.mc_tol, seed=0)
        assert retiring == full and 0.0 < full[0].fraction


class TestExports:
    def test_json_and_boundary(self):
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        payload = roa.export_roa_json(result, grid)
        assert payload["c"] == result.c and payload["grid"]["tau"] == grid.tau
        lines = roa.export_boundary_csv(result, grid).strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) > 4

    def test_boundary_bytes_match_csv_writer(self, tmp_path):
        # the string builder against the csv-module writer it replaced
        grid = verify.build_grid(1.0, 21, 2)
        vbar = np.sum(node_coords(grid)**2, axis=1)
        result = roa.largest_level_set(all_green_map(grid, vbar), grid, (0, 1))
        text = roa.export_boundary_csv(result, grid)
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(["u", "v"])
        for line in text.splitlines()[1:]:
            writer.writerow(line.split(","))
        assert text == ref.getvalue() and text.endswith("\r\n")
