import csv

import numpy as np
import pytest

from lyapcert import dynamics, net, verify
from lyapcert.baselines import QuadraticLyapunov
from lyapcert.dynamics import sample_ball

from helpers import (ROOT, nominal_system, peak_kb, reference_build_grid,
                     reference_check_validity, reference_gradient, row_of)


CERTIFY_PEAK = """
import sys
from lyapcert import dynamics, net, roa, verify
from lyapcert.config import PRESETS

cfg = PRESETS["ip_stochastic_l"]
theta, arch, extra = net.load_checkpoint(sys.argv[2])
candidate = net.MlpLyapunov(theta, arch)
system = dynamics.build_system(cfg.system.test())
grid = verify.build_grid(extra["radius"], int(sys.argv[1]), 2)
vmap = verify.check_validity(candidate, system, grid, exempt_radius=cfg.verify.exempt_radius)
result = roa.largest_level_set(vmap, grid, (0, 1))
assert not result.empty
"""


def sample_annulus(rng, n, dim, outer, inner=0.0):
    """n points uniform over the ball of radius `outer`, outside radius `inner`."""
    out = np.empty((0, dim))
    while out.shape[0] < n:
        batch = sample_ball(rng, n, dim, outer)
        out = np.concatenate([out, batch[np.linalg.norm(batch, axis=1) > inner]])
    return out[:n]


class LinearSystem:
    """x_dot = -x in any dimension (duck-typed system)."""

    def __init__(self, dim):
        self.dim = dim

    def f(self, x):
        return -np.asarray(x, dtype=float).reshape(-1)

    def f_batch(self, X):
        return -np.asarray(X, dtype=float)


class FromParts:
    """A test candidate's value_and_gradient, from its own value and gradient."""

    def value_and_gradient(self, X):
        return self.value(X), self.gradient(X)


class LinearCandidate(FromParts):
    """V(x) = w^T x (not a Lyapunov function; exercises the estimators)."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def value(self, X):
        return np.atleast_2d(X) @ self.w

    def gradient(self, X):
        X = np.atleast_2d(X)
        return np.tile(self.w, (X.shape[0], 1))


class ConstantCandidate(FromParts):
    def value(self, X):
        return np.full(np.atleast_2d(X).shape[0], 3.0)

    def gradient(self, X):
        return np.zeros_like(np.atleast_2d(X))


class TestBuildGrid:
    def test_1d_three_nodes(self):
        grid = verify.build_grid(1.0, 3, 1)
        assert sorted(grid.coords.ravel().tolist()) == [-1.0, 0.0, 1.0]
        assert grid.tau == 0.5

    def test_2d_tau(self):
        grid = verify.build_grid(1.0, 101, 2)
        assert grid.tau == pytest.approx(0.02)

    def test_origin_always_present(self):
        for dim, nodes in ((1, 5), (2, 7), (3, 5)):
            grid = verify.build_grid(2.0, nodes, dim)
            np.testing.assert_array_equal(grid.coords[grid.origin_row], np.zeros(dim))

    def test_nodes_within_collar(self):
        grid = verify.build_grid(1.5, 21, 3)
        collar = 1.5 + np.sqrt(3) * grid.spacing / 2
        norms = np.linalg.norm(grid.coords, axis=1)
        assert np.all(norms <= collar + 1e-9)
        # nodes beyond the ball proper are all boundary-layer
        assert np.all(grid.boundary[norms > 1.5 + 1e-12])

    def test_neighbor_pairs_are_face_adjacent(self):
        grid = verify.build_grid(1.0, 11, 2)
        diff = np.abs(grid.lattice[grid.neighbor_pairs[:, 0]]
                      - grid.lattice[grid.neighbor_pairs[:, 1]])
        assert np.all(diff.sum(axis=1) == 1)

    @pytest.mark.parametrize("dim,nodes", [(1, 11), (2, 41), (3, 15)])
    def test_covering_property(self, dim, nodes):
        grid = verify.build_grid(1.0, nodes, dim)
        rng = np.random.default_rng(0)
        pts = sample_annulus(rng, 20000, dim, outer=1.0)
        # nearest-node l1 distance never exceeds tau
        for chunk in np.array_split(pts, 20):
            d = np.abs(chunk[:, None, :] - grid.coords[None, :, :]).sum(axis=2).min(axis=1)
            assert np.max(d) <= grid.tau + 1e-12

    def test_row_of(self):
        grid = verify.build_grid(1.0, 5, 2)
        assert row_of(grid, [0, 0]) == grid.origin_row
        assert row_of(grid, [99, 0]) is None

    @pytest.mark.parametrize("dim, sizes", [
        (1, (3, 5, 101, 200_001)), (2, (3, 5, 201, 401)), (3, (3, 5, 41, 61)),
        (4, (3, 9, 21)), (5, (3, 7, 15)), (6, (3, 5, 9)),
    ])
    def test_equals_the_whole_box_construction(self, dim, sizes):
        # the largest sizes span several SLABs of box nodes
        for nodes in sizes:
            for radius in (1.0, 3.2):
                grid = verify.build_grid(radius, nodes, dim)
                ref = reference_build_grid(radius, nodes, dim)
                for field in ("radius", "nodes_per_axis", "dim", "spacing", "tau", "origin_row"):
                    assert type(getattr(grid, field)) is type(getattr(ref, field))
                    assert getattr(grid, field) == getattr(ref, field), field
                for field in ("coords", "lattice", "boundary", "neighbor_pairs"):
                    got, want = getattr(grid, field), getattr(ref, field)
                    assert got.dtype == want.dtype and got.shape == want.shape, field
                    assert got.tobytes() == want.tobytes(), field
        assert nodes**dim > verify.SLAB


def star_constants(cand, system, grid):
    grads = cand.gradient(grid.coords)
    lie = np.sum(grads * system.f_batch(grid.coords), axis=1)
    return verify.estimate_lipschitz(np.max(np.abs(grads), axis=1), lie, grid)


def force_constants(monkeypatch, k_v, k_lie):
    """Make check_validity use the given constants at every node."""
    monkeypatch.setattr(verify, "estimate_lipschitz", lambda grad_inf, lie, grid: (
        np.full(grid.n_nodes, float(k_v)), np.full(grid.n_nodes, float(k_lie))))


class CountingCandidate(QuadraticLyapunov):
    def __init__(self, P):
        super().__init__(P)
        self.gradient_rows = []

    def gradient(self, X):
        self.gradient_rows.append(len(X))
        return super().gradient(X)


class TestEstimateLipschitz:
    def test_linear_candidate_exact(self):
        grid = verify.build_grid(1.0, 11, 2)
        cand = LinearCandidate([2.0, -0.5])
        k_v, _ = star_constants(cand, LinearSystem(2), grid)
        np.testing.assert_allclose(k_v, np.full(grid.n_nodes, 1.2 * 2.0))

    def test_constant_candidate_zero(self):
        grid = verify.build_grid(1.0, 11, 2)
        k_v, k_lie = star_constants(ConstantCandidate(), LinearSystem(2), grid)
        assert np.all(k_v == 0.0)
        assert np.all(k_lie == 0.0)

    def test_local_mode_fills_node_arrays(self):
        grid = verify.build_grid(1.0, 11, 2)
        cand = QuadraticLyapunov(np.eye(2))
        k_v, k_lie = star_constants(cand, LinearSystem(2), grid)
        assert k_v.shape == k_lie.shape == (grid.n_nodes,)
        assert np.all(k_v >= 0) and np.all(k_lie >= 0)
        # the largest star maximum is the grid-wide maximum, bit for bit
        assert np.max(k_v) == 1.2 * float(np.max(np.abs(cand.gradient(grid.coords))))

    def test_check_validity_evaluates_each_node_once(self):
        # check_validity estimates the constants from its own gradient and f
        # arrays: one gradient evaluation per node, in BLOCK-node blocks, and
        # the cell bounds of those constants
        grid = verify.build_grid(1.0, 201, 2)
        cand = CountingCandidate(np.array([[2.0, 0.3], [0.3, 0.5]]))
        vmap = verify.check_validity(cand, LinearSystem(2), grid, exempt_radius=0.3)
        full, last = divmod(grid.n_nodes, verify.BLOCK)
        assert full >= 2 and cand.gradient_rows == [verify.BLOCK] * full + [last]
        k_v, k_lie = star_constants(cand, LinearSystem(2), grid)
        np.testing.assert_array_equal(vmap.vbar_low, vmap.vbar - k_v * grid.tau)
        np.testing.assert_array_equal(vmap.lie_high, vmap.lie + k_lie * grid.tau)

    def test_flags_agree_with_the_margin_comparisons(self):
        # a - b > 0 and a > b agree in IEEE arithmetic, so the cell-bound flags
        # equal the margin comparisons Vbar > K_V tau and Lie < -K_Vdot tau
        grid = verify.build_grid(1.0, 41, 2)
        cand = QuadraticLyapunov(np.array([[2.0, 0.3], [0.3, 0.5]]))
        vmap = verify.check_validity(cand, LinearSystem(2), grid)
        assert not (vmap.positivity_ok.all() or vmap.decrease_ok.all())   # both flags vary
        k_v, k_lie = star_constants(cand, LinearSystem(2), grid)
        np.testing.assert_array_equal(vmap.positivity_ok,
                                      (vmap.vbar > k_v * grid.tau) | vmap.exempt)
        np.testing.assert_array_equal(vmap.decrease_ok,
                                      (vmap.lie < -k_lie * grid.tau) | vmap.exempt)


class ValueCandidate(FromParts):
    """Candidate with prescribed values at exactly the grid nodes."""

    def __init__(self, grid, values, grads):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        self.grads = np.asarray(grads, dtype=float)

    def _rows(self, X):
        X = np.atleast_2d(X)
        d = np.abs(X[:, None, :] - self.grid.coords[None, :, :]).sum(axis=2)
        return np.argmin(d, axis=1)

    def value(self, X):
        return self.values[self._rows(X)]

    def gradient(self, X):
        return self.grads[self._rows(X)]


class TestCheckValidity:
    def test_threshold_comparison_1d(self, monkeypatch):
        grid = verify.build_grid(1.0, 3, 1)
        # order of nodes: -1, 0, 1; prescribe vbar via values with value(0)=0
        vals = np.zeros(3)
        vals[row_of(grid, [-1])] = 0.15
        vals[row_of(grid, [0])] = 0.0
        vals[row_of(grid, [1])] = 0.12
        cand = ValueCandidate(grid, vals, np.zeros((3, 1)))
        force_constants(monkeypatch, k_v=0.2, k_lie=0.0)  # k_v * tau = 0.1
        vmap = verify.check_validity(cand, LinearSystem(1), grid)
        assert bool(np.all(vmap.positivity_ok))
        vals[row_of(grid, [1])] = 0.08
        vmap2 = verify.check_validity(ValueCandidate(grid, vals, np.zeros((3, 1))),
                                      LinearSystem(1), grid)
        assert not vmap2.positivity_ok[row_of(grid, [1])]

    def test_quadratic_red_core_only_near_origin(self, monkeypatch):
        grid = verify.build_grid(1.0, 41, 2)
        cand = QuadraticLyapunov(np.eye(2))       # vbar = |x|^2, lie = -2 |x|^2
        force_constants(monkeypatch, k_v=0.0, k_lie=1.0)
        vmap = verify.check_validity(cand, LinearSystem(2), grid)
        # decrease needs 2 |x|^2 > tau: red core is a disk around the origin
        r = np.linalg.norm(grid.coords, axis=1)
        red = ~vmap.decrease_ok
        threshold = np.sqrt(grid.tau / 2.0)
        assert np.all(r[red] <= threshold + grid.spacing)
        assert np.all(vmap.decrease_ok[r > threshold + grid.spacing])

    def test_origin_exempt(self, monkeypatch):
        grid = verify.build_grid(1.0, 5, 2)
        cand = QuadraticLyapunov(np.eye(2))
        force_constants(monkeypatch, k_v=100.0, k_lie=100.0)
        vmap = verify.check_validity(cand, LinearSystem(2), grid)
        assert vmap.exempt[grid.origin_row]
        assert vmap.green[grid.origin_row]

    def test_exempt_radius(self, monkeypatch):
        grid = verify.build_grid(1.0, 21, 2)
        cand = QuadraticLyapunov(np.eye(2))
        force_constants(monkeypatch, k_v=100.0, k_lie=100.0)
        vmap = verify.check_validity(cand, LinearSystem(2), grid, exempt_radius=0.35)
        r = np.linalg.norm(grid.coords, axis=1)
        np.testing.assert_array_equal(vmap.exempt, r <= 0.35)

    def test_bias_subtraction_exact(self, monkeypatch):
        grid = verify.build_grid(1.0, 11, 2)

        class Shifted(QuadraticLyapunov):
            def value(self, X):
                return super().value(X) + 7.5

        force_constants(monkeypatch, 0.0, 0.0)
        vmap = verify.check_validity(Shifted(np.eye(2)), LinearSystem(2), grid)
        assert vmap.vbar[grid.origin_row] == 0.0

    def test_monotone_under_radius_restriction(self, monkeypatch):
        # same spacing, smaller ball: flags on shared nodes are unchanged
        cand = QuadraticLyapunov(np.array([[1.0, 0.2], [0.2, 0.5]]))
        force_constants(monkeypatch, k_v=0.5, k_lie=0.5)
        big = verify.build_grid(1.0, 21, 2)
        small = verify.build_grid(0.5, 11, 2)   # same spacing 0.1
        assert big.spacing == pytest.approx(small.spacing)
        vb = verify.check_validity(cand, LinearSystem(2), big)
        vs = verify.check_validity(cand, LinearSystem(2), small)
        for i in range(small.n_nodes):
            j = row_of(big, small.lattice[i])
            assert vs.green[i] == vb.green[j] or vs.exempt[i]


class TestCertifyPositiveDefinite:
    """Positivity certification: every checked node clears the positivity margin."""

    def make_map(self, grid, pos_ok):
        return verify.ValidityMap(
            vbar=np.ones(grid.n_nodes), lie=-np.ones(grid.n_nodes),
            vbar_low=np.where(pos_ok, 0.5, -0.5), lie_high=np.full(grid.n_nodes, -0.5),
            exempt=np.arange(grid.n_nodes) == grid.origin_row)

    def test_all_green_true(self):
        grid = verify.build_grid(1.0, 5, 2)
        vmap = self.make_map(grid, np.ones(grid.n_nodes, dtype=bool))
        assert vmap.positivity_ok.all() and vmap.fully_green

    def test_certified_implies_positive_samples(self):
        # quadratic candidate on a fine grid: certification implies vbar > 0
        # at random off-grid points of the checked annulus
        grid = verify.build_grid(1.0, 41, 2)
        cand = QuadraticLyapunov(np.eye(2))
        vmap = verify.check_validity(cand, LinearSystem(2), grid, exempt_radius=0.3)
        assert vmap.positivity_ok.all()
        rng = np.random.default_rng(1)
        pts = sample_annulus(rng, 10000, 2, outer=1.0, inner=0.3)
        assert np.all(cand.value(pts) - cand.value(np.zeros((1, 2)))[0] > 0.0)


class TestSelectValidRegion:
    def test_round_one_success(self, monkeypatch):
        grid = verify.build_grid(1.0, 5, 1)
        force_constants(monkeypatch, 0.0, 0.0)
        good = verify.check_validity(QuadraticLyapunov(np.eye(1)), LinearSystem(1), grid,
                                     exempt_radius=0.3)
        sel = verify.select_valid_region(lambda d: ("artifact", good.fully_green),
                                         d0=2.0, shrink_factor=0.8, max_rounds=3)
        assert sel.radius == 2.0 and sel.rounds == 1

    def test_geometric_schedule(self, monkeypatch):
        calls = []

        def fit(d):
            calls.append(d)
            ok = len(calls) >= 3
            grid = verify.build_grid(1.0, 5, 1)
            force_constants(monkeypatch, 0.0 if ok else 1e9, 0.0 if ok else 1e9)
            vmap = verify.check_validity(QuadraticLyapunov(np.eye(1)), LinearSystem(1), grid,
                                         exempt_radius=0.3 if ok else 0.0)
            return None, vmap.fully_green

        sel = verify.select_valid_region(fit, d0=2.0, shrink_factor=0.8, max_rounds=5)
        assert sel.rounds == 3
        assert sel.radius == pytest.approx(0.64 * 2.0)

    def test_failure_after_max_rounds(self, monkeypatch):
        grid = verify.build_grid(1.0, 5, 1)
        force_constants(monkeypatch, 1e9, 1e9)
        bad = verify.check_validity(QuadraticLyapunov(np.eye(1)), LinearSystem(1), grid)
        with pytest.raises(verify.RegionSelectionFailure) as failure:
            verify.select_valid_region(lambda d: ([bad], bad.fully_green),
                                       d0=1.0, shrink_factor=0.5, max_rounds=1)
        assert failure.value.artifact == [bad]


class TestOneSweep:
    """V and its gradient come from one sweep; the map is bit for bit the map of
    two separate sweeps."""

    @pytest.mark.parametrize("candidate, system, grid", [
        (net.MlpLyapunov(net.init_params(net.Architecture(2, (16, 16)), 3),
                         net.Architecture(2, (16, 16))),
         nominal_system("pendulum"), verify.build_grid(3.0, 41, 2)),
        (net.MlpLyapunov(net.init_params(net.Architecture(3, (8, 8, 8)), 4),
                         net.Architecture(3, (8, 8, 8))),
         nominal_system("microgrid"), verify.build_grid(2.0, 15, 3)),
        (QuadraticLyapunov(np.array([[2.0, 0.3], [0.3, 0.5]])), LinearSystem(2),
         verify.build_grid(1.0, 21, 2)),
    ])
    def test_map_equals_the_two_sweep_map(self, candidate, system, grid):
        vmap = verify.check_validity(candidate, system, grid, exempt_radius=0.3)
        ref = reference_check_validity(candidate, system, grid, exempt_radius=0.3)
        for field in ("vbar", "lie", "vbar_low", "lie_high", "exempt"):
            np.testing.assert_array_equal(getattr(vmap, field), getattr(ref, field))
        values, grads = candidate.value_and_gradient(grid.coords)
        assert values.tobytes() == candidate.value(grid.coords).tobytes()
        assert grads.tobytes() == reference_gradient(candidate, grid.coords).tobytes()
        assert grads.tobytes() == candidate.gradient(grid.coords).tobytes()


class TestBlockSweep:
    """check_validity sweeps BLOCK nodes at a time and keeps per node only the map's
    arrays and the gradient's l-infinity norm."""

    def test_map_agrees_with_the_one_pass_map(self):
        # the committed checkpoint on the ip_stochastic_l test system: 31,877 nodes,
        # eight blocks; the gradient's matrix products now have BLOCK rows, so the
        # floats may move in their last bits, and the flags stay
        theta, arch, extra = net.load_checkpoint(ROOT / "perfbench" / "data" / "meta_checkpoint.json")
        candidate = net.MlpLyapunov(theta, arch)
        system = dynamics.build_system(dynamics.ParamVector("pendulum", (1.2, 0.15, 9.81, 0.1)))
        grid = verify.build_grid(extra["radius"], 201, 2)
        assert grid.n_nodes > 4 * verify.BLOCK
        vmap = verify.check_validity(candidate, system, grid, exempt_radius=1.1)
        ref = reference_check_validity(candidate, system, grid, exempt_radius=1.1)
        for field in ("vbar", "lie", "vbar_low", "lie_high"):
            np.testing.assert_allclose(getattr(vmap, field), getattr(ref, field),
                                       rtol=1e-12, atol=1e-12)
        for field in ("exempt", "positivity_ok", "decrease_ok"):
            np.testing.assert_array_equal(getattr(vmap, field), getattr(ref, field))

    def test_pair_blocks_give_the_one_pass_constants(self, monkeypatch):
        # maxima do not round, so the constants over BLOCK-pair blocks are the
        # constants over all pairs at once, bit for bit
        grid = verify.build_grid(1.0, 101, 3)
        assert grid.neighbor_pairs.shape[0] > 4 * verify.BLOCK
        rng = np.random.default_rng(5)
        grad_inf, lie = rng.random(grid.n_nodes), rng.normal(size=grid.n_nodes)
        blocked = verify.estimate_lipschitz(grad_inf, lie, grid)
        monkeypatch.setattr(verify, "BLOCK", grid.neighbor_pairs.shape[0])
        for got, want in zip(blocked, verify.estimate_lipschitz(grad_inf, lie, grid)):
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_per_box_node(self):
        """From 401^2 to 1201^2 pendulum box nodes, grid + map + level set of the
        committed (16, 16) checkpoint grow the peak resident set by under 170 B per
        added box node: 114 B measured with the slab-built grid and the block sweep,
        times a 1.5 margin. Building the whole box and evaluating every node's
        (n, 16) activations at once took 466 B."""
        checkpoint = ROOT / "perfbench" / "data" / "meta_checkpoint.json"
        growth = (peak_kb(CERTIFY_PEAK, 1201, checkpoint, timeout=300)
                  - peak_kb(CERTIFY_PEAK, 401, checkpoint, timeout=300)) * 1024 / (1201**2 - 401**2)
        assert growth < 170, f"{growth:.0f} B per added box node"


class TestExport:
    def test_csv_structure(self):
        grid = verify.build_grid(1.0, 5, 2)
        cand = QuadraticLyapunov(np.eye(2))
        vmap = verify.check_validity(cand, LinearSystem(2), grid)
        lines = "".join(verify.export_validity_csv(vmap, grid)).strip().splitlines()
        assert lines[0] == "x1,x2,vbar,lie,positivity_ok,decrease_ok,exempt"
        assert len(lines) == grid.n_nodes + 1

    def test_csv_bytes_match_row_loop(self, tmp_path):
        # the column-wise writer against a per-row repr(float(...)) reference loop
        grid = verify.build_grid(1.0, 3, 2)
        vbar = np.array([-0.0, 5e-324, 1e300, -1.7976931348623157e308, 0.1, 1 / 3, -2.5e-310,
                         123456789.0, 0.0])
        lie = -0.5 * vbar[::-1]
        rng = np.random.default_rng(0)
        vmap = verify.ValidityMap(vbar, lie, rng.uniform(-1.0, 1.0, grid.n_nodes),
                                  rng.uniform(-1.0, 1.0, grid.n_nodes),
                                  rng.random(grid.n_nodes) < 0.5)
        flags = [vmap.positivity_ok, vmap.decrease_ok, vmap.exempt]
        path = tmp_path / "map.csv"
        with open(path, "w", newline="") as fh:
            fh.writelines(verify.export_validity_csv(vmap, grid))

        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "vbar", "lie", "positivity_ok", "decrease_ok", "exempt"])
            for i in range(grid.n_nodes):
                writer.writerow([repr(float(v)) for v in grid.coords[i]]
                                + [repr(float(vbar[i])), repr(float(lie[i]))]
                                + [int(f[i]) for f in flags])
        assert path.read_bytes() == ref.read_bytes()
        assert b"-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()
