import csv
from dataclasses import fields, replace

import numpy as np
import pytest

from lyapcert import dynamics, net, verify
from lyapcert.baselines import QuadraticLyapunov
from lyapcert.config import PRESETS, SystemBlock
from lyapcert.dynamics import sample_ball

from helpers import (ROOT, child_int, estimated_growth, frozen_bounds, lattice_points,
                     node_coords, nominal_system, peak_kb, reference_build_grid,
                     reference_check_validity, reference_face_neighbors, reference_gradient,
                     row_of)


CERTIFY_PEAK = """
import sys
from lyapcert import dynamics, net, roa, verify
from lyapcert.config import PRESETS

cfg = PRESETS["ip_stochastic_l"]
theta, arch, extra = net.load_checkpoint(sys.argv[2])
candidate = net.MlpLyapunov(theta, arch)
system = dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
grid = verify.build_grid(extra["radius"], int(sys.argv[1]), 2, cfg.verify.exempt_radius)
vmap = verify.check_validity(candidate, system, grid)
result = roa.largest_level_set(vmap, grid)
assert not result.empty
"""

# peak resident set (KB) of grid, map and level set of a (16, 16) network on the
# argv[1]-droop microgrid at 3 nodes per axis
AXES_PEAK = """
import sys
from lyapcert import dynamics, net, roa, verify
from lyapcert.config import nominal_microgrid
dim = int(sys.argv[1])
arch = net.Architecture(dim, (16, 16))
system = dynamics.build_system("microgrid", nominal_microgrid(dim))
grid = verify.build_grid(3.0, 3, dim, 0.8)
vmap = verify.check_validity(net.MlpLyapunov(net.init_params(arch, 0), arch), system, grid)
roa.largest_level_set(vmap, grid)
"""

# minor page faults of a second map of the committed checkpoint on a 201^2 pendulum grid,
# after a first; with argv[2] "shaped" the process starts as `train-meta` does, with the
# bowl init's large arrays made and freed before the grid
MAP_FAULTS = """
import resource, sys
from lyapcert import dynamics, net, verify
from lyapcert.config import PRESETS

cfg = PRESETS["ip_stochastic_l"]
theta, arch, extra = net.load_checkpoint(sys.argv[1])
if sys.argv[2] == "shaped":
    net.shaped_init(arch, cfg.seeds.net_seed, 3.2)
candidate = net.MlpLyapunov(theta, arch)
system = dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
grid = verify.build_grid(3.2, 201, 2, cfg.verify.exempt_radius)
verify.check_validity(candidate, system, grid)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
verify.check_validity(candidate, system, grid)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


def sample_annulus(rng, n, dim, outer, inner=0.0):
    """n points uniform over the ball of radius `outer`, outside radius `inner`."""
    out = np.empty((0, dim))
    while out.shape[0] < n:
        batch = sample_ball(rng, n, dim, outer)
        out = np.concatenate([out, batch[np.linalg.norm(batch, axis=1) > inner]])
    return out[:n]


class InfiniteRim:
    """A system whose x_dot is +inf at states with x_1 above `edge` and -inf below -edge."""

    def __init__(self, system, edge):
        self.system, self.edge = system, edge

    def f_batch(self, X):
        F = self.system.f_batch(X)
        F[X[:, 0] > self.edge], F[X[:, 0] < -self.edge] = np.inf, -np.inf
        return F


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

    def value_and_gradient(self, X, work=None):
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
        assert sorted(node_coords(grid).ravel().tolist()) == [-1.0, 0.0, 1.0]
        assert grid.tau == 0.5

    def test_2d_tau(self):
        grid = verify.build_grid(1.0, 101, 2)
        assert grid.tau == pytest.approx(0.02)

    def test_origin_always_present(self):
        for dim, nodes in ((1, 5), (2, 7), (3, 5)):
            grid = verify.build_grid(2.0, nodes, dim)
            np.testing.assert_array_equal(grid.coords(grid.origin_row), np.zeros(dim))

    def test_nodes_within_collar(self):
        grid = verify.build_grid(1.5, 21, 3)
        collar = 1.5 + np.sqrt(3) * grid.spacing / 2
        norms = np.linalg.norm(node_coords(grid), axis=1)
        assert np.all(norms <= collar + 1e-9)
        # nodes beyond the ball proper are all boundary-layer
        assert np.all(grid.boundary[norms > 1.5 + 1e-12])

    def test_tiny_radius_keeps_the_unit_grid_nodes(self):
        """The rounding slack on the node norms scales with the radius: at d0 = 1e-13 an
        absolute 1e-12 exceeded the radius and kept the whole 441-node box."""
        tiny, unit = verify.build_grid(1e-13, 21, 2), verify.build_grid(1.0, 21, 2)
        assert tiny.n_nodes == unit.n_nodes < 21 ** 2
        for field in ("index", "boundary", "box_rows", "exempt"):
            np.testing.assert_array_equal(getattr(tiny, field), getattr(unit, field))

    def test_neighbors_are_face_adjacent(self):
        """A present neighbor at [side, k] is the lattice point one step along axis k,
        down for side 0 and up for side 1."""
        grid = verify.build_grid(1.0, 11, 2)
        rows = np.arange(grid.n_nodes)
        side, axis, at = np.nonzero(grid.face_neighbors(rows) != rows)
        lattice = lattice_points(grid)
        diff = lattice[grid.face_neighbors(rows)[side, axis, at]] - lattice[at]
        step = np.zeros_like(diff)
        step[np.arange(at.size), axis] = 2 * side - 1
        np.testing.assert_array_equal(diff, step)

    @pytest.mark.parametrize("dim, nodes", [(1, 7), (2, 21), (3, 11), (4, 7)])
    def test_an_absent_neighbor_is_the_node_itself(self, dim, nodes):
        """No neighbor entry is negative: a node with no face neighbor on a side
        holds its own row there, the boundary layer is exactly the collar and those
        nodes, and coords reads (index - half) * spacing bit for bit."""
        grid = verify.build_grid(1.0, nodes, dim)
        rows = np.arange(grid.n_nodes)
        lattice = lattice_points(grid)
        neighbors = grid.face_neighbors(rows)
        assert neighbors.dtype == np.intp and np.all(neighbors >= 0)
        own = neighbors == rows
        for side, axis, row in zip(*np.nonzero(own)):
            point = lattice[row].copy()
            point[axis] += 2 * side - 1
            assert row_of(grid, point) is None
        collar = np.linalg.norm(lattice * grid.spacing, axis=1) > 1.0 + 1e-12
        np.testing.assert_array_equal(grid.boundary, collar | own.any(axis=(0, 1)))
        some = np.random.default_rng(0).choice(rows, size=50)
        assert grid.coords(some).tobytes() == (lattice[some] * grid.spacing).tobytes()

    @pytest.mark.parametrize("dim, nodes", [(1, 7), (2, 21), (3, 11), (4, 7)])
    def test_neighbor_table_is_symmetric_and_complete(self, dim, nodes):
        """[0, k] holds a node's -axis k neighbor and [1, k] its +axis k neighbor, each
        the lattice point one step away, and the one holds the other on the opposite
        side; the node's own row is exactly where that point is off the box or beyond
        the collar. Any subset of rows, in any order, gets its own rows' neighbors."""
        grid = verify.build_grid(1.0, nodes, dim)
        half = nodes // 2
        collar = 1.0 + np.sqrt(dim) * grid.spacing / 2.0
        rows = np.arange(grid.n_nodes)
        lattice = lattice_points(grid)
        neighbors = grid.face_neighbors(rows)
        assert neighbors.shape == (2, dim, grid.n_nodes)
        for axis in range(dim):
            for side, step in ((0, -1), (1, 1)):
                point = lattice.copy()
                point[:, axis] += step
                kept = ((np.abs(point[:, axis]) <= half)
                        & (np.linalg.norm(point * grid.spacing, axis=1) <= collar + 1e-12))
                nb = neighbors[side, axis]
                np.testing.assert_array_equal(nb != rows, kept)
                np.testing.assert_array_equal(lattice[nb[kept]], point[kept])
                np.testing.assert_array_equal(neighbors[1 - side, axis, nb[kept]], rows[kept])
        some = np.random.default_rng(1).permutation(grid.n_nodes)[:grid.n_nodes // 3]
        np.testing.assert_array_equal(grid.face_neighbors(some), neighbors[:, :, some])

    @pytest.mark.parametrize("dim,nodes", [(1, 11), (2, 41), (3, 15)])
    def test_covering_property(self, dim, nodes):
        grid = verify.build_grid(1.0, nodes, dim)
        rng = np.random.default_rng(0)
        pts = sample_annulus(rng, 20000, dim, outer=1.0)
        # nearest-node l1 distance never exceeds tau
        nodes = node_coords(grid)
        for chunk in np.array_split(pts, 20):
            d = np.abs(chunk[:, None, :] - nodes[None, :, :]).sum(axis=2).min(axis=1)
            assert np.max(d) <= grid.tau + 1e-12

    @pytest.mark.parametrize("dim, nodes", [(1, 201), (2, 201), (3, 41), (4, 21), (5, 15),
                                            (6, 9)])
    def test_exempt_nodes_follow_the_norm_rule(self, dim, nodes):
        """A node is exempt exactly when the norm of its coordinates, taken BLOCK
        nodes at a time as the map's sweep took it, is at most the exemption radius,
        and the origin always is; radii on a node's norm test the rule's edge."""
        probe = verify.build_grid(1.0, nodes, dim)
        on_nodes = np.linalg.norm(probe.coords([probe.n_nodes // 3, probe.n_nodes // 5]), axis=1)
        for exempt_radius in (0.0, 0.35, 1.0 / 3.0, *on_nodes.tolist()):
            grid = verify.build_grid(1.0, nodes, dim, exempt_radius)
            rule = np.concatenate([np.linalg.norm(grid.coords(slice(s, s + verify.BLOCK)),
                                                  axis=1) <= exempt_radius
                                   for s in range(0, grid.n_nodes, verify.BLOCK)])
            rule[grid.origin_row] = True
            assert grid.exempt.dtype == bool
            np.testing.assert_array_equal(grid.exempt, rule)
            assert grid.exempt.sum() > (exempt_radius > 0)   # the ball holds more than the origin

    @pytest.mark.parametrize("dim, plane, kept", [(1, (0, 1), (0, 1)), (2, (1, 0), (0, 1)),
                                                  (3, (0, 2), (0, 2)), (3, (2, 1), (2, 1)),
                                                  (6, (3, 5), (3, 5))])
    def test_plane_is_the_given_one_above_two_dimensions(self, dim, plane, kept):
        assert verify.build_grid(1.0, 5, dim, plane=plane).plane == kept

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
                grid = verify.build_grid(radius, nodes, dim, radius / 3.0, (0, dim - 1))
                ref = reference_build_grid(radius, nodes, dim, radius / 3.0, (0, dim - 1))
                for field in ("radius", "nodes_per_axis", "dim", "spacing", "tau", "origin_row",
                              "plane"):
                    assert type(getattr(grid, field)) is type(getattr(ref, field))
                    assert getattr(grid, field) == getattr(ref, field), field
                for field in ("index", "boundary", "box_rows", "exempt"):
                    got, want = getattr(grid, field), getattr(ref, field)
                    assert got.dtype == want.dtype and got.shape == want.shape, field
                    assert got.tobytes() == want.tobytes(), field
                rows = np.arange(grid.n_nodes)
                assert grid.face_neighbors(rows).tobytes() == reference_face_neighbors(ref).tobytes()
        assert nodes**dim > verify.SLAB

    @pytest.mark.parametrize("dim, nodes", [(1, 201), (1, 200_001), (2, 201), (3, 41), (4, 21),
                                            (5, 15), (6, 9)])
    def test_grid_arrays_take_a_narrow_index_and_an_int32_box_table(self, dim, nodes):
        """The grid's arrays take, per kept node, one byte per axis of index (the
        200,001-per-axis axis needs four) and one byte each of boundary and exempt
        flags, and per box node the four bytes of its row; nothing else."""
        grid = verify.build_grid(1.0, nodes, dim)
        index_bytes = 1 if nodes <= 256 else 4
        arrays = [getattr(grid, f.name) for f in fields(grid)
                  if isinstance(getattr(grid, f.name), np.ndarray)]
        assert sum(a.nbytes for a in arrays) == (grid.n_nodes * (dim * index_bytes + 2)
                                                  + nodes**dim * 4)
        assert grid.index.dtype.kind == "u" and grid.box_rows.dtype == np.int32


def star_constants(cand, system, grid):
    X = node_coords(grid)
    grads = cand.gradient(X)
    lie = np.sum(grads * system.f_batch(X), axis=1)
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
        assert np.max(k_v) == 1.2 * float(np.max(np.abs(cand.gradient(node_coords(grid)))))

    def test_check_validity_evaluates_each_node_once(self):
        # check_validity estimates the constants from its own gradient and f
        # arrays: one gradient evaluation per node, in BLOCK-node blocks, and
        # the cell bounds of those constants
        grid = verify.build_grid(1.0, 201, 2, exempt_radius=0.3)
        cand = CountingCandidate(np.array([[2.0, 0.3], [0.3, 0.5]]))
        vmap = verify.check_validity(cand, LinearSystem(2), grid)
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
        d = np.abs(X[:, None, :] - node_coords(self.grid)[None, :, :]).sum(axis=2)
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
        r = np.linalg.norm(node_coords(grid), axis=1)
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
        grid = verify.build_grid(1.0, 21, 2, exempt_radius=0.35)
        cand = QuadraticLyapunov(np.eye(2))
        force_constants(monkeypatch, k_v=100.0, k_lie=100.0)
        vmap = verify.check_validity(cand, LinearSystem(2), grid)
        r = np.linalg.norm(node_coords(grid), axis=1)
        np.testing.assert_array_equal(vmap.exempt, r <= 0.35)
        assert vmap.exempt is grid.exempt   # the grid's array, not a copy

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
            j = row_of(big, lattice_points(small)[i])
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
        grid = verify.build_grid(1.0, 41, 2, exempt_radius=0.3)
        cand = QuadraticLyapunov(np.eye(2))
        vmap = verify.check_validity(cand, LinearSystem(2), grid)
        assert vmap.positivity_ok.all()
        rng = np.random.default_rng(1)
        pts = sample_annulus(rng, 10000, 2, outer=1.0, inner=0.3)
        assert np.all(cand.value(pts) - cand.value(np.zeros((1, 2)))[0] > 0.0)


class TestSelectValidRegion:
    def test_round_one_success(self, monkeypatch):
        grid = verify.build_grid(1.0, 5, 1, exempt_radius=0.3)
        force_constants(monkeypatch, 0.0, 0.0)
        good = verify.check_validity(QuadraticLyapunov(np.eye(1)), LinearSystem(1), grid)
        sel = verify.select_valid_region(lambda d: ("artifact", good.fully_green),
                                         d0=2.0, shrink_factor=0.8, max_rounds=3)
        assert sel.radius == 2.0 and sel.rounds == 1 and sel.accepted

    def test_geometric_schedule(self, monkeypatch):
        calls = []

        def fit(d):
            calls.append(d)
            ok = len(calls) >= 3
            grid = verify.build_grid(1.0, 5, 1, exempt_radius=0.3 if ok else 0.0)
            force_constants(monkeypatch, 0.0 if ok else 1e9, 0.0 if ok else 1e9)
            vmap = verify.check_validity(QuadraticLyapunov(np.eye(1)), LinearSystem(1), grid)
            return None, vmap.fully_green

        sel = verify.select_valid_region(fit, d0=2.0, shrink_factor=0.8, max_rounds=5)
        assert sel.rounds == 3 and sel.accepted
        assert sel.radius == pytest.approx(0.64 * 2.0)

    def test_failure_after_max_rounds(self, monkeypatch):
        grid = verify.build_grid(1.0, 5, 1)
        force_constants(monkeypatch, 1e9, 1e9)
        bad = verify.check_validity(QuadraticLyapunov(np.eye(1)), LinearSystem(1), grid)
        sel = verify.select_valid_region(lambda d: ([bad], bad.fully_green),
                                         d0=2.0, shrink_factor=0.5, max_rounds=2)
        assert not sel.accepted and sel.rounds == 2
        assert sel.radius == 1.0 and sel.artifact == [bad]


class TestOneSweep:
    """V and its gradient come from one sweep; the map is bit for bit the map of
    two separate sweeps."""

    @pytest.mark.parametrize("candidate, system, grid", [
        (net.MlpLyapunov(net.init_params(net.Architecture(2, (16, 16)), 3),
                         net.Architecture(2, (16, 16))),
         nominal_system("pendulum"), verify.build_grid(3.0, 41, 2, exempt_radius=0.3)),
        (net.MlpLyapunov(net.init_params(net.Architecture(3, (8, 8, 8)), 4),
                         net.Architecture(3, (8, 8, 8))),
         nominal_system("microgrid"), verify.build_grid(2.0, 15, 3, exempt_radius=0.3)),
        (QuadraticLyapunov(np.array([[2.0, 0.3], [0.3, 0.5]])), LinearSystem(2),
         verify.build_grid(1.0, 21, 2, exempt_radius=0.3)),
    ])
    def test_map_equals_the_two_sweep_map(self, candidate, system, grid):
        vmap = verify.check_validity(candidate, system, grid)
        ref = reference_check_validity(candidate, system, grid, exempt_radius=0.3)
        for field in ("vbar", "lie", "vbar_low", "lie_high", "exempt"):
            np.testing.assert_array_equal(getattr(vmap, field), getattr(ref, field))
        X = node_coords(grid)
        values, grads = candidate.value_and_gradient(X)
        assert values.tobytes() == candidate.value(X).tobytes()
        assert grads.tobytes() == reference_gradient(candidate, X).tobytes()
        assert grads.tobytes() == candidate.gradient(X).tobytes()


class TestBlockSweep:
    """check_validity sweeps BLOCK nodes at a time and keeps per node only the map's
    arrays and the gradient's l-infinity norm."""

    def test_map_agrees_with_the_one_pass_map(self):
        # the committed checkpoint on the ip_stochastic_l test system: 31,877 nodes,
        # eight blocks; the gradient's matrix products now have BLOCK rows, so the
        # floats may move in their last bits, and the flags stay
        theta, arch, extra = net.load_checkpoint(ROOT / "perfbench" / "data" / "meta_checkpoint.json")
        candidate = net.MlpLyapunov(theta, arch)
        system = dynamics.build_system("pendulum", (1.2, 0.15, 9.81, 0.1))
        grid = verify.build_grid(extra["radius"], 201, 2, exempt_radius=1.1)
        assert grid.n_nodes > 4 * verify.BLOCK
        vmap = verify.check_validity(candidate, system, grid)
        ref = reference_check_validity(candidate, system, grid, exempt_radius=1.1)
        for field in ("vbar", "lie", "vbar_low", "lie_high"):
            np.testing.assert_allclose(getattr(vmap, field), getattr(ref, field),
                                       rtol=1e-12, atol=1e-12)
        for field in ("exempt", "positivity_ok", "decrease_ok"):
            np.testing.assert_array_equal(getattr(vmap, field), getattr(ref, field))

    def test_node_blocks_give_the_one_pass_constants(self, monkeypatch):
        # maxima do not round, so the constants over BLOCK-node blocks are the
        # star maxima over all nodes at once, bit for bit, here taken from the
        # whole-box neighbor table with -inf (grad_inf) and 0 (quotients) where
        # a neighbor is missing (the table holds the node's own row there)
        grid = verify.build_grid(1.0, 101, 3)
        assert grid.n_nodes > 4 * verify.BLOCK
        rng = np.random.default_rng(5)
        grad_inf, lie = rng.random(grid.n_nodes), rng.normal(size=grid.n_nodes)
        blocked = verify.estimate_lipschitz(grad_inf, lie, grid)
        nb = reference_face_neighbors(reference_build_grid(1.0, 101, 3)).reshape(6, -1).T
        present = nb != np.arange(grid.n_nodes)[:, None]
        star = np.where(present, grad_inf[nb], -np.inf).max(axis=1)
        quot = np.where(present, np.abs(lie[:, None] - lie[nb]) * (1.0 / grid.spacing), 0.0)
        one_pass = (np.maximum(grad_inf, star) * verify.SAFETY, quot.max(axis=1) * verify.SAFETY)
        monkeypatch.setattr(verify, "BLOCK", grid.n_nodes)
        for got, want, ref in zip(blocked, verify.estimate_lipschitz(grad_inf, lie, grid), one_pass):
            assert got.tobytes() == want.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", ["checkpoint", "microgrid", "infinite"])
    def test_bounds_equal_the_frozen_expressions(self, case):
        """The bounds made in place in the constants' arrays are bit-equal to the
        expressions that made each product and sum in a new array, +inf for a NaN bound
        included (the one-pass test allows 1e-12: its gradients are one sweep)."""
        if case == "microgrid":
            arch = net.Architecture(3, (16, 16))
            candidate = net.MlpLyapunov(net.init_params(arch, 4), arch)
            system, grid = nominal_system("microgrid"), verify.build_grid(2.0, 31, 3, 0.3)
        else:
            theta, arch, extra = net.load_checkpoint(
                ROOT / "perfbench" / "data" / "meta_checkpoint.json")
            candidate = net.MlpLyapunov(theta, arch)
            system = dynamics.build_system("pendulum", (1.2, 0.15, 9.81, 0.1))
            grid = verify.build_grid(extra["radius"], 201, 2, exempt_radius=1.1)
            if case == "infinite":   # +inf and -inf x_dot on the rim: inf, -inf and NaN Lie
                system = InfiniteRim(system, 0.9 * extra["radius"])
        assert grid.n_nodes > 4 * verify.BLOCK
        with np.errstate(invalid="ignore"):   # inf - inf in a rim node's Lie sum
            vmap = verify.check_validity(candidate, system, grid)
        grad_inf = np.concatenate([
            np.abs(candidate.value_and_gradient(grid.coords(slice(s, s + verify.BLOCK)))[1])
            .max(axis=1) for s in range(0, grid.n_nodes, verify.BLOCK)])
        vbar_low, lie_high = frozen_bounds(vmap.vbar, vmap.lie, grad_inf, grid)
        assert vmap.vbar_low.tobytes() == vbar_low.tobytes()
        assert vmap.lie_high.tobytes() == lie_high.tobytes()
        if case == "infinite":
            assert np.isinf(vmap.lie).any() and (vmap.lie_high == np.inf).any()

    @pytest.mark.parametrize("start", ["plain", "shaped"])
    def test_a_later_map_takes_few_page_faults(self, start):
        """After a first map, a second map on the same grid takes under 1,000 minor page
        faults, whatever the process freed before its first map: the blocks share one
        set of the candidate's (BLOCK, width) arrays, so no block's arrays are given
        back to the system and faulted in again. Measured 488 (plain: the map's own
        per-node arrays and the kept block arrays, 1.9 MB) and 0 (shaped: all of it
        reused). With fresh arrays at every block, 3,779 and 411 at 2,048-node blocks,
        3,803 with shaped at 4,096."""
        checkpoint = ROOT / "perfbench" / "data" / "meta_checkpoint.json"
        assert child_int(MAP_FAULTS, checkpoint, start, timeout=300) < 1000

    def test_peak_memory_per_box_node(self):
        """From 401^2 to 1201^2 pendulum box nodes, grid + map + level set of the
        committed (16, 16) checkpoint grow the peak resident set by less than the
        memory budget's grid estimate (`config.peak_bytes`, 108 B per box node in 2-d):
        114 B measured with the slab-built grid and the block sweep; 99 B since the
        face-neighbor table replaced the face-pair list (116 B); 85 B since a node
        stores its integer index alone, against 103 B with stored coordinates in the
        same session; 63 B since a box row table replaced the face-neighbor table and
        the index takes a byte per axis, against 89 B with the table, measured alongside.
        Building the whole box and evaluating every node's (n, 16) activations at once
        took 466 B."""
        checkpoint = ROOT / "perfbench" / "data" / "meta_checkpoint.json"
        growth = (peak_kb(CERTIFY_PEAK, 1201, checkpoint, timeout=300)
                  - peak_kb(CERTIFY_PEAK, 401, checkpoint, timeout=300)) * 1024
        cfg = PRESETS["ip_stochastic_l"]
        grids = [replace(cfg, verify=replace(cfg.verify, nodes_per_axis=n)) for n in (401, 1201)]
        assert growth < estimated_growth("grid", *grids), \
            f"{growth / (1201**2 - 401**2):.0f} B per added box node"

    def test_peak_memory_per_axis(self):
        """At 3 nodes per axis a kept node's index takes a byte per axis and every box
        node four bytes of row: from a 10-d to a 12-d microgrid grid, with its (16, 16)
        map and level set, the peak resident set grows by less than the grid estimate
        (28 B per added box node measured, 118 B estimated; 148 B measured and 406 B
        estimated when a kept node's index and face-neighbor table took 24 B per axis)."""
        growth = (peak_kb(AXES_PEAK, 12) - peak_kb(AXES_PEAK, 10)) * 1024
        cfg = PRESETS["mg3_dc12"]
        grids = [replace(cfg, system=SystemBlock("microgrid", (2.0,) * d, (2.0,) * d, (0.0,) * d),
                         verify=replace(cfg.verify, nodes_per_axis=3)) for d in (10, 12)]
        assert growth < estimated_growth("grid", *grids), \
            f"{growth / (3**12 - 3**10):.0f} B per added box node"


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
            coords = node_coords(grid)
            for i in range(grid.n_nodes):
                writer.writerow([repr(float(v)) for v in coords[i]]
                                + [repr(float(vbar[i])), repr(float(lie[i]))]
                                + [int(f[i]) for f in flags])
        assert path.read_bytes() == ref.read_bytes()
        assert b"-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()
