"""The table-driven artifact writers against the per-node reference writers of
`helpers`: equal strings, byte for byte, on real and random maps. The validity
CSV and SVG writers make their text one block of grid nodes at a time; their
blocks, joined, are the reference string."""

from pathlib import Path

import numpy as np
import pytest

from lyapcert import baselines, cli, dynamics, net, roa, svg, verify
from lyapcert.config import PRESETS

from helpers import (node_coords, reference_boundary_csv, reference_validity_csv,
                     reference_validity_svg)

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "meta_checkpoint.json"


def assert_same_text(text, expected):
    """Equal strings; a mismatch names its first differing line instead of a full
    diff, which takes minutes on megabyte texts."""
    if text != expected:
        lines, ref = text.split("\n"), expected.split("\n")
        first = next((i for i, pair in enumerate(zip(lines, ref)) if pair[0] != pair[1]),
                     min(len(lines), len(ref)))
        pytest.fail(f"line {first} differs: {lines[first:first + 1]} != {ref[first:first + 1]} "
                    f"({len(lines)} and {len(ref)} lines)")


def assert_writers_match(vmap, grid, result, axes):
    assert_same_text("".join(verify.export_validity_csv(vmap, grid)),
                     reference_validity_csv(vmap, grid))
    assert_same_text("".join(svg.render_validity_svg(vmap, grid, axes=axes)),
                     reference_validity_svg(vmap, grid, axes=axes))
    assert_same_text("".join(svg.render_validity_svg(vmap, grid, roa=result, axes=axes)),
                     reference_validity_svg(vmap, grid, roa=result, axes=axes))
    assert_same_text(roa.export_boundary_csv(result, grid), reference_boundary_csv(result, grid))


@pytest.fixture(scope="module")
def pendulum():
    """The committed meta checkpoint at the ip_stochastic_l preset's 201-node grid
    and exemption radius, on a pendulum of length 0.4, where it has red cells."""
    cfg = PRESETS["ip_stochastic_l"]
    theta, arch, extra = net.load_checkpoint(CHECKPOINT)
    grid = verify.build_grid(extra["radius"], cfg.verify.nodes_per_axis, 2)
    system = dynamics.build_system(dynamics.ParamVector("pendulum", (0.4, 0.15, 9.81, 0.1)))
    vmap, result = baselines.certify_candidate(net.MlpLyapunov(theta, arch), system, grid,
                                               cfg.verify, cfg.plane)
    return vmap, grid, result


class TestReferenceEquality:
    def test_pendulum_map(self, pendulum):
        vmap, grid, result = pendulum
        assert not result.empty
        assert vmap.exempt.sum() > 1 and not vmap.fully_green   # pale and red cells
        assert_writers_match(vmap, grid, result, (0, 1))

    def test_microgrid_plane_slice(self):
        cfg = PRESETS["mg3_dc12"]
        system = dynamics.build_system(cfg.system.test())
        grid = verify.build_grid(cfg.verify.d0, cfg.verify.nodes_per_axis, 3)
        candidate, _, _ = baselines.qlf_ts(system)
        vmap, result = baselines.certify_candidate(candidate, system, grid, cfg.verify, (0, 2))
        assert not result.empty and vmap.exempt.sum() > 1
        assert_writers_match(vmap, grid, result, (0, 2))

    def test_empty_roa(self, pendulum):
        vmap, grid, _ = pendulum
        red = verify.ValidityMap(vmap.vbar, vmap.lie, np.full(grid.n_nodes, -1.0),
                                 vmap.lie_high, vmap.exempt)
        empty = roa.largest_level_set(red, grid, (0, 1))
        assert empty.empty
        assert roa.export_boundary_csv(empty, grid) == "u,v\r\n"
        assert_writers_match(red, grid, empty, (0, 1))

    @pytest.mark.parametrize("axes", [(0, 1), (0, 2), (1, 2), (2, 0)])
    def test_random_map_and_members(self, axes):
        # arbitrary flags, values at the float extremes and a scattered member set
        grid = verify.build_grid(1.3, 9, 3)
        rng = np.random.default_rng(sum(axes))
        special = [-0.0, 5e-324, 1e300, -1.7976931348623157e308, 1 / 3, -2.5e-310]
        vbar = rng.normal(size=grid.n_nodes)
        vbar[:len(special)] = special
        vmap = verify.ValidityMap(vbar, -vbar[::-1], rng.uniform(-1, 1, grid.n_nodes),
                                  rng.uniform(-1, 1, grid.n_nodes), rng.random(grid.n_nodes) < 0.3)
        members = np.sort(rng.choice(grid.n_nodes, size=grid.n_nodes // 3, replace=False))
        result = roa.RoaResult(c=1.0, member_rows=members, area=0.0, plane=axes)
        assert_writers_match(vmap, grid, result, axes)

    def test_blocks_stream_through_the_atomic_writer(self, pendulum, tmp_path):
        # the pendulum map spans several blocks; written through atomic_write_text,
        # the blocks give the bytes of their joined string, and the SVG's len() is
        # the joined string's length
        vmap, grid, result = pendulum
        assert grid.n_nodes > 4 * verify.BLOCK
        for blocks in (verify.export_validity_csv(vmap, grid),
                       svg.render_validity_svg(vmap, grid, roa=result)):
            blocks = list(blocks)
            assert len(blocks) > 4
            cli.atomic_write_text(tmp_path / "blocks", iter(blocks))
            cli.atomic_write_text(tmp_path / "joined", "".join(blocks))
            assert (tmp_path / "blocks").read_bytes() == (tmp_path / "joined").read_bytes()
        text = svg.render_validity_svg(vmap, grid, roa=result)
        assert len(text) == len("".join(text)) == len(reference_validity_svg(vmap, grid, roa=result))

    def test_axis_coords_give_the_node_coordinates(self):
        for radius, nodes, dim in ((4.0, 201, 2), (3.0, 41, 3), (1.3, 9, 3), (0.7, 3, 1)):
            grid = verify.build_grid(radius, nodes, dim)
            assert grid.coords(np.arange(grid.n_nodes)).tobytes() == node_coords(grid).tobytes()


class TestPhasePolyline:
    def test_drops_points_that_repeat_the_previous_pixel_pair(self):
        system = dynamics.build_system(PRESETS["ip_stochastic_l"].system.test())
        traj = dynamics.simulate(system, [0.5, -0.5], h=0.001, horizon=10.0)
        text = svg.render_phase_svg(system, 4.0, traj.states)
        points = text.split('<polyline points="')[1].split('"')[0].split(" ")
        to_px, _ = svg._scaler(4.0)
        every = [f"{x:.2f},{y:.2f}" for x, y in (to_px(u, v) for u, v in traj.states)]
        kept = [p for i, p in enumerate(every) if i == 0 or p != every[i - 1]]
        assert points == kept
        assert len(points) < len(every) // 2
