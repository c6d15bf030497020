import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcert import dynamics, net
from lyapcert.config import PRESETS
from lyapcert.loss import TightenedLossConfig, empirical_loss, mean_loss

from helpers import (frozen_hvps, frozen_loss_gradients, frozen_shaped_init,
                     per_row_jacobian, save_checkpoint)


def identity_1_1_1():
    arch = net.Architecture(input_dim=1, hidden=(1,))
    theta = np.zeros(arch.n_params)
    for W, _b in net.unpack(theta, arch):
        W[...] = 1.0
    return arch, theta


def value(theta, arch, x):
    """V at one state, through the batched verification view."""
    return float(net.MlpLyapunov(theta, arch).value(np.asarray(x, dtype=float))[0])


def input_gradient(theta, arch, x):
    """grad_x V at one state, through the batched verification view."""
    return net.MlpLyapunov(theta, arch).gradient(np.asarray(x, dtype=float))[0]


def fd_gradient(fun, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (fun(tp) - fun(tm)) / (2 * h)
    return g


def sample_away_from_kinks(rng, arch, cfg, n):
    """Random (theta, batch) pairs with both hinge arguments >= 1e-3 from zero."""
    out = []
    while len(out) < n:
        theta = net.init_params(arch, int(rng.integers(1 << 30)))
        X = rng.normal(size=(4, arch.input_dim))
        Y = rng.normal(size=(4, arch.input_dim))
        candidate = net.MlpLyapunov(theta, arch)
        V = candidate.value(X)
        lie = np.sum(candidate.gradient(X) * Y, axis=1)
        if np.all(np.abs(cfg.eps1 - V) > 1e-3) and np.all(np.abs(cfg.eps2 + lie) > 1e-3):
            out.append((theta, (X, Y)))
    return out


class TestForward:
    def test_zero_params_zero_everywhere(self):
        arch = net.Architecture(2, (4, 4))
        theta = np.zeros(arch.n_params)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert value(theta, arch, rng.normal(size=2)) == 0.0

    def test_identity_net_at_zero(self):
        arch, theta = identity_1_1_1()
        assert value(theta, arch, [0.0]) == 0.0

    def test_identity_net_tanh_one(self):
        arch, theta = identity_1_1_1()
        assert value(theta, arch, [1.0]) == pytest.approx(np.tanh(1.0), abs=1e-15)


class TestInputGradient:
    def test_zero_params(self):
        arch = net.Architecture(3, (5,))
        g = input_gradient(np.zeros(arch.n_params), arch, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_identity_net_sech2(self):
        arch, theta = identity_1_1_1()
        assert input_gradient(theta, arch, [0.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        arch = net.Architecture(2, (6, 4))
        for _ in range(100):
            theta = net.init_params(arch, int(rng.integers(1 << 30)))
            x = rng.normal(size=2)
            g = input_gradient(theta, arch, x)
            fd = np.array([
                (value(theta, arch, x + dx) - value(theta, arch, x - dx)) / 2e-6
                for dx in np.eye(2) * 1e-6
            ])
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("hidden", [(16, 16), (6, 5, 4)])
    def test_kept_block_arrays_change_nothing(self, hidden):
        """Blocks swept with one `work` dict, the last one short, give the bits of fresh
        arrays, and every block after the first makes no new array in it."""
        rng = np.random.default_rng(5)
        arch = net.Architecture(3, hidden)
        candidate = net.MlpLyapunov(net.init_params(arch, 2), arch)
        X, work = rng.uniform(-2.0, 2.0, size=(700, 3)), {}
        for start in range(0, len(X), 256):
            V, grad = candidate.value_and_gradient(X[start:start + 256], work)
            kept = {key: id(array) for key, array in work.items()}
            V_fresh, grad_fresh = candidate.value_and_gradient(X[start:start + 256])
            assert V.tobytes() == V_fresh.tobytes() and grad.tobytes() == grad_fresh.tobytes()
            if start:
                assert kept == first
            else:
                first = kept
        assert len(first) == 2 * len(hidden)


class TestLossGradient:
    def test_flat_region_zero_gradient(self):
        # both hinges inactive and V(0) = 0: the loss sits on a flat plateau
        arch, theta = identity_1_1_1()
        cfg = TightenedLossConfig(0.1, 0.1)
        X = np.array([[2.0]])       # V = tanh(2) = 0.96 > eps1
        Y = np.array([[-3.0]])      # lie = sech^2(2) * (-3) = -0.21 < -eps2
        g = net.loss_gradient(theta, arch, (X, Y), cfg)
        np.testing.assert_array_equal(g, np.zeros_like(theta))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        arch = net.Architecture(2, (4,))
        cfg = TightenedLossConfig(0.3, 0.2)
        for theta, batch in sample_away_from_kinks(rng, arch, cfg, 25):
            g = net.loss_gradient(theta, arch, batch, cfg)
            fd = fd_gradient(lambda t: empirical_loss(t, arch, batch, cfg), theta)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)

    def test_decrease_hinge_linear_in_y(self):
        rng = np.random.default_rng(3)
        arch = net.Architecture(2, (4,))
        theta = net.init_params(arch, 5)
        X = rng.normal(size=(6, 2))
        # labels aligned with the value gradient so the decrease hinge is active
        Y = net.MlpLyapunov(theta, arch).gradient(X)
        cfg = TightenedLossConfig(1e9, 0.5)  # positivity hinge active everywhere, fixed
        base = net.loss_gradient(theta, arch, (X, np.zeros_like(Y)), cfg)
        g1 = net.loss_gradient(theta, arch, (X, Y), cfg)
        g2 = net.loss_gradient(theta, arch, (X, 2.0 * Y), cfg)
        np.testing.assert_allclose(g2 - base, 2.0 * (g1 - base), rtol=1e-12, atol=1e-14)


def fused_case(seed, eps1, eps2, out_bias, pos, dec):
    """(theta, arch, batch, cfg) on a (6, 4) tanh net: 8 rows with both hinge arguments
    >= 1e-3 from zero whose positivity (decrease) hinge is active when `pos` (`dec`) is
    True, inactive when False, either when None. Labels are +-5 grad V(x), so a row's
    decrease argument is eps2 +- 5 |grad V(x)|^2. `out_bias` None zeroes every bias,
    which makes V(0) = 0; otherwise it sets the output bias."""
    rng = np.random.default_rng(seed)
    arch = net.Architecture(2, (6, 4))
    theta = net.init_params(arch, seed)
    if out_bias is None:
        for _w, _shape, b in arch.param_slices:
            theta[b] = 0.0
    else:
        theta[-1] = out_bias
    X = rng.uniform(-2.0, 2.0, size=(256, 2))
    V, grad = net.MlpLyapunov(theta, arch).value_and_gradient(X)
    Y = rng.choice([-5.0, 5.0], size=(256, 1)) * grad
    pos_arg, dec_arg = eps1 - V, eps2 + np.sum(grad * Y, axis=1)
    keep = (np.abs(pos_arg) > 1e-3) & (np.abs(dec_arg) > 1e-3)
    for arg, wanted in ((pos_arg, pos), (dec_arg, dec)):
        if wanted is not None:
            keep &= (arg > 0.0) == wanted
    rows = np.flatnonzero(keep)[:8]
    assert rows.size == 8
    return theta, arch, (X[rows], Y[rows]), TightenedLossConfig(eps1, eps2)


class TestFusedSweep:
    """The one reverse sweep carries the positivity, decrease and V(0) terms; each
    alone and all three together match central differences of `empirical_loss`."""

    @pytest.mark.parametrize("case, active", [
        (dict(seed=11, eps1=0.5, eps2=0.1, out_bias=None, pos=True, dec=False),
         (True, False, False)),
        (dict(seed=12, eps1=0.05, eps2=0.1, out_bias=None, pos=False, dec=True),
         (False, True, False)),
        (dict(seed=13, eps1=0.05, eps2=0.1, out_bias=2.0, pos=False, dec=False),
         (False, False, True)),
        (dict(seed=14, eps1=0.6, eps2=0.1, out_bias=0.3, pos=None, dec=None),
         (True, True, True)),
    ], ids=["positivity", "decrease", "origin", "all"])
    def test_matches_finite_differences(self, case, active):
        theta, arch, batch, cfg = fused_case(**case)
        candidate = net.MlpLyapunov(theta, arch)
        V, grad = candidate.value_and_gradient(batch[0])
        lie = np.sum(grad * batch[1], axis=1)
        assert (np.any(cfg.eps1 - V > 0.0), np.any(cfg.eps2 + lie > 0.0),
                candidate.value(np.zeros((1, 2)))[0] != 0.0) == active
        g = net.loss_gradient(theta, arch, batch, cfg)
        fd = fd_gradient(lambda t: empirical_loss(t, arch, batch, cfg), theta)
        assert np.any(g != 0.0)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)


class TestHvp:
    def test_zero_vector(self):
        arch = net.Architecture(2, (3,))
        theta = net.init_params(arch, 0)
        cfg = TightenedLossConfig(0.1, 0.1)
        batch = (np.ones((2, 2)), np.ones((2, 2)))
        np.testing.assert_array_equal(net.hvp(theta, arch, batch, cfg, np.zeros_like(theta)),
                                      np.zeros_like(theta))

    def test_quadratic_surrogate(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(6, 6))
        M = M @ M.T
        v = rng.normal(size=6)
        hv = net.finite_difference_hvp(lambda points: points @ M.T, np.zeros(6), v)
        np.testing.assert_allclose(hv, M @ v, atol=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        arch = net.Architecture(2, (4,))
        cfg = TightenedLossConfig(0.3, 0.2)
        (theta, batch), = sample_away_from_kinks(rng, arch, cfg, 1)
        u = rng.normal(size=theta.size)
        v = rng.normal(size=theta.size)
        hu = net.hvp(theta, arch, batch, cfg, u)
        hv = net.hvp(theta, arch, batch, cfg, v)
        assert np.dot(v, hu) == pytest.approx(np.dot(u, hv), rel=1e-3)


class TestStackedKernel:
    """B stacked tasks give, bit for bit, what B per-task calls give."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.arch = net.Architecture(2, (16, 16))
        self.cfg = TightenedLossConfig(1.0, 1.0)
        self.thetas = np.stack([short_init(self.arch, s, 3.0, iters=3) for s in range(4)])
        self.X = rng.uniform(-3.0, 3.0, size=(4, 32, 2))
        self.Y = rng.normal(scale=3.0, size=(4, 32, 2))

    def per_task(self, theta, p):
        batch = (self.X[p], self.Y[p])
        return (net.loss_gradient(theta, self.arch, batch, self.cfg),
                empirical_loss(theta, self.arch, batch, self.cfg))

    def test_distinct_thetas(self):
        G, terms = net.loss_gradients(self.thetas, self.arch, (self.X, self.Y), self.cfg,
                                      values=True)
        losses = mean_loss(*terms, self.cfg)
        for p in range(4):
            g, value = self.per_task(self.thetas[p], p)
            np.testing.assert_array_equal(G[p], g)
            assert losses[p] == value

    def test_batch_holding_the_origin(self):
        """A data row at exactly x = 0 stays a data row beside the origin row the
        kernel appends."""
        self.X[:, 5] = 0.0
        self.Y[1, 5] = 0.0
        self.test_distinct_thetas()

    def test_broadcast_theta(self):
        G, terms = net.loss_gradients(self.thetas[2], self.arch, (self.X, self.Y), self.cfg,
                                      values=True)
        losses = mean_loss(*terms, self.cfg)
        for p in range(4):
            g, value = self.per_task(self.thetas[2], p)
            np.testing.assert_array_equal(G[p], g)
            assert losses[p] == value

    def test_hvps(self):
        V = np.random.default_rng(8).normal(size=self.thetas.shape)
        V[1] = 0.0
        V[3, 5] = np.inf
        H = net.hvps(self.thetas[0], self.arch, (self.X, self.Y), self.cfg, V)
        np.testing.assert_array_equal(H[1], np.zeros(self.arch.n_params))
        np.testing.assert_array_equal(H[3], np.zeros(self.arch.n_params))
        for p in range(4):
            np.testing.assert_array_equal(
                H[p], net.hvp(self.thetas[0], self.arch, (self.X[p], self.Y[p]), self.cfg, V[p]))

    def test_buffers_change_nothing(self):
        """Preallocated tanh' buffers, filled with NaN first, give the bits of the
        allocating sweep; the input gradient from the cached tanh' gives the bits of
        the ones-vector sweep that recomputes 1 - A^2."""
        weights = net.unpack(self.thetas, self.arch)
        X = self.X
        sp_out = [np.full(X.shape[:2] + (h,), np.nan) for h in self.arch.hidden]

        V, acts = net._forward_sweep(weights, X)
        sps, sps_b = net._tanh_primes(acts), net._tanh_primes(acts, sp_out)
        for S, Sb in zip(sps[1:], sps_b[1:]):
            np.testing.assert_array_equal(Sb, S)
        assert all(Sb is buf for Sb, buf in zip(sps_b[1:], sp_out))

        delta = np.ones(X.shape[:2] + (1,))
        for l in range(len(weights) - 1, 0, -1):
            delta = (delta @ weights[l][0]) * (1.0 - acts[l] ** 2)
        np.testing.assert_array_equal(net._input_gradient(weights, sps), delta @ weights[0][0])


class TestFrozenEngine:
    """The engine against its frozen copy in `helpers`, bit for bit: the other tests
    compare the engine with itself, so they miss a change of bits common to both paths."""

    @pytest.mark.parametrize("hidden", [(16, 16), (8,)], ids=["16x16", "8"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("rows", [33, 51, 257])
    @pytest.mark.parametrize("tasks", [1, 4, 8])
    def test_gradients_and_hvps(self, tasks, rows, dim, hidden):
        rng = np.random.default_rng(1000 * tasks + rows + dim)
        arch = net.Architecture(dim, hidden)
        cfg = TightenedLossConfig(0.5, 0.1)
        thetas = np.stack([net.init_params(arch, s) * 2.0 for s in range(tasks)])
        batch = (rng.uniform(-3.0, 3.0, (tasks, rows, dim)), rng.normal(size=(tasks, rows, dim)))
        for theta in (thetas, thetas[0]):
            np.testing.assert_array_equal(net.loss_gradients(theta, arch, batch, cfg),
                                          frozen_loss_gradients(theta, arch, batch, cfg))
            grad, terms = net.loss_gradients(theta, arch, batch, cfg, values=True)
            ref_grad, ref_terms = frozen_loss_gradients(theta, arch, batch, cfg, values=True)
            np.testing.assert_array_equal(grad, ref_grad)
            for term, ref in zip(terms, ref_terms):
                np.testing.assert_array_equal(term, ref)
        assert np.any((cfg.eps1 - terms[0]) > 0.0) and np.any((cfg.eps2 + terms[1]) > 0.0)
        v = rng.normal(scale=30.0, size=(tasks, arch.n_params))
        zero, nonfinite = v.copy(), v.copy()
        zero[0] = 0.0
        nonfinite[-1, 3] = np.nan if tasks > 1 else np.inf
        for direction in (v, zero, nonfinite):
            H = net.hvps(thetas[0], arch, batch, cfg, direction)
            np.testing.assert_array_equal(H, frozen_hvps(thetas[0], arch, batch, cfg, direction))
        assert not np.any(H[-1]) and not np.any(net.hvps(thetas[0], arch, batch, cfg, zero)[0])

    @pytest.mark.parametrize("hidden", [(16, 16), (8,)], ids=["16x16", "8"])
    @pytest.mark.parametrize("dim, radius", [(2, 3.2), (3, 3.0)])
    def test_shaped_init(self, dim, radius, hidden):
        arch = net.Architecture(dim, hidden)
        np.testing.assert_array_equal(net.shaped_init(arch, 0, radius),
                                      frozen_shaped_init(arch, 0, radius))


class TestInitParams:
    def test_deterministic(self):
        arch = net.Architecture(3, (8,))
        np.testing.assert_array_equal(net.init_params(arch, 42), net.init_params(arch, 42))

    def test_different_seeds_differ(self):
        arch = net.Architecture(3, (8,))
        assert not np.array_equal(net.init_params(arch, 1), net.init_params(arch, 2))

    def test_output_variance_nonzero(self):
        arch = net.Architecture(2, (8,))
        rng = np.random.default_rng(6)
        values = [value(net.init_params(arch, s), arch, rng.normal(size=2))
                  for s in range(30)]
        assert 0.0 < np.var(values) < np.inf

    def test_bounds_follow_fan_in(self):
        arch = net.Architecture(4, (16,))
        theta = net.init_params(arch, 0)
        (w_slice, shape, _b) = arch.param_slices[0]
        assert np.max(np.abs(theta[w_slice])) <= np.sqrt(1.0 / 4)


class TestPacking:
    @given(st.integers(1, 4), st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_unpack_views_write_through(self, dim, width, seed):
        # the layers of one theta, written into the unpack views of a zero vector,
        # give that theta back
        arch = net.Architecture(dim, (width, max(1, width // 2)))
        theta = net.init_params(arch, seed)
        copy = np.zeros_like(theta)
        for (W, b), (W0, b0) in zip(net.unpack(copy, arch), net.unpack(theta, arch)):
            W[...], b[...] = W0, b0
        np.testing.assert_array_equal(copy, theta)

    def test_slices_cover_vector(self):
        arch = net.Architecture(3, (5, 4))
        covered = np.zeros(arch.n_params, dtype=int)
        for w, shape, b in arch.param_slices:
            covered[w] += 1
            covered[b] += 1
        assert np.all(covered == 1)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        arch = net.Architecture(2, (7, 3))
        theta = net.init_params(arch, 9)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, theta, arch, extra={"radius": 4.0})
        theta2, arch2, extra = net.load_checkpoint(path)
        assert arch2 == arch
        assert extra["radius"] == 4.0
        np.testing.assert_array_equal(theta, theta2)
        x = np.array([0.3, -0.8])
        assert value(theta, arch, x) == value(theta2, arch2, x)

    def test_rejects_non_tanh_activation(self, tmp_path):
        arch = net.Architecture(2, (3,))
        path = tmp_path / "relu.json"
        payload = net.checkpoint_payload(net.init_params(arch, 0), arch)
        payload["arch"]["activation"] = "relu"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="tanh"):
            net.load_checkpoint(path)

    def test_rejects_wrong_size(self, tmp_path):
        arch = net.Architecture(2, (3,))
        path = tmp_path / "bad.json"
        payload = {"arch": {"input_dim": 2, "hidden": [3], "activation": "tanh"},
                   "theta": [0.0, 1.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            net.load_checkpoint(path)


class TestReadJson:
    """Configs and checkpoints are decoded by one reader: UTF-8 JSON with no key
    repeated at any level (other bytes and deep nesting: test_cli's file faults)."""

    def test_reads_utf8(self, tmp_path):
        path = tmp_path / "name.json"
        path.write_bytes('{"name": "pendule étendu"}'.encode("utf-8"))
        assert net.read_json(path) == {"name": "pendule étendu"}

    @pytest.mark.parametrize("text, key", [
        ('{"a": 1, "a": 2}', "a"),
        ('{"extra": {"radius": 3.0, "radius": 1e300}}', "radius"),
        ('[{"k": [{"k": 1, "k": 1}]}]', "k"),
    ])
    def test_rejects_a_repeated_key_at_any_level(self, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"repeated key {key!r}"):
            net.read_json(path)


def short_init(arch, seed, radius, iters):
    """`net.shaped_init` with `iters` Levenberg-Marquardt iterations in place of INIT_ITERS."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(net, "INIT_ITERS", iters)
        return net.shaped_init(arch, seed, radius)


def bowl_fit_rms(theta, arch, seed, radius):
    """RMS residual of the bowl fit on the points `net.shaped_init` fits."""
    X = dynamics.sample_ball(np.random.default_rng(seed), net.INIT_POINTS, arch.input_dim, radius)
    target = net.INIT_SCALE * (np.linalg.norm(X, axis=1) / radius) ** 2
    return float(np.sqrt(np.mean((net.MlpLyapunov(theta, arch).value(X) - target) ** 2)))


# RMS fit residual of the 2,000-step gradient-descent bowl init that preceded the
# Levenberg-Marquardt fit (commit f2817f5), per preset setting (input_dim, d0, hidden,
# net_seed); measured by `bowl_fit_rms` on that commit's `net.shaped_init`
GD_FIT_RMS = {
    (2, 4.0, (16, 16), 0): 0.08817675775557757,
    (3, 3.0, (16, 16), 0): 0.12385492948205364,
    (5, 2.0, (16, 16), 0): 0.28316613529814194,
    (6, 1.0, (16, 16), 0): 0.5850845047456797,
}


def preset_setting(cfg):
    return cfg.architecture().input_dim, cfg.verify.d0, cfg.hidden, cfg.seeds.net_seed


@functools.lru_cache(maxsize=None)
def preset_init(setting):
    input_dim, radius, hidden, seed = setting
    return net.shaped_init(net.Architecture(input_dim, hidden), seed, radius)


class TestShapedInit:
    def test_deterministic(self):
        arch = net.Architecture(2, (8, 8))
        np.testing.assert_array_equal(net.shaped_init(arch, 3, 4.0),
                                      net.shaped_init(arch, 3, 4.0))

    def test_bowl_shape(self):
        arch = net.Architecture(2, (16, 16))
        theta = net.shaped_init(arch, 0, 4.0)
        v0 = value(theta, arch, [0.0, 0.0])
        rim = [value(theta, arch, 3.5 * np.array([np.cos(a), np.sin(a)]))
               for a in np.linspace(0, 2 * np.pi, 12)]
        assert min(rim) > v0 + 0.5

    def test_every_preset_setting_has_a_reference_fit(self):
        assert {preset_setting(cfg) for cfg in PRESETS.values()} == set(GD_FIT_RMS)

    @pytest.mark.parametrize("setting", sorted(GD_FIT_RMS))
    def test_fits_no_worse_than_gradient_descent(self, setting):
        input_dim, radius, hidden, seed = setting
        theta = preset_init(setting)
        assert bowl_fit_rms(theta, net.Architecture(input_dim, hidden), seed, radius) \
            <= GD_FIT_RMS[setting]
        assert np.max(np.abs(theta)) <= 10.0

    @pytest.mark.parametrize("setting", sorted(GD_FIT_RMS))
    def test_converges_instead_of_amplifying_rounding(self, setting, monkeypatch):
        """A 1e-15 relative nudge to the start moves the fitted weights by at most 1e-10."""
        input_dim, radius, hidden, seed = setting
        start = net.init_params
        monkeypatch.setattr(net, "init_params", lambda arch, s: start(arch, s) * (1.0 + 1e-15))
        nudged = net.shaped_init(net.Architecture(input_dim, hidden), seed, radius)
        assert np.max(np.abs(nudged - preset_init(setting))) <= 1e-10

    def test_jacobian_rows_match_central_difference(self):
        """At every preset setting's fitted weights, the chunk's Jacobian from one 2-d
        sweep matches central differences of V and the per-row Jacobian; a first-layer
        entry can be a small difference of larger terms, so the per-row match is
        relative to the Jacobian's largest entry as well."""
        for input_dim, radius, hidden, seed in sorted(GD_FIT_RMS):
            arch = net.Architecture(input_dim, hidden)
            theta = preset_init((input_dim, radius, hidden, seed))
            X = dynamics.sample_ball(np.random.default_rng(3), 16, input_dim, radius)
            V, J = net._value_jacobian(theta, arch, X)
            np.testing.assert_array_equal(V, net.MlpLyapunov(theta, arch).value(X))
            ref = per_row_jacobian(theta, arch, X)
            np.testing.assert_allclose(J, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
            h = 1e-6
            for k in range(arch.n_params):
                step = np.zeros(arch.n_params)
                step[k] = h
                fd = (net.MlpLyapunov(theta + step, arch).value(X)
                      - net.MlpLyapunov(theta - step, arch).value(X)) / (2.0 * h)
                np.testing.assert_allclose(J[:, k], fd, rtol=1e-6, atol=1e-6,
                                           err_msg=f"{input_dim}-d, param {k}")

    def test_owns_its_data_and_keeps_no_state(self):
        arch = net.Architecture(2, (8, 8))
        first = short_init(arch, 1, 4.0, iters=3)
        other = short_init(arch, 1, 2.0, iters=3)
        third = short_init(arch, 1, 4.0, iters=3)
        assert first.flags.owndata and first.base is None
        assert not np.array_equal(first, other)
        np.testing.assert_array_equal(first, third)
