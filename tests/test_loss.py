import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcert import net
from lyapcert.loss import EmptyBatch, TightenedLossConfig, empirical_loss, mean_loss

finite = st.floats(-50, 50)
margin = st.floats(1e-6, 5.0)


def pointwise_loss(v_x, lie, v_0, cfg):
    """The loss of one sample: mean_loss over a one-sample batch."""
    return float(mean_loss(np.array([v_x]), np.array([lie]), v_0, cfg))


class TestPointwiseLoss:
    def test_both_hinges_inactive(self):
        cfg = TightenedLossConfig(0.5, 0.5)
        assert pointwise_loss(2.0, -1.0, 0.0, cfg) == 0.0

    def test_direct_arithmetic(self):
        cfg = TightenedLossConfig(0.5, 0.05)
        assert pointwise_loss(0.2, 0.1, 0.1, cfg) == pytest.approx(0.46, abs=1e-15)

    def test_boundary_is_zero(self):
        cfg = TightenedLossConfig(0.3, 0.7)
        assert pointwise_loss(cfg.eps1, -cfg.eps2, 0.0, cfg) == 0.0

    @given(finite, finite, finite, margin, margin)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, v, lie, v0, e1, e2):
        assert pointwise_loss(v, lie, v0, TightenedLossConfig(e1, e2)) >= 0.0

    @given(finite, finite, finite, margin, margin, st.floats(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_margins(self, v, lie, v0, e1, e2, bump):
        base = pointwise_loss(v, lie, v0, TightenedLossConfig(e1, e2))
        assert pointwise_loss(v, lie, v0, TightenedLossConfig(e1 + bump, e2)) >= base
        assert pointwise_loss(v, lie, v0, TightenedLossConfig(e1, e2 + bump)) >= base

    def test_rejects_nonpositive_margins(self):
        with pytest.raises(ValueError):
            TightenedLossConfig(0.0, 0.1)


class TestEmpiricalLoss:
    def setup_method(self):
        self.arch = net.Architecture(2, (4,))
        self.theta = net.init_params(self.arch, 0)
        self.cfg = TightenedLossConfig(0.3, 0.2)
        rng = np.random.default_rng(1)
        self.X = rng.normal(size=(3, 2))
        self.Y = rng.normal(size=(3, 2))

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            empirical_loss(self.theta, self.arch, (np.empty((0, 2)), np.empty((0, 2))), self.cfg)

    def test_duplicate_batch_same_mean(self):
        once = empirical_loss(self.theta, self.arch, (self.X, self.Y), self.cfg)
        twice = empirical_loss(self.theta, self.arch,
                               (np.vstack([self.X, self.X]), np.vstack([self.Y, self.Y])),
                               self.cfg)
        assert twice == pytest.approx(once, abs=1e-15)

    def test_zero_parameters_analytic(self):
        theta = np.zeros(self.arch.n_params)
        val = empirical_loss(theta, self.arch, (self.X, self.Y), self.cfg)
        assert val == pytest.approx(self.cfg.eps1 + self.cfg.eps2, abs=1e-15)

    def test_matches_hand_summed_pointwise(self):
        candidate = net.MlpLyapunov(self.theta, self.arch)
        V = candidate.value(self.X)
        lie = np.sum(candidate.gradient(self.X) * self.Y, axis=1)
        v0 = candidate.value(np.zeros((1, 2)))[0]
        hand = np.mean([pointwise_loss(V[i], lie[i], v0, self.cfg) for i in range(3)])
        assert empirical_loss(self.theta, self.arch, (self.X, self.Y), self.cfg) == \
            pytest.approx(hand, abs=1e-14)

    def test_permutation_invariance(self):
        base = empirical_loss(self.theta, self.arch, (self.X, self.Y), self.cfg)
        perm = np.array([2, 0, 1])
        shuffled = empirical_loss(self.theta, self.arch, (self.X[perm], self.Y[perm]), self.cfg)
        assert shuffled == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_random(self, seed):
        rng = np.random.default_rng(seed)
        theta = net.init_params(self.arch, seed)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=(5, 2))
        assert empirical_loss(theta, self.arch, (X, Y), self.cfg) >= 0.0
