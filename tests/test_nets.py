"""Network forward/backward checks, including finite-difference gradients."""

import numpy as np
import pytest

from iesdispatch.nets import Adam, Mlp, clip_grads_, global_grad_norm, orthogonal_init


def finite_difference(loss_fn, params: dict, h: float = 1e-6) -> dict:
    """Central finite differences of loss_fn() with respect to every entry."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss_fn()
            arr[idx] = keep - h
            down = loss_fn()
            arr[idx] = keep
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads[name] = g
    return grads


def assert_grads_close(analytic: dict, numeric: dict, rel: float = 1e-4) -> None:
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = np.max(np.abs(a - n) / denom)
        assert worst <= rel, f"{name}: relative error {worst:.2e}"


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = Mlp(3, 2, hidden=8)
        y, _ = net.forward(np.ones((4, 3)))
        np.testing.assert_array_equal(y, np.zeros((4, 2)))

    def test_near_identity_configuration(self):
        # scale down, pass through the near-linear region of tanh, scale up
        net = Mlp(1, 1, hidden=1)
        eps = 1e-6
        net.w1[...] = eps
        net.w2[...] = 1.0
        net.w3[...] = 1.0 / eps
        x = np.linspace(-1.0, 1.0, 11).reshape(-1, 1)
        y, _ = net.forward(x)
        np.testing.assert_allclose(y, x, atol=1e-9)

    def test_finite_output_for_finite_input(self):
        rng = np.random.default_rng(0)
        net = Mlp(6, 4, hidden=16, rng=rng)
        y, _ = net.forward(rng.standard_normal((32, 6)) * 100.0)
        assert np.all(np.isfinite(y))

    def test_dimension_mismatch(self):
        net = Mlp(3, 2, hidden=8)
        with pytest.raises(ValueError):
            net.forward(np.ones((4, 5)))

    def test_deterministic(self):
        a = Mlp(4, 3, hidden=8, rng=np.random.default_rng(42))
        b = Mlp(4, 3, hidden=8, rng=np.random.default_rng(42))
        x = np.random.default_rng(1).standard_normal((5, 4))
        np.testing.assert_array_equal(a.forward(x)[0], b.forward(x)[0])


class TestForwardRows:
    @pytest.mark.parametrize("in_dim,out_dim", [(4, 8), (12, 8), (4, 1), (12, 1)])
    def test_each_row_equals_a_batch_one_forward(self, in_dim, out_dim):
        rng = np.random.default_rng(0)
        net = Mlp(in_dim, out_dim, rng=rng)
        net.b1[:] = rng.normal(size=net.b1.shape)
        x = rng.uniform(0.0, 1.5, (24, in_dim))
        rows = net.forward_rows(x)
        assert rows.shape == (24, out_dim)
        for i in range(24):
            np.testing.assert_array_equal(rows[i], net.forward(x[i])[0][0])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            Mlp(4, 2, hidden=8).forward_rows(np.zeros((3, 5)))


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = Mlp(4, 3, hidden=6, rng=rng)
        x = rng.standard_normal((7, 4))
        target = rng.standard_normal((7, 3))

        def loss():
            y, _ = net.forward(x)
            return float(np.mean((y - target) ** 2))

        y, cache = net.forward(x)
        dy = 2.0 * (y - target) / y.size
        analytic = net.backward(cache, dy)
        numeric = finite_difference(loss, net.params())
        assert_grads_close(analytic, numeric)


class TestOrthogonalInit:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        assert orthogonal_init(5, 3, 1.0, rng).shape == (5, 3)
        assert orthogonal_init(3, 5, 1.0, rng).shape == (3, 5)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        w = orthogonal_init(8, 4, 1.0, rng)
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-10)


class TestAdam:
    def test_zero_lr_keeps_params(self):
        net = Mlp(2, 2, hidden=4, rng=np.random.default_rng(0))
        before = {k: v.copy() for k, v in net.params().items()}
        opt = Adam(net.params(), lr=0.0)
        opt.step({k: np.ones_like(v) for k, v in net.params().items()})
        for k, v in net.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_minimizes_quadratic(self):
        x = {"x": np.array([5.0, -3.0])}
        opt = Adam(x, lr=0.05)
        for _ in range(2000):
            opt.step({"x": 2.0 * x["x"]})
        np.testing.assert_allclose(x["x"], 0.0, atol=1e-4)

    def test_lr_override_changes_one_group(self):
        params = {"a": np.array([1.0]), "b": np.array([1.0])}
        opt = Adam(params, lr=0.1, lr_overrides={"b": 0.0})
        opt.step({"a": np.array([1.0]), "b": np.array([1.0])})
        assert params["a"][0] != 1.0
        assert params["b"][0] == 1.0


class TestGradClip:
    def test_norm_reduced(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        norm = clip_grads_(grads, 0.5)
        assert norm > 0.5
        assert global_grad_norm(grads) == pytest.approx(0.5, rel=1e-9)

    def test_small_grads_untouched(self):
        grads = {"a": np.array([0.1, 0.1])}
        clip_grads_(grads, 0.5)
        np.testing.assert_array_equal(grads["a"], [0.1, 0.1])
