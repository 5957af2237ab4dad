"""Network forward/backward checks, including finite-difference gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iesdispatch.nets import Adam, Mlp, Params, clip_grads_, orthogonal_init


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


def summand_magnitudes(net: Mlp, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, dict]:
    """The output and the gradients of ``net`` with every factor at its
    magnitude and every tanh unit and derivative at its bound 1: the size
    of the sums each entry is made of, to which its rounding error is
    relative."""
    a = {name: np.abs(p) for name, p in net.params().items()}
    x, dy = np.abs(x), np.abs(dy)
    h = np.ones((len(x), net.hidden))
    d2 = dy @ a["w3"].T
    d1 = d2 @ a["w2"].T
    grads = {"w1": x.T @ d1, "b1": d1.sum(axis=0), "w2": h.T @ d2, "b2": d2.sum(axis=0), "w3": h.T @ dy, "b3": dy.sum(axis=0)}
    return h @ a["w3"] + a["b3"], grads


def assert_close_in_scale(actual: np.ndarray, expected: np.ndarray, scale: np.ndarray, rel: float) -> None:
    worst = np.max(np.abs(actual - expected) / np.maximum(scale, np.finfo(float).tiny))
    assert worst <= rel, f"relative error {worst:.2e}"


class TestFloat32:
    @settings(max_examples=60, deadline=None)
    @given(
        in_dim=st.integers(1, 12),
        out_dim=st.integers(1, 9),
        hidden=st.integers(1, 130),
        rows=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_float64_on_the_same_parameters(self, in_dim, out_dim, hidden, rows, seed):
        """Forward and backward of a float32 network match a float64 one
        holding the same (float32) parameters, inputs and output gradient."""
        rng = np.random.default_rng(seed)
        single = Mlp(in_dim, out_dim, hidden, rng, out_gain=1.0, dtype=np.float32)
        single.vector += rng.standard_normal(single.vector.size).astype(np.float32) * np.float32(0.1)
        double = Mlp(in_dim, out_dim, hidden)
        double.vector[...] = single.vector
        x = rng.standard_normal((rows, in_dim)).astype(np.float32).astype(float) * 3.0
        dy = rng.standard_normal((rows, out_dim)).astype(np.float32).astype(float)

        y32, cache32 = single.forward(x)
        y64, cache64 = double.forward(x)
        y_scale, grad_scales = summand_magnitudes(double, x, dy)
        assert y32.dtype == np.float32 and y64.dtype == np.float64
        assert_close_in_scale(y32, y64, y_scale, 1e-4)
        g32, g64 = single.backward(cache32, dy), double.backward(cache64, dy)
        assert g32.vector.dtype == np.float32
        for name in g64:
            assert_close_in_scale(g32[name], g64[name], grad_scales[name], 1e-4)

    def test_adam_and_clip_keep_the_vector_dtype(self):
        net = Mlp(4, 3, hidden=6, rng=np.random.default_rng(0), dtype=np.float32)
        opt = Adam(net.vector, np.full_like(net.vector, 1e-3))
        grad = np.ones_like(net.vector)
        clip_grads_(grad, 0.5)
        opt.step(grad)
        for array in (grad, net.vector, opt.m, opt.v, *opt._scratch):
            assert array.dtype == np.float32


class TestOrthogonalInit:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        assert orthogonal_init(5, 3, 1.0, rng).shape == (5, 3)
        assert orthogonal_init(3, 5, 1.0, rng).shape == (3, 5)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        w = orthogonal_init(8, 4, 1.0, rng)
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-10)


class TestFlatParameters:
    def test_params_tile_the_vector_in_order(self):
        net = Mlp(4, 3, hidden=6, rng=np.random.default_rng(0), tail={"extra": (2, 2)})
        params = net.params()
        assert list(params) == ["w1", "b1", "w2", "b2", "w3", "b3", "extra"]
        assert params.vector is net.vector
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params.values()]), net.vector)
        for name, arr in params.items():
            assert np.shares_memory(arr, net.vector), name
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.shares_memory(getattr(net, name), net.vector), name

    def test_initial_weights_equal_separate_draws(self):
        net = Mlp(4, 3, hidden=6, rng=np.random.default_rng(7), out_gain=0.5)
        rng = np.random.default_rng(7)
        np.testing.assert_array_equal(net.w1, orthogonal_init(4, 6, np.sqrt(2.0), rng))
        np.testing.assert_array_equal(net.w2, orthogonal_init(6, 6, np.sqrt(2.0), rng))
        np.testing.assert_array_equal(net.w3, orthogonal_init(6, 3, 0.5, rng))
        assert not net.b1.any() and not net.b2.any() and not net.b3.any()

    def test_backward_gradients_do_not_alias(self):
        """A later backward on the same network leaves earlier gradients alone."""
        rng = np.random.default_rng(1)
        net = Mlp(4, 3, hidden=6, rng=rng)
        _, cache = net.forward(rng.standard_normal((5, 4)))
        first = net.backward(cache, rng.standard_normal((5, 3)))
        kept = first.vector.copy()
        second = net.backward(cache, rng.standard_normal((5, 3)))
        np.testing.assert_array_equal(first.vector, kept)
        assert not np.shares_memory(first.vector, second.vector)
        assert not np.shares_memory(first.vector, net.vector)
        for name, grad in first.items():
            assert np.shares_memory(grad, first.vector), name


def reference_adam(params, grads_per_step, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one tensor at a time, each tensor with its own rate."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for name, p in params.items():
            g = grads[name]
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g
            v[name] *= beta2
            v[name] += (1.0 - beta2) * g * g
            p -= lrs[name] * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


class TestAdam:
    def test_zero_lr_keeps_params(self):
        net = Mlp(2, 2, hidden=4, rng=np.random.default_rng(0))
        before = net.vector.copy()
        opt = Adam(net.vector, lr=0.0)
        opt.step(np.ones_like(net.vector))
        np.testing.assert_array_equal(net.vector, before)

    def test_minimizes_quadratic(self):
        x = np.array([5.0, -3.0])
        opt = Adam(x, lr=0.05)
        for _ in range(2000):
            opt.step(2.0 * x)
        np.testing.assert_allclose(x, 0.0, atol=1e-4)

    def test_per_entry_rate_with_a_zero(self):
        x = np.array([1.0, 1.0, 1.0])
        opt = Adam(x, lr=np.array([0.1, 0.0, 0.2]))
        opt.step(np.ones(3))
        assert x[0] != 1.0
        assert x[1] == 1.0
        assert x[2] != 1.0 and x[2] != x[0]

    def test_equals_the_per_tensor_step_bit_for_bit(self):
        """100 steps on an actor-sized vector, its log-std entries at 8x the
        rate, against Adam written one tensor at a time."""
        rng = np.random.default_rng(3)
        net = Mlp(4, 8, hidden=16, rng=rng, tail={"log_std": (8,)})
        reference = {k: v.copy() for k, v in net.params().items()}
        lr = np.full_like(net.vector, 3e-4)
        Params(lr, net.shapes)["log_std"][...] = 8.0 * 3e-4
        lrs = {k: (8.0 if k == "log_std" else 1.0) * 3e-4 for k in reference}
        steps = [{k: rng.standard_normal(v.shape) * 10.0 ** rng.uniform(-6, 1) for k, v in reference.items()}
                 for _ in range(100)]
        opt = Adam(net.vector, lr)
        for grads in steps:
            opt.step(np.concatenate([g.ravel() for g in grads.values()]))
        reference_adam(reference, steps, lrs)
        for name, value in net.params().items():
            assert np.array_equal(value, reference[name]), name

    def test_step_allocates_no_parameter_sized_array(self):
        x = np.zeros(50_000)
        opt = Adam(x, lr=1e-3)
        grad = np.ones_like(x)
        opt.step(grad)
        tracemalloc.start()
        opt.step(grad)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < x.nbytes // 10


class TestGradClip:
    def test_norm_reduced(self):
        grad = np.concatenate([np.full(4, 3.0), np.full(9, 4.0)])
        norm = clip_grads_(grad, 0.5)
        assert norm == pytest.approx(np.sqrt(4 * 9.0 + 9 * 16.0), rel=1e-12)
        assert np.linalg.norm(grad) == pytest.approx(0.5, rel=1e-9)

    def test_small_grads_untouched(self):
        grad = np.array([0.1, 0.1])
        assert clip_grads_(grad, 0.5) == pytest.approx(np.sqrt(0.02), rel=1e-12)
        np.testing.assert_array_equal(grad, [0.1, 0.1])

    def test_zero_gradient(self):
        grad = np.zeros(3)
        assert clip_grads_(grad, 0.0) == 0.0
        np.testing.assert_array_equal(grad, 0.0)
