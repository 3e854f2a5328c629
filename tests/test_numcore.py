from dataclasses import dataclass

import numpy as np
import pytest

import mome.numcore as nc
from mome.errors import ConfigError, NumericError, ShapeError, UsageError


def numeric_grad(loss_fn, arr, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. arr, mutated in place."""
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn()
        flat[i] = orig - h
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def rel_err(analytic, numeric):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestMatmul:
    def test_identity(self):
        a = nc.Tensor(np.eye(2))
        b = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nc.matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        out = nc.matmul(nc.Tensor([[1.0, 2.0], [3.0, 4.0]]), nc.Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))

    def test_gradients_match_finite_differences(self):
        rng = nc.rng_stream(11)
        a = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = nc.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        loss = nc.reduce_sum(nc.matmul(a, b))
        loss.backward()

        def f():
            return float(np.sum(a.data @ b.data))

        assert rel_err(a.grad, numeric_grad(f, a.data)) <= 1e-6
        assert rel_err(b.grad, numeric_grad(f, b.data)) <= 1e-6


class TestRmsnorm:
    def test_zero_row(self):
        x = nc.Tensor(np.zeros((1, 4)))
        out = nc.rmsnorm(x, nc.Tensor(np.ones(4)), eps=0.5)
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_scalar_oracle(self):
        out = nc.rmsnorm(nc.Tensor([[3.0, 4.0]]), nc.Tensor(np.ones(2)), eps=0.0)
        expected = np.array([[3.0, 4.0]]) / np.sqrt(12.5)
        assert np.allclose(out.data, expected, atol=1e-12)
        assert np.allclose(out.data, [[0.848528, 1.131371]], atol=1e-6)

    def test_scale_invariance_at_zero_eps(self):
        rng = nc.rng_stream(5)
        x = rng.standard_normal((4, 6))
        g = nc.Tensor(np.ones(6))
        a = nc.rmsnorm(nc.Tensor(x), g, eps=0.0)
        b = nc.rmsnorm(nc.Tensor(2.0 * x), g, eps=0.0)
        assert np.allclose(a.data, b.data, atol=1e-14)

    def test_unit_rms_property(self):
        rng = nc.rng_stream(6)
        out = nc.rmsnorm(nc.Tensor(rng.standard_normal((5, 8))), nc.Tensor(np.ones(8)), eps=0.0)
        rms = np.sqrt(np.mean(out.data**2, axis=1))
        assert np.max(np.abs(rms - 1.0)) <= 1e-10

    def test_gradient(self):
        rng = nc.rng_stream(7)
        x = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gain = nc.Tensor(rng.standard_normal(4), requires_grad=True)
        w = rng.standard_normal((3, 4))
        nc.reduce_sum(nc.mul(nc.rmsnorm(x, gain, eps=1e-8), nc.Tensor(w))).backward()

        def f():
            rms = np.sqrt(np.mean(x.data**2, axis=1, keepdims=True) + 1e-8)
            return float(np.sum(x.data / rms * gain.data * w))

        assert rel_err(x.grad, numeric_grad(f, x.data)) <= 1e-6
        assert rel_err(gain.grad, numeric_grad(f, gain.data)) <= 1e-6


class TestActivations:
    def test_zero_points(self):
        assert nc.elu(nc.Tensor([[0.0]])).item() == 0.0

    def test_elu_saturation(self):
        val = nc.elu(nc.Tensor([[-20.0]])).item()
        assert -1.0 < val <= -0.999999

    @pytest.mark.parametrize("kind", ["elu"])
    def test_gradient(self, kind):
        rng = nc.rng_stream(8)
        x = nc.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        nc.reduce_sum(getattr(nc, kind)(x)).backward()
        forward = {"elu": lambda a: np.where(a > 0, a, np.expm1(a))}[kind]

        def f():
            return float(np.sum(forward(x.data)))

        assert rel_err(x.grad, numeric_grad(f, x.data)) <= 1e-6


class TestAlphaDropout:
    def test_eval_mode_identity(self):
        x = nc.Tensor(np.arange(6.0).reshape(2, 3))
        out = nc.alpha_dropout(x, 0.5, training=False, rng=nc.rng_stream(0))
        assert out is x

    def test_zero_rate_identity(self):
        x = nc.Tensor(np.arange(6.0).reshape(2, 3))
        assert nc.alpha_dropout(x, 0.0, training=True, rng=nc.rng_stream(0)) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            nc.alpha_dropout(nc.Tensor([[1.0]]), 1.0, training=True, rng=nc.rng_stream(0))

    def test_monte_carlo_moments(self):
        rng = nc.rng_stream(123)
        x = nc.Tensor(rng.standard_normal(1_000_000))
        out = nc.alpha_dropout(x, 0.25, training=True, rng=nc.rng_stream(99))
        assert abs(out.data.mean()) <= 0.01
        assert abs(out.data.var() - 1.0) <= 0.02

    def test_gradient_masks_dropped_entries(self):
        rng = nc.rng_stream(9)
        x = nc.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        out = nc.alpha_dropout(x, 0.5, training=True, rng=nc.rng_stream(42))
        nc.reduce_sum(out).backward()

        def f():
            r = nc.rng_stream(42)
            keep = r.random(x.data.shape) >= 0.5
            q, sat = 0.5, nc.ELU_SATURATION
            a = 1.0 / np.sqrt(q + sat**2 * 0.5 * q)
            return float(np.sum(a * np.where(keep, x.data, sat) + (-a * 0.5 * sat)))

        assert rel_err(x.grad, numeric_grad(f, x.data)) <= 1e-6


class TestBackward:
    def test_elementwise_square(self):
        x = nc.Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
        nc.reduce_sum(nc.mul(x, x)).backward()
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_loss_gradient_is_one(self):
        x = nc.Tensor([[2.0]], requires_grad=True)
        loss = nc.reduce_sum(x)
        loss.backward()
        assert loss.grad.item() == 1.0

    def test_non_scalar_loss_rejected(self):
        x = nc.Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(UsageError):
            nc.mul(x, x).backward()

    def test_untracked_leaves_untouched(self):
        x = nc.Tensor([[1.0, 2.0]], requires_grad=True)
        c = nc.Tensor([[3.0, 4.0]])
        nc.reduce_sum(nc.mul(x, c)).backward()
        assert c.grad is None
        assert np.array_equal(x.grad, c.data)

    def test_composite_chain_matches_finite_differences(self):
        rng = nc.rng_stream(10)
        x = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = nc.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        gain = nc.Tensor(np.ones(4), requires_grad=True)

        def build():
            h = nc.elu(nc.rmsnorm(nc.matmul(x, w), gain, eps=1e-8))
            return nc.reduce_sum(nc.mul(nc.mean_rows(nc.mul(h, h)), nc.slice_rows(h, 1, 2)))

        build().backward()
        got = {id(t): t.grad.copy() for t in (x, w, gain)}
        for t in (x, w, gain):
            num = numeric_grad(lambda: build().item(), t.data)
            assert rel_err(got[id(t)], num) <= 1e-4

    def test_first_gradient_is_a_private_copy(self):
        """``add`` hands one array to both parents; a later gradient into
        one of them must not reach the other."""
        a = nc.Tensor([[1.0, 2.0]], requires_grad=True)
        b = nc.Tensor([[3.0, 4.0]], requires_grad=True)
        early = nc.reduce_sum(nc.mul(a, nc.Tensor([[5.0, 6.0]])))
        late = nc.reduce_sum(nc.mul(nc.add(a, b), nc.Tensor([[7.0, 8.0]])))
        nc.add(early, late).backward()
        assert np.array_equal(a.grad, [[12.0, 14.0]])
        assert np.array_equal(b.grad, [[7.0, 8.0]])

    def test_non_finite_forward_raises(self):
        x = nc.Tensor([[1e200]])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="'mul'"):
            nc.mul(x, x)

    def test_determinism_bit_exact(self):
        def run():
            rng = nc.rng_stream(77)
            x = nc.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            w = nc.Tensor(rng.standard_normal((6, 6)), requires_grad=True)
            out = nc.alpha_dropout(
                nc.elu(nc.matmul(x, w)), 0.3, training=True, rng=nc.rng_stream(5)
            )
            loss = nc.reduce_sum(out)
            loss.backward()
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


@dataclass
class _Inner(nc.ParameterSet):
    w: nc.Tensor


@dataclass
class _Outer(nc.ParameterSet):
    a: nc.Tensor
    count: int
    missing: nc.Tensor | None
    inner: _Inner
    b: nc.Tensor


class TestParameterSet:
    def test_lists_tensors_and_nested_sets_in_field_order(self):
        a, w, b = (nc.Tensor(np.zeros(2), requires_grad=True) for _ in range(3))
        named = _Outer(a=a, count=3, missing=None, inner=_Inner(w), b=b).parameters("p")
        assert [name for name, _ in named] == ["p.a", "p.inner.w", "p.b"]
        assert [t for _, t in named] == [a, w, b]


def _step(optimizer, *grads):
    """Set each parameter's gradient, then take one optimizer step."""
    for p, g in zip(optimizer.params, grads):
        p.grad = g
    optimizer.step()


class TestAdam:
    def test_zero_grad_zero_decay_is_noop(self):
        p = nc.Tensor([[1.0, -2.0]], requires_grad=True)
        before = p.data.copy()
        optimizer = nc.Adam([p], lr=2e-4, weight_decay=0.0)
        _step(optimizer, np.zeros_like(p.data))
        assert np.array_equal(p.data, before)
        assert optimizer.t == 1

    def test_first_step_bias_correction(self):
        p = nc.Tensor([[0.0]], requires_grad=True)
        _step(nc.Adam([p], lr=2e-4, weight_decay=0.0), np.ones((1, 1)))
        expected = -2e-4 * (1.0 / (1.0 + 1e-8))
        assert abs(p.data[0, 0] - expected) < 1e-18

    def test_two_steps_match_scalar_rederivation(self):
        p = nc.Tensor([[0.5]], requires_grad=True)
        optimizer = nc.Adam([p], lr=1e-2, weight_decay=0.0)
        grads = [0.3, -0.7]

        theta, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            theta -= 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)

        for g in grads:
            _step(optimizer, np.full((1, 1), g))
        assert optimizer.t == 2
        assert abs(p.data[0, 0] - theta) < 1e-15

    def test_coupled_decay_moves_zero_grad_param(self):
        p = nc.Tensor([[1.0]], requires_grad=True)
        _step(nc.Adam([p], lr=1e-2, weight_decay=0.1), np.zeros((1, 1)))
        assert p.data[0, 0] < 1.0

    def test_non_finite_update_raises_before_the_write(self):
        """A gradient near 1e308 overflows both moments, so the update is
        inf/inf; it must not reach the parameter."""
        fine = nc.Tensor([[1.0]], requires_grad=True)
        huge = nc.Tensor([[1.0, 2.0]], requires_grad=True)
        before = huge.data.copy()
        optimizer = nc.Adam([fine, huge], lr=10.0, weight_decay=0.0)
        raises = pytest.raises(NumericError, match="'adam_step' for parameter 1")
        with raises, np.errstate(over="ignore", invalid="ignore"):
            _step(optimizer, np.ones((1, 1)), np.full((1, 2), 1e308))
        assert np.array_equal(huge.data, before)

    def test_none_grad_skipped(self):
        p = nc.Tensor([[1.0]], requires_grad=True)
        before = p.data.copy()
        _step(nc.Adam([p], lr=1e-2, weight_decay=0.5), None)
        assert np.array_equal(p.data, before)


class TestStructuralOps:
    def test_concat_slice_roundtrip_and_grads(self):
        a = nc.Tensor(np.ones((2, 3)), requires_grad=True)
        b = nc.Tensor(2 * np.ones((3, 3)), requires_grad=True)
        cat = nc.concat_rows([a, b])
        nc.reduce_sum(nc.mul(nc.slice_rows(cat, 1, 4), nc.Tensor(np.full((3, 3), 3.0)))).backward()
        assert np.array_equal(a.grad, [[0, 0, 0], [3, 3, 3]])
        assert np.array_equal(b.grad, [[3, 3, 3], [3, 3, 3], [0, 0, 0]])

    def test_broadcast_add_grad(self):
        a = nc.Tensor(np.zeros((4, 3)), requires_grad=True)
        b = nc.Tensor(np.zeros((1, 3)), requires_grad=True)
        nc.reduce_sum(nc.add(a, b)).backward()
        assert np.array_equal(b.grad, [[4.0, 4.0, 4.0]])

    def test_no_grad_suppresses_graph(self):
        x = nc.Tensor([[1.0]], requires_grad=True)
        with nc.no_grad():
            y = nc.mul(x, x)
        assert not y.requires_grad
