from dataclasses import dataclass

import numpy as np
import pytest

import mome.numcore as nc
from mome.bpe import GenomicGroups, ModelConfig, MoMEModel
from mome.errors import NumericError, ShapeError, UsageError
from mome.experts import (
    ELU_SATURATION,
    RMSNORM_EPS,
    SnnParams,
    _rmsnorm,
    _rmsnorm_backward,
    snnfusion,
)


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
    """The one RMSNorm, shared by the gate and the SNN expert."""

    def test_zero_row(self):
        out, _, _ = _rmsnorm(np.zeros((1, 4)), np.ones(4))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_scalar_oracle(self):
        # At this scale the eps of 1e-8 is below the mean square's last
        # bit, so the result is the eps-free 3-4-5 oracle.
        out, _, _ = _rmsnorm(np.array([[3e6, 4e6]]), np.ones(2))
        expected = np.array([[3.0, 4.0]]) / np.sqrt(12.5)
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(out, [[0.848528, 1.131371]], atol=1e-6)
        small, _, _ = _rmsnorm(np.array([[3.0, 4.0]]), np.ones(2))
        assert np.allclose(small, np.array([[3.0, 4.0]]) / np.sqrt(12.5 + RMSNORM_EPS),
                           atol=1e-15)

    def test_scale_invariance_at_zero_eps(self):
        # Mean squares near 1e12 absorb the eps, and doubling is exact.
        rng = nc.rng_stream(5)
        x = 1e6 * rng.standard_normal((4, 6))
        a, _, _ = _rmsnorm(x, np.ones(6))
        b, _, _ = _rmsnorm(2.0 * x, np.ones(6))
        assert np.array_equal(a, b)

    def test_unit_rms_property(self):
        rng = nc.rng_stream(6)
        out, _, _ = _rmsnorm(1e6 * rng.standard_normal((5, 8)), np.ones(8))
        rms = np.sqrt(np.mean(out**2, axis=1))
        assert np.max(np.abs(rms - 1.0)) <= 1e-10

    def test_gradient(self):
        rng = nc.rng_stream(7)
        x = rng.standard_normal((3, 4))
        gain = rng.standard_normal(4)
        w = rng.standard_normal((3, 4))
        _, rms, normed = _rmsnorm(x, gain)
        g_x, g_gain = _rmsnorm_backward(w, x, gain, rms, normed)

        def f():
            return float(np.sum(_rmsnorm(x, gain)[0] * w))

        assert rel_err(g_x, numeric_grad(f, x)) <= 1e-6
        assert rel_err(g_gain, numeric_grad(f, gain)) <= 1e-6


def _bias_only_snn(b1, rows=1, rate=0.0):
    """An SNN expert whose weights are zero, so its output is the dropped-out
    ELU of ``b1`` on every row of a ``rows``-row bag plus a reference that is
    exactly zero outside training; a bias-only block isolates the ELU and
    the alpha dropout of the fused op."""
    d = len(b1)
    params = SnnParams.create(d, nc.Init(nc.rng_stream(0)), dropout_rate=rate)
    params.w1.data[:] = 0.0
    params.w2.data[:] = 0.0
    params.b1.data[:] = b1
    return params, nc.Tensor(np.ones((rows, d))), nc.Tensor(np.ones((rows, d)))


class TestActivations:
    """The unit-alpha ELU inside the SNN expert."""

    def test_zero_points(self):
        params, f1, f2 = _bias_only_snn([0.0])
        assert snnfusion(f1, f2, params, rng=None).item() == 0.0

    def test_elu_saturation(self):
        params, f1, f2 = _bias_only_snn([-20.0])
        val = snnfusion(f1, f2, params, rng=None).item()
        assert -1.0 < val <= -0.999999

    @pytest.mark.parametrize("kind", ["elu"])
    def test_gradient(self, kind):
        rng = nc.rng_stream(8)
        params, f1, f2 = _bias_only_snn(rng.standard_normal(5), rows=2)
        nc.reduce_sum(snnfusion(f1, f2, params, rng=None)).backward()
        forward = {"elu": lambda a: np.where(a > 0, a, np.expm1(a))}[kind]

        def f():
            return float(np.sum(2 * forward(params.b1.data)))

        assert rel_err(params.b1.grad, numeric_grad(f, params.b1.data)) <= 1e-6


class TestAlphaDropout:
    """The alpha dropout inside the SNN expert."""

    def test_eval_mode_identity(self):
        """An evaluation forward handed a stream drops nothing and draws
        nothing: the model passes its SNN experts no rng."""
        config = ModelConfig(d=6, d_in=6, group_sizes=(2,) * 6, seed=1, dropout_rate=0.5,
                             enable_mask=(False, False, True, False))
        model = MoMEModel(config)
        data = nc.rng_stream(2)
        bag = data.standard_normal((3, 6))
        groups = GenomicGroups(tuple(data.standard_normal(2) for _ in range(6)))
        rng = nc.rng_stream(0)
        out = model.forward(bag, groups, training=False, rng=rng)
        assert [layer.call_counts[2] for layer in model.layers] == [1] * 4
        for layer in model.layers:
            layer.snn.dropout_rate = 0.0
        assert np.array_equal(out.data, model.forward(bag, groups).data)
        assert rng.random() == nc.rng_stream(0).random()

    def test_zero_rate_identity(self):
        rng = nc.rng_stream(0)
        params, f1, f2 = _bias_only_snn(np.arange(-3.0, 3.0), rows=2)
        out = snnfusion(f1, f2, params, rng=rng)
        assert np.array_equal(out.data, snnfusion(f1, f2, params, None).data)
        assert rng.random() == nc.rng_stream(0).random()

    def test_monte_carlo_moments(self):
        # Block 1's activations are -0.5 in four columns and 2 in the fifth:
        # mean 0 and mean square 1 per row. Block 2's are 0, so over many
        # rows its dropped-out mean, the reference row, is close to 0.
        params, f1, f2 = _bias_only_snn([np.log(0.5)] * 4 + [2.0], rows=100_000,
                                        rate=0.25)
        out = snnfusion(f1, f2, params, rng=nc.rng_stream(99))
        assert abs(out.data.mean()) <= 0.01
        assert abs(out.data.var() - 1.0) <= 0.02

    def test_gradient_masks_dropped_entries(self):
        params, f1, f2 = _bias_only_snn(np.full(16, 0.5), rate=0.5)
        nc.reduce_sum(snnfusion(f1, f2, params, rng=nc.rng_stream(42))).backward()
        keep = nc.rng_stream(42).random((1, 16))[0] >= 0.5
        assert keep.any() and not keep.all()
        q, sat = 0.5, ELU_SATURATION
        scale = 1.0 / np.sqrt(q + sat**2 * 0.5 * q)
        assert np.array_equal(params.b1.grad[~keep], np.zeros((~keep).sum()))
        assert np.allclose(params.b1.grad[keep], scale, rtol=1e-15, atol=0.0)


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
            h = nc.mul(nc.matmul(x, w), gain)
            stacked = nc.concat_rows([h, nc.mul(h, h)])
            return nc.reduce_sum(nc.mul(stacked, nc.matmul(stacked, w)))

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

    def test_backward_releases_the_graph_and_a_second_walk_raises(self):
        x = nc.Tensor([[1.0, 2.0]], requires_grad=True)
        h = nc.mul(x, x)
        loss = nc.reduce_sum(h)
        loss.backward()
        first = x.grad.copy()
        assert h.grad is None and h._parents == () and loss.grad.item() == 1.0
        with pytest.raises(UsageError, match=r"graph already released by backward\(\)"):
            loss.backward()
        with pytest.raises(UsageError, match=r"graph already released by backward\(\)"):
            nc.reduce_sum(nc.mul(h, 2.0)).backward()
        assert np.array_equal(x.grad, first)

    def test_non_finite_forward_raises(self):
        x = nc.Tensor([[1e200]])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="'mul'"):
            nc.mul(x, x)

    def test_determinism_bit_exact(self):
        def run():
            rng = nc.rng_stream(77)
            x = nc.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            w = nc.Tensor(rng.standard_normal((6, 6)), requires_grad=True)
            params = SnnParams.create(6, nc.Init(nc.rng_stream(78)), dropout_rate=0.3)
            out = snnfusion(nc.matmul(x, w), x, params, rng=nc.rng_stream(5))
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
        """Rows 1-3 of the stack carry weight 3, the rest none: each part
        gets back the gradient of its own rows."""
        a = nc.Tensor(np.ones((2, 3)), requires_grad=True)
        b = nc.Tensor(2 * np.ones((3, 3)), requires_grad=True)
        cat = nc.concat_rows([a, b])
        assert np.array_equal(cat.data, np.concatenate([a.data, b.data]))
        weights = np.zeros((5, 3))
        weights[1:4] = 3.0
        nc.reduce_sum(nc.mul(cat, nc.Tensor(weights))).backward()
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
