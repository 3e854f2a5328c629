import numpy as np
import pytest
from scipy import special

import mome.numcore as nc
from mome.attention import AttentionParams, self_attention
from mome.bpe import GenomicGroups, ModelConfig, MoMEModel
from mome.data import ManifestRow
from mome.errors import ConfigError, DataError
from mome.experts import (
    ELU_SATURATION,
    RMSNORM_EPS,
    ExpertId,
    GateParams,
    MoMELayer,
    SnnParams,
    bottleneck_transfusion,
    dropf2fusion,
    gate,
    mome_forward,
    snnfusion,
    transfusion,
)
from mome.survival import SurvivalTarget
from mome.training import CohortData, evaluate, format_routing_record
from test_attention import kernel_query_rows, rows_of


ALL_EXPERTS = (True, True, True, True)


def make_layer(d=8, seed=0, n_b=2, enable_mask=ALL_EXPERTS, dropout_rate=0.25):
    return MoMELayer.create(
        d, nc.Init(nc.rng_stream(seed)), n_bottleneck=n_b, head_count=1, enable_mask=enable_mask,
        dropout_rate=dropout_rate,
    )


def random_bags(d=8, n1=4, n2=3, seed=1):
    rng = nc.rng_stream(seed)
    return nc.Tensor(rng.standard_normal((n1, d))), nc.Tensor(rng.standard_normal((n2, d)))


def reference_gate(f1, f2, params, enable_mask):
    """The gate in plain numpy: logits, chosen slot and its probability."""

    def pooled(f, proj, gain):
        h = f.data @ proj.data
        r = h / np.sqrt(np.mean(h * h, axis=1, keepdims=True) + 1e-8) * gain.data
        return (r * special.ndtr(r)).sum(axis=0, keepdims=True) / f.shape[0]

    w = params.w.data
    logits = pooled(f1, params.w1, params.gain1) @ w + pooled(f2, params.w2, params.gain2) @ w
    enabled = [i for i, on in enumerate(enable_mask) if on]
    chosen = enabled[int(np.argmax(logits[0, enabled]))]
    e = np.exp(logits[0, enabled] - logits[0, enabled].max())
    return logits, chosen, (e / e.sum())[enabled.index(chosen)]


MASKS = [(True, True, True, True), (True, False, True, False), (False, True, False, False),
         (False, True, True, True)]


class TestGate:
    @pytest.mark.parametrize("mask", MASKS)
    def test_matches_numpy_reference_bit_for_bit(self, mask):
        for seed in range(5):
            f1, f2 = random_bags(n1=5 + seed, n2=6, seed=100 + seed)
            params = GateParams.create(8, nc.Init(nc.rng_stream(200 + seed)))
            decision = gate(f1, f2, params, mask)
            logits, chosen, probability = reference_gate(f1, f2, params, mask)
            assert np.array_equal(decision.logits.data, logits)
            assert decision.expert == chosen
            assert decision.probability.shape == (1, 1)
            assert decision.probability.item() == probability

    def test_tie_breaks_to_lowest_enabled_slot_like_the_reference(self):
        f1, f2 = random_bags(seed=4)
        params = GateParams.create(8, nc.Init(nc.rng_stream(5)))
        params.w.data[:, 2] = 0.0
        if gate(f1, f2, params, ALL_EXPERTS).logits.data[0, 1] < 0.0:
            params.w.data[:, 1] *= -1.0
        params.w.data[:, 3] = params.w.data[:, 1]
        mask = (False, True, True, True)
        decision = gate(f1, f2, params, mask)
        logits, chosen, probability = reference_gate(f1, f2, params, mask)
        assert decision.logits.data[0, 1] == decision.logits.data[0, 3] > 0.0
        assert np.array_equal(decision.logits.data, logits)
        assert decision.expert == chosen == ExpertId.BOTTLENECK_TRANSFUSION
        assert decision.probability.item() == probability

    def test_equal_logits_give_uniform_probability(self):
        f1, f2 = random_bags(seed=2)
        params = GateParams.create(8, nc.Init(nc.rng_stream(3)))
        params.w.data[:] = 0.0
        decision = gate(f1, f2, params, enable_mask=(True, False, True, True))
        assert decision.probability.item() == 1.0 / 3.0

    def test_zero_weights_tie_breaks_to_transfusion(self):
        f1, f2 = random_bags(seed=2)
        params = GateParams.create(8, nc.Init(nc.rng_stream(3)))
        for t in (params.w1, params.w2, params.w):
            t.data[:] = 0.0
        decision = gate(f1, f2, params, ALL_EXPERTS)
        assert np.array_equal(decision.logits.data, np.zeros((1, 4)))
        assert decision.expert == ExpertId.TRANSFUSION

    def test_forced_routing_ignores_logits(self):
        f1, f2 = random_bags(seed=6)
        params = GateParams.create(8, nc.Init(nc.rng_stream(7)))
        decision = gate(f1, f2, params, enable_mask=(False, False, True, False))
        assert decision.expert == ExpertId.SNNFUSION
        assert decision.probability.item() == 1.0

    def test_all_disabled_rejected(self):
        f1, f2 = random_bags(seed=8)
        params = GateParams.create(8, nc.Init(nc.rng_stream(9)))
        with pytest.raises(ConfigError):
            gate(f1, f2, params, enable_mask=(False, False, False, False))

    def test_constant_logit_shift_preserves_choice(self):
        f1, f2 = random_bags(seed=10)
        params = GateParams.create(8, nc.Init(nc.rng_stream(11)))
        base = gate(f1, f2, params, ALL_EXPERTS)
        shifted = np.where([True] * 4, base.logits.data[0] + 5.0, -np.inf)
        assert int(np.argmax(shifted)) == base.expert

    def test_empty_bag_rejected(self):
        params = GateParams.create(4, nc.Init(nc.rng_stream(12)))
        with pytest.raises(DataError):
            gate(nc.Tensor(np.zeros((0, 4))), nc.Tensor(np.ones((2, 4))), params, ALL_EXPERTS)


class TestTransfusion:
    def test_output_shape(self):
        f1, f2 = random_bags(d=8, n1=2, n2=3, seed=13)
        out = transfusion(f1, f2, AttentionParams.create(8, nc.Init(nc.rng_stream(14))))
        assert out.shape == (2, 8)

    def test_zero_query_averages_all_tokens(self):
        f1, f2 = random_bags(d=6, n1=3, n2=4, seed=15)
        params = AttentionParams.create(6, nc.Init(nc.rng_stream(16)))
        params.query.data[:] = 0.0
        out = transfusion(f1, f2, params)
        stacked = np.concatenate([f1.data, f2.data], axis=0)
        expected = np.tile((stacked @ params.value.data).mean(axis=0), (3, 1))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_matches_composed_oracle(self):
        """Full self-attention over [f1; f2], sliced to the f1 rows, agrees to
        roundoff; transfusion itself runs only the 5 f1 query rows."""
        f1, f2 = random_bags(d=8, n1=5, n2=3, seed=17)
        f1.requires_grad = f2.requires_grad = True
        params = AttentionParams.create(8, nc.Init(nc.rng_stream(18)))
        named = [("f1", f1), ("f2", f2)] + params.parameters("attention")
        weights = nc.Tensor(nc.rng_stream(19).standard_normal((5, 8)))

        def outputs(build):
            for _, t in named:
                t.grad = None
            out = build()
            nc.reduce_sum(nc.mul(out, weights)).backward()
            return [("output", out.data)] + [(name, t.grad) for name, t in named]

        with kernel_query_rows() as queries:
            fused = outputs(lambda: transfusion(f1, f2, params))
        assert queries == [5]
        oracle = outputs(
            lambda: rows_of(self_attention([nc.concat_rows([f1, f2])], params), 0, 5))
        for (name, a), (_, b) in zip(fused, oracle):
            assert np.max(np.abs(a - b)) <= 1e-12, name


class TestBottleneckTransfusion:
    def test_shape_contract(self):
        f1, f2 = random_bags(d=8, n1=5, n2=7, seed=19)
        layer = make_layer(d=8, seed=20, n_b=2)
        out = bottleneck_transfusion(f1, f2, layer.bottleneck, layer.btf_inner, layer.btf_outer)
        assert out.shape == (5, 8)

    def test_zero_inner_value_makes_output_independent_of_f2(self):
        layer = make_layer(d=6, seed=21, n_b=3)
        layer.btf_inner.value.data[:] = 0.0
        rng = nc.rng_stream(22)
        f1 = nc.Tensor(rng.standard_normal((4, 6)))
        f2a = nc.Tensor(rng.standard_normal((5, 6)))
        f2b = nc.Tensor(rng.standard_normal((8, 6)))
        out_a = bottleneck_transfusion(f1, f2a, layer.bottleneck, layer.btf_inner, layer.btf_outer)
        out_b = bottleneck_transfusion(f1, f2b, layer.bottleneck, layer.btf_inner, layer.btf_outer)
        assert np.allclose(out_a.data, out_b.data, atol=1e-14)

    def test_f2_perturbation_flows_only_through_bottleneck(self):
        layer = make_layer(d=6, seed=23, n_b=2)
        rng = nc.rng_stream(24)
        f1 = nc.Tensor(rng.standard_normal((4, 6)))
        f2 = nc.Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        out = bottleneck_transfusion(f1, f2, layer.bottleneck, layer.btf_inner, layer.btf_outer)
        nc.reduce_sum(out).backward()
        assert f2.grad is not None and np.any(f2.grad != 0.0)


def dropout_free_block(x, w, b, gain):
    """One SNN block without dropout, in plain numpy: RMSNorm, affine, ELU."""
    rms = np.sqrt(np.mean(x.data * x.data, axis=1, keepdims=True) + 1e-8)
    pre = (x.data / rms * gain.data) @ w.data + b.data
    return np.where(pre > 0, pre, np.expm1(pre))


def composed_snnfusion(f1, f2, params, rng):
    """The SNN expert as one graph node per step (RMSNorm, affine, ELU,
    alpha dropout, row mean, broadcast add), each with its own backward:
    the reference the fused op must match bit for bit."""
    rate = params.dropout_rate

    def rmsnorm(x, gain):
        rms = np.sqrt(np.mean(x.data * x.data, axis=1, keepdims=True) + RMSNORM_EPS)
        normed = x.data / rms

        def backward(g):
            gy = g * gain.data
            if x.requires_grad:
                dot = np.sum(gy * x.data, axis=1, keepdims=True)
                nc.accumulate_grad(x, gy / rms - x.data * dot / (x.shape[1] * rms**3))
            if gain.requires_grad:
                nc.accumulate_grad(gain, np.sum(g * normed, axis=0))

        return nc.graph_op(normed * gain.data, (x, gain), backward, "rmsnorm")

    def elu(x):
        def backward(g):
            nc.accumulate_grad(x, g * np.where(x.data > 0, 1.0, np.exp(x.data)))

        return nc.graph_op(np.where(x.data > 0, x.data, np.expm1(x.data)), (x,), backward, "elu")

    def alpha_dropout(x):
        if rng is None or rate == 0.0:
            return x
        keep = rng.random(x.shape) >= rate
        q = 1.0 - rate
        scale = 1.0 / np.sqrt(q + ELU_SATURATION**2 * rate * q)
        shift = -scale * rate * ELU_SATURATION

        def backward(g):
            nc.accumulate_grad(x, g * scale * keep)

        out = scale * np.where(keep, x.data, ELU_SATURATION) + shift
        return nc.graph_op(out, (x,), backward, "alpha_dropout")

    def mean_rows(x):
        n = x.shape[0]

        def backward(g):
            nc.accumulate_grad(x, np.broadcast_to(g / n, x.shape))

        return nc.graph_op(x.data.sum(axis=0, keepdims=True) / n, (x,), backward, "mean_rows")

    def block(x, w, b, gain):
        return alpha_dropout(elu(nc.add(nc.matmul(rmsnorm(x, gain), w), b)))

    own = block(f1, params.w1, params.b1, params.gain1)
    return nc.add(own, mean_rows(block(f2, params.w2, params.b2, params.gain2)))


class TestSnnFusion:
    def test_zero_reference_contributes_nothing(self):
        params = SnnParams.create(6, nc.Init(nc.rng_stream(25)), dropout_rate=0.25)
        rng = nc.rng_stream(26)
        f1 = nc.Tensor(rng.standard_normal((4, 6)))
        f2 = nc.Tensor(np.zeros((3, 6)))
        out = snnfusion(f1, f2, params, rng=None)
        own_only = dropout_free_block(f1, params.w1, params.b1, params.gain1)
        assert np.array_equal(out.data, own_only)

    def test_reference_is_a_single_broadcast_row(self):
        params = SnnParams.create(8, nc.Init(nc.rng_stream(27)), dropout_rate=0.25)
        f1, f2 = random_bags(d=8, n1=4, n2=6, seed=28)
        out = snnfusion(f1, f2, params, rng=None)
        assert out.shape == (4, 8)
        own = dropout_free_block(f1, params.w1, params.b1, params.gain1)
        diff = out.data - own
        assert np.max(np.abs(diff - diff[0])) <= 1e-14

    def test_eval_matches_dropout_free_reimplementation(self):
        params = SnnParams.create(8, nc.Init(nc.rng_stream(29)), dropout_rate=0.25)
        f1, f2 = random_bags(d=8, n1=5, n2=3, seed=30)
        out = snnfusion(f1, f2, params, rng=None)
        expected = dropout_free_block(f1, params.w1, params.b1, params.gain1) + \
            dropout_free_block(f2, params.w2, params.b2, params.gain2).mean(axis=0)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    @pytest.mark.parametrize("n1, n2, d, rate, training", [
        (1, 4, 5, 0.25, True), (4, 1, 5, 0.5, True), (1, 1, 8, 0.25, True),
        (6, 3, 1, 0.5, True), (3, 5, 4, 0.0, True), (1, 3, 6, 0.25, False),
        (5, 1, 3, 0.5, False), (7, 7, 8, 0.25, False),
    ])
    def test_matches_composed_graph_bit_for_bit(self, n1, n2, d, rate, training):
        """One ``snnfusion`` node over the bags and the six parameters; its
        output and all eight gradients equal those of the composed graph."""
        rng = nc.rng_stream(100 * n1 + 10 * n2 + d)
        params = SnnParams.create(d, nc.Init(rng), dropout_rate=rate)
        for t in (params.b1, params.b2, params.gain1, params.gain2):
            t.data[:] = rng.standard_normal(t.shape)
        f1 = nc.Tensor(rng.standard_normal((n1, d)), requires_grad=True)
        f2 = nc.Tensor(rng.standard_normal((n2, d)), requires_grad=True)
        weights = nc.Tensor(rng.standard_normal((n1, d)))
        named = [("f1", f1), ("f2", f2)] + params.parameters("snn")

        def run(expert):
            for _, t in named:
                t.grad = None
            out = expert(f1, f2, params, nc.rng_stream(7) if training else None)
            parents = list(out._parents)  # backward releases them
            nc.reduce_sum(nc.mul(out, weights)).backward()
            return out, parents, [out.data] + [t.grad for _, t in named]

        fused, fused_parents, got = run(snnfusion)
        _, _, expected = run(composed_snnfusion)
        assert fused._op == "snnfusion"
        assert fused_parents == [f1, f2, params.w1, params.b1, params.w2, params.b2,
                                 params.gain1, params.gain2]
        for (name, _), a, b in zip([("output", None)] + named, got, expected):
            assert np.array_equal(a, b), name


class TestDropF2Fusion:
    def test_identity_on_f1(self):
        f1, f2 = random_bags(seed=31)
        assert dropf2fusion(f1, f2) is f1

    def test_zero_gradient_on_f2(self):
        rng = nc.rng_stream(32)
        f1 = nc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        f2 = nc.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        nc.reduce_sum(dropf2fusion(f1, f2)).backward()
        assert f2.grad is None
        assert np.array_equal(f1.grad, np.ones((3, 4)))

    def test_idempotent(self):
        f1, f2 = random_bags(seed=33)
        once = dropf2fusion(f1, f2)
        assert dropf2fusion(once, f2) is once


class TestMoMEForward:
    def test_forced_dropf2_returns_f1_exactly(self):
        layer = make_layer(seed=34, enable_mask=(False, False, False, True))
        f1, f2 = random_bags(seed=35)
        routes = []
        out = mome_forward(f1, f2, layer, routes=routes)
        assert np.array_equal(out.data, f1.data)
        assert routes[0].expert == ExpertId.DROPF2FUSION
        # One call appends one decision; the caller's list position is its layer.
        assert [(i, d.expert) for i, d in enumerate(routes)] == [(0, ExpertId.DROPF2FUSION)]

    def test_exactly_one_expert_executes(self):
        layer = make_layer(seed=36)
        f1, f2 = random_bags(seed=37)
        before = list(layer.call_counts)
        mome_forward(f1, f2, layer)
        increments = [after - b for after, b in zip(layer.call_counts, before)]
        assert sum(increments) == 1 and max(increments) == 1

    def test_gate_gets_gradient_through_probability_scaling(self):
        layer = make_layer(seed=38)
        f1, f2 = random_bags(seed=39)
        nc.reduce_sum(mome_forward(f1, f2, layer)).backward()
        assert layer.gate.w.grad is not None
        assert np.any(layer.gate.w.grad != 0.0)

    def test_eval_forward_draws_no_random_stream(self, monkeypatch):
        layer = make_layer(seed=48, enable_mask=(False, False, True, False))
        f1, f2 = random_bags(seed=49)

        def no_stream(seed):
            raise AssertionError("evaluation built a random stream")

        monkeypatch.setattr(nc, "rng_stream", no_stream)
        out = mome_forward(f1, f2, layer)
        assert layer.call_counts[ExpertId.SNNFUSION] == 1 and out.shape == f1.shape

    @pytest.mark.parametrize("mask", [(True, False, False, False), (False, False, True, False)],
                             ids=["tf", "snn"])
    def test_training_without_a_stream_rejected_whatever_the_route(self, mask):
        """The model's forward owns the check, before any layer runs."""
        config = ModelConfig(d=8, d_in=8, group_sizes=(2,) * 6, seed=50, enable_mask=mask)
        model = MoMEModel(config)
        rng = nc.rng_stream(51)
        groups = GenomicGroups(tuple(rng.standard_normal(2) for _ in range(6)))
        with pytest.raises(ConfigError, match="rng"):
            model.forward(rng.standard_normal((4, 8)), groups, training=True, rng=None)
        assert [layer.call_counts for layer in model.layers] == [[0, 0, 0, 0]] * 4

    def test_gate_weight_gradient_matches_finite_differences(self):
        layer = make_layer(d=6, seed=42, dropout_rate=0.0)
        rng = nc.rng_stream(43)
        f1d = rng.standard_normal((3, 6))
        f2d = rng.standard_normal((2, 6))

        def loss_value():
            out = mome_forward(nc.Tensor(f1d), nc.Tensor(f2d), layer, rng=nc.rng_stream(7))
            return nc.reduce_sum(nc.mul(out, out))

        loss_value().backward()
        analytic = layer.gate.w.grad.copy()
        h = 1e-5
        numeric = np.zeros_like(analytic)
        flat_param = layer.gate.w.data.reshape(-1)
        flat_num = numeric.reshape(-1)
        for i in range(flat_param.size):
            orig = flat_param[i]
            flat_param[i] = orig + h
            hi = loss_value().item()
            flat_param[i] = orig - h
            lo = loss_value().item()
            flat_param[i] = orig
            flat_num[i] = (hi - lo) / (2 * h)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4

    def test_expert_shape_preservation(self):
        layer = make_layer(d=8, seed=44)
        for n1, n2 in [(1, 1), (4, 6), (7, 2)]:
            f1, f2 = random_bags(d=8, n1=n1, n2=n2, seed=45 + n1)
            for mask in [(True, False, False, False), (False, True, False, False),
                         (False, False, True, False), (False, False, False, True)]:
                forced = make_layer(d=8, seed=44, enable_mask=mask)
                out = mome_forward(f1, f2, forced)
                assert out.shape == (n1, 8)

    def test_routing_record_format(self):
        """Records are stamped by ``evaluate``, which knows the sample: one
        per (sample, layer), sample-major, in layer order."""
        config = ModelConfig(d=8, d_in=8, group_sizes=(2,) * 6, seed=46,
                             enable_mask=(False, False, False, True))
        rng = nc.rng_stream(47)
        ids = ["case-8", "case-9"]
        cohort = CohortData(
            rows=[ManifestRow(s, "", "", 10.0 * (k + 1), False) for k, s in enumerate(ids)],
            bags=[rng.standard_normal((4, 8)) for _ in ids],
            genomics=[GenomicGroups(tuple(rng.standard_normal(2) for _ in range(6)))
                      for _ in ids],
            targets=[SurvivalTarget(bin=k, censored=False, raw_time=10.0 * (k + 1))
                     for k in range(len(ids))],
            bin_edges=np.array([15.0, 25.0, 35.0]),
        )
        log = []
        evaluate(MoMEModel(config), cohort, [0, 1], routing_log=log)
        assert [(r.layer, r.sample_id) for r in log] == [(i, s) for s in ids for i in range(4)]
        line = format_routing_record(log[5])
        fields = line.split(",")
        assert fields[:3] == ["1", "case-9", "3"]
        assert len(fields) == 7
