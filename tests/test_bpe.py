import dataclasses
import hashlib
import inspect
import os
import resource
import signal
import struct
import tracemalloc

import numpy as np
import pytest

import mome.bpe as bpe
import mome.experts as experts
import mome.numcore as nc
from mome.bpe import (
    GenomicGroups,
    ModelConfig,
    MoMEModel,
    load_checkpoint,
    save_checkpoint,
)
from mome.errors import ConfigError, DataError, FormatError
from mome.experts import ExpertId
from mome.survival import SurvivalTarget, hazards_from_logits, nll_loss
from test_attention import kernel_query_rows, rows_of


def small_config(**overrides):
    base = dict(
        d=8, rounds=2, n_b=2, head_count=1, time_bins=4, seed=3,
        d_in=8, group_sizes=(4, 3, 5, 4, 2, 6), dropout_rate=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_sample(config, seed=0):
    rng = nc.rng_stream(seed)
    patches = rng.standard_normal((7, config.d_in))
    groups = GenomicGroups(tuple(rng.standard_normal(s) for s in config.group_sizes))
    return patches, groups


class TestEmbedGenomics:
    def test_zero_inputs_zero_bias_gives_zero_bag(self):
        model = MoMEModel(small_config())
        groups = GenomicGroups(tuple(np.zeros(s) for s in model.config.group_sizes))
        out = model.embed_genomics(groups)
        assert np.array_equal(out.data, np.zeros((6, 8)))

    def test_output_shape_is_six_by_d(self):
        config = small_config()
        model = MoMEModel(config)
        _, groups = random_sample(config, seed=1)
        assert model.embed_genomics(groups).shape == (6, config.d)

    def test_group_locality(self):
        config = small_config()
        model = MoMEModel(config)
        _, groups = random_sample(config, seed=2)
        base = model.embed_genomics(groups).data
        changed_values = list(groups.values)
        changed_values[2] = changed_values[2][::-1].copy()
        changed = model.embed_genomics(GenomicGroups(tuple(changed_values))).data
        differs = np.any(base != changed, axis=1)
        assert differs[2]
        assert not np.any(differs[[0, 1, 3, 4, 5]])

    def test_group_length_mismatch_rejected(self):
        config = small_config()
        model = MoMEModel(config)
        values = [np.zeros(s) for s in config.group_sizes]
        values[1] = np.zeros(len(values[1]) + 1)
        with pytest.raises(DataError):
            model.embed_genomics(GenomicGroups(tuple(values)))

    def test_one_node_equals_the_composed_ops_bit_for_bit(self):
        config = small_config()
        model = MoMEModel(config)
        _, groups = random_sample(config, seed=3)
        weights = nc.rng_stream(4).standard_normal((6, config.d))
        fused = model.embed_genomics(groups)
        nc.reduce_sum(nc.mul(fused, nc.Tensor(weights))).backward()
        fused_grads = [t.grad for t in model.group_w + model.group_b]
        for t in model.group_w + model.group_b:
            t.grad = None
        composed = nc.concat_rows([
            nc.add(nc.matmul(nc.Tensor(v.reshape(1, -1)), w), b)
            for v, w, b in zip(groups.values, model.group_w, model.group_b)
        ])
        nc.reduce_sum(nc.mul(composed, nc.Tensor(weights))).backward()
        assert fused.requires_grad and np.array_equal(fused.data, composed.data)
        for got, t in zip(fused_grads, model.group_w + model.group_b):
            assert np.array_equal(got, t.grad)

    def test_wrong_group_count_rejected(self):
        with pytest.raises(DataError):
            GenomicGroups(tuple(np.zeros(3) for _ in range(5)))


class TestCanonicalRowOrder:
    @staticmethod
    def assert_matches_lexsort(rows):
        assert np.array_equal(bpe.canonical_row_order(rows), np.lexsort(rows.T[::-1]))

    def test_random_bags(self):
        rng = nc.rng_stream(30)
        for n in (1, 2, 7, 300):
            self.assert_matches_lexsort(rng.standard_normal((n, 5)))

    def test_tied_first_column(self):
        rng = nc.rng_stream(31)
        rows = rng.standard_normal((40, 4))
        rows[:, 0] = np.round(rows[:, 0])
        self.assert_matches_lexsort(rows)

    def test_signed_zeros_in_first_column_tie(self):
        rng = nc.rng_stream(32)
        rows = rng.standard_normal((6, 3))
        rows[:, 0] = [0.0, -0.0, 1.0, -0.0, 0.0, -1.0]
        self.assert_matches_lexsort(rows)
        rows[:, 0] = [2.0, -0.0, 1.0, 3.0, 0.0, -1.0]
        self.assert_matches_lexsort(rows)

    def test_duplicate_rows(self):
        rng = nc.rng_stream(33)
        rows = rng.standard_normal((5, 4))
        self.assert_matches_lexsort(np.concatenate([rows, rows[::-1], rows[:2]]))


class TestRoundOrder:
    """``MoMEModel.forward`` runs its layers in order and alternates the
    modality each one encodes; every reference is the other modality's
    latest encoding, never a stale one."""

    @pytest.mark.parametrize("first", bpe.FIRST_ENCODED_CHOICES)
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_layers_alternate_against_the_latest_encoding(self, rounds, first, monkeypatch):
        config = small_config(rounds=rounds, first_encoded=first)
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=rounds)
        second = "genomics" if first == "pathology" else "pathology"

        embedded = {}
        for name, attr in (("pathology", "embed_patches"), ("genomics", "embed_genomics")):
            def embed(x, name=name, real=getattr(model, attr)):
                embedded[name] = real(x)
                return embedded[name]

            monkeypatch.setattr(model, attr, embed)

        real_forward, calls = bpe.mome_forward, []
        signature = inspect.signature(real_forward)

        def recorder(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            out = real_forward(*args, **kwargs)
            calls.append((bound.arguments, out))
            return out

        real_concat, concats = nc.concat_rows, []

        def concat_recorder(parts):
            concats.append(list(parts))
            return real_concat(parts)

        monkeypatch.setattr(bpe, "mome_forward", recorder)
        monkeypatch.setattr(nc, "concat_rows", concat_recorder)
        routes = []
        model.forward(patches, groups, routes=routes)

        # A decision's position in ``routes`` is its layer: one per call, in call order.
        assert all(call["routes"] is routes for call, _ in calls)
        assert len(routes) == len(calls) == 2 * rounds
        assert all(call["layer"] is model.layers[i] for i, (call, _) in enumerate(calls))
        assert calls[0][0]["f1"] is embedded[first]
        assert calls[0][0]["f2"] is embedded[second]
        for (_, out), (call, _) in zip(calls, calls[1:]):
            assert call["f2"] is out
        for (_, out), (call, _) in zip(calls, calls[2:]):
            assert call["f1"] is out
        assert all(out.shape == call["f1"].shape for call, out in calls)
        # Calls 2R-2 and 2R-1 hold the last encoding of each modality.
        latest = {first: calls[-2][1], second: calls[-1][1]}
        readout = [model.cls_token, latest["pathology"], latest["genomics"]]
        assert len(concats[-1]) == 3
        assert all(got is want for got, want in zip(concats[-1], readout))


class TestForward:
    def test_output_shape(self):
        config = small_config()
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=7)
        out = model.forward(patches, groups)
        assert out.shape == (1, config.time_bins)

    def test_two_rounds_mean_four_layer_invocations(self):
        config = small_config()
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=8)
        routes = []
        model.forward(patches, groups, routes=routes)
        assert len(routes) == 4
        # The decision at position i is the one layer i dispatched.
        routed = [(layer, int(decision.expert)) for layer, decision in enumerate(routes)]
        assert routed == [(i, int(np.argmax(layer.call_counts)))
                          for i, layer in enumerate(model.layers)]
        assert sum(sum(layer.call_counts) for layer in model.layers) == 4

    def test_eval_forward_is_deterministic(self):
        config = small_config()
        patches, groups = random_sample(config, seed=9)
        out1 = MoMEModel(config).forward(patches, groups).data
        out2 = MoMEModel(config).forward(patches, groups).data
        assert np.array_equal(out1, out2)

    def test_patch_permutation_bit_exact_in_eval(self):
        config = small_config()
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=10)
        perm = nc.rng_stream(11).permutation(patches.shape[0])
        base = model.forward(patches, groups).data
        permuted = model.forward(patches[perm], groups).data
        assert np.array_equal(base, permuted)

    def test_patch_permutation_bit_exact_in_training(self):
        # The canonical patch order is the only owner of order-freedom:
        # dropout draws, pooled means and every gradient must follow it.
        routed = set()
        for seed in range(4):
            config = small_config(seed=seed, dropout_rate=0.25)
            rng = nc.rng_stream(100 + seed)
            patches = rng.standard_normal((37, config.d_in))
            groups = GenomicGroups(tuple(rng.standard_normal(s) for s in config.group_sizes))
            perm = nc.rng_stream(200 + seed).permutation(patches.shape[0])
            target = SurvivalTarget(bin=2, censored=False, raw_time=50.0)
            runs = []
            for bag in (patches, patches[perm]):
                model = MoMEModel(config)
                routes = []
                logits = model.forward(bag, groups, training=True, rng=nc.rng_stream(seed),
                                       routes=routes)
                loss = nll_loss(hazards_from_logits(logits), target)
                loss.backward()
                routed.update(int(decision.expert) for decision in routes)
                runs.append((loss.data, [(n, t.grad) for n, t in model.parameters()]))
            (loss_a, grads_a), (loss_b, grads_b) = runs
            assert np.array_equal(loss_a, loss_b)
            for (name, ga), (_, gb) in zip(grads_a, grads_b):
                assert (ga is None) == (gb is None), name
                assert ga is None or np.array_equal(ga, gb), name
        assert routed == {int(e) for e in ExpertId}

    def test_large_bag_permutation_bit_exact_over_key_blocks(self):
        config = small_config()
        model = MoMEModel(config)
        rng = nc.rng_stream(16)
        patches = rng.standard_normal((300, config.d_in))
        _, groups = random_sample(config, seed=17)
        perm = nc.rng_stream(18).permutation(patches.shape[0])
        base = model.forward(patches, groups, key_chunk=64).data
        permuted = model.forward(patches[perm], groups, key_chunk=64).data
        assert np.array_equal(base, permuted)

    @pytest.mark.parametrize("n", [128, 300])  # 300 rows span two query tiles
    def test_float32_bag_matches_its_float64_copy_bit_for_bit(self, n):
        """A bag stays the float32 its file holds until ``embed_patches``
        casts it. The cast is exact and float32 sorts as float64 does, so
        the logits and every gradient of a training step are unchanged."""
        config = small_config(dropout_rate=0.25)
        rng = nc.rng_stream(40 + n)
        bag = rng.standard_normal((n, config.d_in)).astype(np.float32)
        bag[1::7, 0] = bag[0, 0]  # ties in column 0 take the lexsort path
        groups = GenomicGroups(tuple(rng.standard_normal(s) for s in config.group_sizes))
        target = SurvivalTarget(bin=1, censored=False, raw_time=20.0)
        runs = []
        for patches in (bag, bag.astype(np.float64)):
            model = MoMEModel(config)
            logits = model.forward(patches, groups, training=True, rng=nc.rng_stream(7),
                                   key_chunk=64)
            nll_loss(hazards_from_logits(logits), target).backward()
            runs.append((logits.data, [(name, t.grad) for name, t in model.parameters()]))
        (logits_a, grads_a), (logits_b, grads_b) = runs
        assert np.array_equal(logits_a, logits_b)
        for (name, ga), (_, gb) in zip(grads_a, grads_b):
            assert (ga is None) == (gb is None), name
            assert ga is None or np.array_equal(ga, gb), name

    def test_empty_patch_bag_rejected(self):
        config = small_config()
        model = MoMEModel(config)
        _, groups = random_sample(config, seed=12)
        with pytest.raises(DataError):
            model.forward(np.zeros((0, config.d_in)), groups)

    def test_zero_width_patch_bag_rejected(self):
        config = small_config()
        model = MoMEModel(config)
        _, groups = random_sample(config, seed=12)
        with pytest.raises(DataError):
            model.forward(np.zeros((5, 0)), groups)

    def test_tensor_bag_rejected(self):
        """The bag is an array: a graph tensor would get no gradient, so it
        is a typed error rather than a silently detached input."""
        config = small_config()
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=12)
        with pytest.raises(DataError, match="rank-2 array"):
            model.forward(nc.Tensor(patches, requires_grad=True), groups)

    def test_all_dropf2_reduces_to_readout_over_embeddings(self):
        config = small_config(enable_mask=(False, False, False, True))
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=13)
        out = model.forward(patches, groups).data

        canonical = patches[np.lexsort(patches.T[::-1])]
        p = model.embed_patches(canonical)
        g = model.embed_genomics(groups)
        from mome.attention import self_attention

        cls_row = self_attention([model.cls_token, p, g], model.readout)
        expected = nc.add(nc.matmul(cls_row, model.head_w), model.head_b).data
        assert np.array_equal(out, expected)

    def test_graph_node_budget_of_a_training_step(self, monkeypatch):
        """A skip-only default model: patch embedding (2), genomic embedding
        (1), four gates of two nodes plus the probability scaling (12), the
        readout attention (5: the stacked tokens, three projections and the
        kernel), the hazard head (2) and the loss (1)."""
        config = ModelConfig(enable_mask=(False, False, False, True))
        model = MoMEModel(config)
        rng = nc.rng_stream(19)
        patches = rng.standard_normal((128, config.d_in))
        groups = GenomicGroups(tuple(rng.standard_normal(s) for s in config.group_sizes))
        graph_op, ops = nc.graph_op, []

        def counting_graph_op(data, parents, backward, op):
            ops.append(op)
            return graph_op(data, parents, backward, op)

        monkeypatch.setattr(nc, "graph_op", counting_graph_op)
        logits = model.forward(patches, groups, training=True, rng=nc.rng_stream(20))
        nll_loss(hazards_from_logits(logits), SurvivalTarget(bin=1, censored=False, raw_time=1.0))
        assert len(ops) == 23, ops
        assert ops.count("gate_logits") == ops.count("gate_probability") == 4

    def test_kernel_computes_only_the_query_rows_callers_keep(self):
        """TF-only, two rounds: the two layers that encode the bag keep n of
        n+6 rows, the two that encode the genomic groups keep 6 and the
        readout keeps 1; the kernel computes exactly those rows."""
        config = small_config(enable_mask=(True, False, False, False))
        n = 1750
        patches = nc.rng_stream(19).standard_normal((n, config.d_in))
        _, groups = random_sample(config, seed=20)
        with kernel_query_rows() as queries:
            MoMEModel(config).forward(patches, groups, key_chunk=512)
        assert len(queries) == 5
        assert sum(queries) == 2 * n + 13

    def test_first_encoded_genomics_round_order(self):
        config = small_config(first_encoded="genomics", rounds=1)
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=14)
        routes = []
        out = model.forward(patches, groups, routes=routes)
        assert out.shape == (1, config.time_bins)
        assert len(routes) == 2

    def test_gradient_reaches_every_touched_parameter_group(self):
        config = small_config()
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=15)
        routes = []
        logits = model.forward(patches, groups, training=True, rng=nc.rng_stream(1),
                               routes=routes)
        target = SurvivalTarget(bin=1, censored=False, raw_time=100.0)
        nll_loss(hazards_from_logits(logits), target).backward()

        routed = {(layer, int(decision.expert)) for layer, decision in enumerate(routes)}
        expert_prefixes = {
            int(ExpertId.TRANSFUSION): ("tf",),
            int(ExpertId.BOTTLENECK_TRANSFUSION): ("btf_inner", "btf_outer", "bottleneck"),
            int(ExpertId.SNNFUSION): ("snn",),
            int(ExpertId.DROPF2FUSION): (),
        }
        must_have_grad = {"patch.w", "patch.b", "cls_token", "head.w", "head.b"}
        for name, _ in model.parameters():
            if name.startswith(("geno.", "readout.")):
                must_have_grad.add(name)
            if name.startswith("layer"):
                layer_idx = int(name.split(".")[0][5:])
                section = name.split(".")[1]
                if section == "gate":
                    must_have_grad.add(name)
                else:
                    for (lyr, expert) in routed:
                        if lyr == layer_idx and section in expert_prefixes[expert]:
                            must_have_grad.add(name)
        params = dict(model.parameters())
        for name in sorted(must_have_grad):
            grad = params[name].grad
            assert grad is not None and np.any(grad != 0.0), f"no gradient reached {name}"


# A checkpoint stores each tensor under its name, in this order: loading
# matches the names, and the order fixes the file's bytes.
LAYER0_NAMES = [
    "layer0.gate.w1", "layer0.gate.w2", "layer0.gate.w", "layer0.gate.gain1",
    "layer0.gate.gain2", "layer0.tf.query", "layer0.tf.key", "layer0.tf.value",
    "layer0.btf_inner.query", "layer0.btf_inner.key", "layer0.btf_inner.value",
    "layer0.btf_outer.query", "layer0.btf_outer.key", "layer0.btf_outer.value",
    "layer0.bottleneck", "layer0.snn.w1", "layer0.snn.b1", "layer0.snn.w2", "layer0.snn.b2",
    "layer0.snn.gain1", "layer0.snn.gain2",
]


class TestPrunedRowsAtModelLevel:
    """The experts and the readout hand self-attention their query bag. A
    model whose self-attention computes every row of the stacked parts and
    then slices agrees to roundoff in the logits and every parameter
    gradient."""

    @staticmethod
    def run(model, patches, groups):
        for _, t in model.parameters():
            t.grad = None
        routes = []
        logits = model.forward(patches, groups, training=True, rng=nc.rng_stream(5),
                               key_chunk=512, routes=routes)
        target = SurvivalTarget(bin=2, censored=False, raw_time=1.0)
        nll_loss(hazards_from_logits(logits), target).backward()
        grads = {name: t.grad for name, t in model.parameters()}
        return logits.data, grads, [decision.expert for decision in routes]

    @pytest.mark.parametrize("mask", [(True, True, True, True), (True, False, False, False)],
                             ids=["all", "tf"])
    @pytest.mark.parametrize("n", [37, 300, 1750])
    def test_pruned_equals_full_then_slice(self, n, mask, monkeypatch):
        config = small_config(enable_mask=mask)
        model = MoMEModel(config)
        patches = nc.rng_stream(n).standard_normal((n, config.d_in))
        _, groups = random_sample(config, seed=n)
        pruned, pruned_grads, pruned_route = self.run(model, patches, groups)

        full = bpe.self_attention

        def full_then_slice(parts, params, key_chunk=None):
            out = full([nc.concat_rows(parts)], params, key_chunk)
            return rows_of(out, 0, parts[0].shape[0])

        monkeypatch.setattr(bpe, "self_attention", full_then_slice)
        monkeypatch.setattr(experts, "self_attention", full_then_slice)
        sliced, sliced_grads, sliced_route = self.run(model, patches, groups)

        assert pruned_route == sliced_route
        assert np.max(np.abs(pruned - sliced)) <= 1e-12
        for name, grad in pruned_grads.items():
            if grad is None:
                assert sliced_grads[name] is None, name
            else:
                assert np.max(np.abs(grad - sliced_grads[name])) <= 1e-12, name


def record_spans(model):
    """(name, start, end) of each parameter record in the checkpoint of ``model``:
    magic (8), version (4), the config block (74) and the record count (4) come
    first, then per record a u16 name length, the name, a u8 rank, u32 extents
    and the float64 payload."""
    spans, offset = [], 8 + 4 + 74 + 4
    for name, tensor in model.parameters():
        end = offset + 2 + len(name) + 1 + 4 * tensor.ndim + 8 * tensor.data.size
        spans.append((name, offset, end))
        offset = end
    return spans


class TestCheckpointRoundtrip:
    def test_parameter_names_are_pinned(self):
        names = [name for name, _ in MoMEModel(ModelConfig()).parameters()]
        assert len(names) == 104
        assert [name for name in names if name.startswith("layer0.")] == LAYER0_NAMES
        assert len(MoMEModel(ModelConfig(head_count=2, d=8)).parameters()) == 117

    def test_bit_exact_roundtrip(self, tmp_path):
        config = small_config(seed=21, head_count=2, d=8)
        model = MoMEModel(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert path.read_bytes()[41] == 1  # the gate-scaling flag is always on
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (name_a, t_a), (name_b, t_b) in zip(model.parameters(), loaded.parameters()):
            assert name_a == name_b
            assert np.array_equal(t_a.data, t_b.data)
        patches, groups = random_sample(config, seed=22)
        assert np.array_equal(
            model.forward(patches, groups).data, loaded.forward(patches, groups).data
        )

    def test_bad_magic_rejected_with_offset(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    @pytest.mark.parametrize("tail", [b"", b"\x01", b"\x01\x00\x00"], ids=["8", "9", "11"])
    def test_file_cut_inside_the_version_rejected_at_its_offset(self, tmp_path, tail):
        path = tmp_path / "short.ckpt"
        path.write_bytes(bpe.CHECKPOINT_MAGIC + tail)
        with pytest.raises(FormatError, match="version") as err:
            load_checkpoint(path)
        assert err.value.offset == 8

    def test_misnamed_record_rejected_at_its_start(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(MoMEModel(small_config(seed=29)), path)
        blob = path.read_bytes()
        at = blob.index(b"layer0.tf.query")
        path.write_bytes(blob.replace(b"layer0.tf.query", b"layer1.tf.query", 1))
        with pytest.raises(FormatError, match="layer0.tf.query") as err:
            load_checkpoint(path)
        assert err.value.offset == at - 2  # the record starts with its u16 name length

    def test_swapped_records_rejected_at_the_first(self, tmp_path):
        model = MoMEModel(small_config(seed=30))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        spans = {name: (start, end) for name, start, end in record_spans(model)}
        (q0, q1), (k0, k1) = spans["layer0.tf.query"], spans["layer0.tf.key"]
        assert q1 == k0
        path.write_bytes(blob[:q0] + blob[k0:k1] + blob[q0:q1] + blob[k1:])
        with pytest.raises(FormatError, match="layer0.tf.query") as err:
            load_checkpoint(path)
        assert err.value.offset == q0

    # Byte offsets of the config block's flags: magic (8), version (4) and six u32 (24)
    # come first; then first_encoded, the four enable-mask flags and gate scaling.
    @pytest.mark.parametrize("offset, value, message", [
        (36, 7, "first_encoded"), (36, 2, "first_encoded"),
        (37, 2, "enable-mask"), (38, 2, "enable-mask"), (39, 255, "enable-mask"),
        (40, 2, "enable-mask"), (41, 0, "gate-scaling"), (41, 2, "gate-scaling"),
    ])
    def test_bad_flag_byte_rejected_at_its_offset(self, tmp_path, offset, value, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(MoMEModel(small_config(seed=28)), path)
        blob = bytearray(path.read_bytes())
        assert blob[offset] in (0, 1)
        blob[offset] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"{message} flag {value}") as err:
            load_checkpoint(path)
        assert err.value.offset == offset

    def test_write_cut_off_midway_leaves_no_file_and_the_old_one_intact(self, tmp_path):
        """A write the file-size limit stops after 4 KiB of a 37 KB
        checkpoint removes its temporary file: the final name is absent, or
        still holds the checkpoint it held before."""
        model = MoMEModel(small_config(seed=33))
        fresh, kept = tmp_path / "fresh", tmp_path / "kept"
        fresh.mkdir()
        kept.mkdir()
        save_checkpoint(MoMEModel(small_config(seed=34)), kept / "model.ckpt")
        before = (kept / "model.ckpt").read_bytes()
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
        try:
            for directory in (fresh, kept):
                with pytest.raises(OSError):
                    save_checkpoint(model, directory / "model.ckpt")
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert os.listdir(fresh) == []
        assert os.listdir(kept) == ["model.ckpt"]
        assert (kept / "model.ckpt").read_bytes() == before

    def test_truncation_rejected(self, tmp_path):
        model = MoMEModel(small_config(seed=23))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_corrupt_extent_rejected(self, tmp_path):
        model = MoMEModel(small_config(seed=24))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        marker = b"patch.w"
        idx = blob.find(marker) + len(marker)
        blob[idx + 1 : idx + 5] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_payload_rejected_at_its_offset(self, tmp_path, value):
        model = MoMEModel(small_config(seed=26))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # patch.w is rank 2: one rank byte and two u32 extents precede the payload.
        start = blob.find(b"patch.w") + len(b"patch.w") + 1 + 8
        bad = start + 8 * 3
        blob[bad : bad + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="patch.w") as err:
            load_checkpoint(path)
        assert err.value.offset == bad

    # Magic (8) and version (4) precede the config block: d at 12, rounds at 16,
    # time_bins at 28, dropout_rate at 42 (after six u32 and six u8 flags) and
    # the group sizes at 62 (after the seed u64 and the group count u32).
    @pytest.mark.parametrize("offset, fmt, value, message", [
        (42, "<d", 1.5, "dropout_rate"), (42, "<d", np.nan, "dropout_rate"),
        (12, "<I", 0, "width 0"), (16, "<I", 0, "encoding round"),
        (28, "<I", 1, "time bins"), (62, "<I", 0, "input widths"),
    ], ids=["1.5", "nan", "d-0", "rounds-0", "time_bins-1", "group_size-0"])
    def test_out_of_range_config_value_is_format_error(self, tmp_path, offset, fmt, value,
                                                       message):
        model = MoMEModel(small_config(seed=27))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message) as err:
            load_checkpoint(path)
        assert err.value.offset == offset

    def test_truncation_sweep_always_a_positioned_format_error(self, tmp_path):
        """Every cut up to the end of the first record, and each later record
        boundary with one byte either side, fails at or before the cut."""
        model = MoMEModel(small_config(seed=31, rounds=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        spans = record_spans(model)
        assert spans[-1][2] == len(blob)
        cuts = set(range(spans[0][2] + 1))
        cuts.update(end + delta for _, _, end in spans for delta in (-1, 0, 1))
        cut_path = tmp_path / "cut.ckpt"
        for cut in sorted(cut for cut in cuts if cut < len(blob)):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as err:
                load_checkpoint(cut_path)
            assert err.value.offset is not None and err.value.offset <= cut, cut

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        """Every parameter holds a fixed value, so the file's bytes depend on
        the layout alone; any change to that layout changes this digest."""
        config = ModelConfig(d=8, rounds=1, n_b=2, head_count=2, time_bins=3, seed=5, d_in=4,
                             group_sizes=(2, 3, 1, 2, 4, 1), dropout_rate=0.125,
                             first_encoded="genomics", enable_mask=(True, False, True, True))
        model = MoMEModel(config)
        for i, (_, tensor) in enumerate(model.parameters()):
            tensor.data[...] = (np.arange(tensor.data.size).reshape(tensor.shape) - i) / 8.0
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ef2b961c6e3607194d8de7e3123f8cabcb04b5ea5dd43bb92c4b18ea8c37173b")
        loaded = load_checkpoint(path)
        assert loaded.config == config
        for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_config_width_larger_than_the_records_fails_before_allocating(self, tmp_path):
        """A d=4 checkpoint whose ``d`` (byte 12) reads 512 fails at its first
        record (byte 90), before any tensor of the d=512 model is allocated."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(MoMEModel(small_config(seed=32, d=4)), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 12, 512)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.offset == 90
        assert peak < 1 << 20

    def test_load_draws_no_random_value(self, tmp_path, monkeypatch):
        model = MoMEModel(small_config(seed=33, head_count=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def refuse(seed):
            raise AssertionError("load_checkpoint drew a random stream")

        monkeypatch.setattr(nc, "rng_stream", refuse)
        loaded = load_checkpoint(path)
        for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = MoMEModel(small_config(seed=25))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestConfigValidation:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            small_config(d=6, head_count=4)

    def test_zero_heads_rejected(self):
        with pytest.raises(ConfigError):
            small_config(head_count=0)

    @pytest.mark.parametrize("rate", [-0.25, -0.1, 1.0, 1.5, float("nan")])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ConfigError, match="dropout_rate"):
            small_config(dropout_rate=rate)

    @pytest.mark.parametrize("mask", [(True,), (True, False, True, True, False)])
    def test_mask_without_one_flag_per_expert_rejected(self, mask):
        with pytest.raises(ConfigError, match="enable_mask") as caught:
            small_config(enable_mask=mask)
        assert caught.value.field == "enable_mask"

    def test_single_time_bin_rejected(self):
        with pytest.raises(ConfigError):
            small_config(time_bins=1)

    @pytest.mark.parametrize("widths", [
        dict(d_in=0), dict(d_in=-1), dict(group_sizes=(4, 3, 0, 4, 2, 6)),
    ])
    def test_empty_input_width_rejected(self, widths):
        with pytest.raises(ConfigError, match="input widths"):
            small_config(**widths)

    def test_unknown_first_encoded_rejected(self):
        with pytest.raises(ConfigError):
            small_config(first_encoded="both")

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelConfig)])
    def test_none_rejected_naming_the_field(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be set") as caught:
            small_config(**{name: None})
        assert caught.value.field == name
