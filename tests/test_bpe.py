import numpy as np
import pytest

import mome.bpe as bpe
import mome.numcore as nc
from mome.bpe import (
    GenomicGroups,
    ModelConfig,
    MoMEModel,
    load_checkpoint,
    save_checkpoint,
    with_expert_mask,
)
from mome.errors import ConfigError, DataError, FormatError
from mome.experts import ExpertId
from mome.survival import SurvivalTarget, hazards_from_logits, nll_loss


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

    def test_wrong_group_count_rejected(self):
        with pytest.raises(DataError):
            GenomicGroups(tuple(np.zeros(3) for _ in range(5)))


class TestBpeRound:
    def test_all_dropf2_is_identity(self):
        config = small_config(enable_mask=(False, False, False, True))
        model = MoMEModel(config)
        rng = nc.rng_stream(4)
        f1 = nc.Tensor(rng.standard_normal((5, 8)))
        f2 = nc.Tensor(rng.standard_normal((6, 8)))
        out1, out2 = bpe.bpe_round(f1, f2, model.layers[0], model.layers[1])
        assert np.array_equal(out1.data, f1.data)
        assert np.array_equal(out2.data, f2.data)

    def test_shape_preservation(self):
        config = small_config()
        model = MoMEModel(config)
        rng = nc.rng_stream(5)
        f1 = nc.Tensor(rng.standard_normal((9, 8)))
        f2 = nc.Tensor(rng.standard_normal((6, 8)))
        out1, out2 = bpe.bpe_round(f1, f2, model.layers[0], model.layers[1])
        assert out1.shape == (9, 8) and out2.shape == (6, 8)

    def test_second_call_consumes_updated_first(self, monkeypatch):
        config = small_config()
        model = MoMEModel(config)
        rng = nc.rng_stream(6)
        f1 = nc.Tensor(rng.standard_normal((4, 8)))
        f2 = nc.Tensor(rng.standard_normal((6, 8)))

        calls = []
        real = bpe.mome_forward

        def recorder(f_enc, f_ref, layer, *args, **kwargs):
            out = real(f_enc, f_ref, layer, *args, **kwargs)
            calls.append((f_enc, f_ref, out))
            return out

        monkeypatch.setattr(bpe, "mome_forward", recorder)
        bpe.bpe_round(f1, f2, model.layers[0], model.layers[1])
        assert len(calls) == 2
        first_output = calls[0][2]
        assert calls[1][1] is first_output
        assert np.array_equal(calls[1][1].data, first_output.data)


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
        log = []
        model.forward(patches, groups, routing_log=log, sample_id="s")
        assert len(log) == 4
        assert [r.layer for r in log] == [0, 1, 2, 3]
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

    def test_all_dropf2_reduces_to_readout_over_embeddings(self):
        config = small_config(enable_mask=(False, False, False, True))
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=13)
        out = model.forward(patches, groups).data

        canonical = patches[np.lexsort(patches.T[::-1])]
        p = model.embed_patches(canonical)
        g = model.embed_genomics(groups)
        from mome.attention import self_attention

        tokens = nc.concat_rows([model.cls_token, p, g])
        cls_row = nc.slice_rows(self_attention(tokens, model.readout), 0, 1)
        expected = nc.add(nc.matmul(cls_row, model.head_w), model.head_b).data
        assert np.array_equal(out, expected)

    def test_first_encoded_genomics_round_order(self):
        config = small_config(first_encoded="genomics", rounds=1)
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=14)
        log = []
        out = model.forward(patches, groups, routing_log=log, sample_id="g-first")
        assert out.shape == (1, config.time_bins)
        assert len(log) == 2

    def test_gradient_reaches_every_touched_parameter_group(self):
        config = small_config()
        model = MoMEModel(config)
        patches, groups = random_sample(config, seed=15)
        log = []
        logits = model.forward(
            patches, groups, training=True, rng=nc.rng_stream(1), routing_log=log,
            sample_id="s0",
        )
        target = SurvivalTarget(bin=1, censored=False, raw_time=100.0)
        nll_loss(hazards_from_logits(logits), target).backward()

        routed = {(r.layer, int(r.expert)) for r in log}
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


class TestCheckpointRoundtrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        config = small_config(seed=21, head_count=2, d=8)
        model = MoMEModel(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
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

    def test_expert_mask_helper(self):
        config = with_expert_mask(small_config(), (True, False, False, False))
        assert config.enable_mask == (True, False, False, False)
