"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance, each printing a single PASS/FAIL line. Run with ``-s`` to see
the lines as they complete; the learning criterion trains two full
5-fold configurations and dominates the runtime.
"""

import time

import numpy as np
import pytest

import mome.cli as cli
import mome.numcore as nc
from mome.attention import AttentionParams, self_attention, verify_ca_embedding
from mome.bpe import GenomicGroups, ModelConfig, MoMEModel, load_checkpoint, save_checkpoint
from mome.data import read_feature_file, synthesize_cohort, write_feature_file
from mome.errors import FormatError, MetricError
from mome.experts import dropf2fusion
from mome.gradcheck import run_suite
from mome.survival import SurvivalTarget, c_index, hazards_from_logits
from mome.training import RunConfig, train_cohort


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion01GradientSuite:
    def test_finite_differences_all_components(self):
        start = time.perf_counter()
        results = run_suite(seeds=100, tolerance=1e-4)
        elapsed = time.perf_counter() - start
        worst = max(r.max_error for r in results)
        ok = all(r.passed for r in results) and elapsed < 60.0
        report(1, ok, f"gradient suite: {len(results)} components, 100 seeds, "
                      f"worst {worst:.2e} <= 1e-4, {elapsed:.1f}s < 60s")
        assert ok, [r.name for r in results if not r.passed]


class TestCriterion02AttentionEmbeddingIdentity:
    def test_masked_self_attention_equals_co_attention(self):
        worst_score, worst_out = 0.0, 0.0
        for seed in range(100):
            rng = nc.rng_stream(9000 + seed)
            d = int(rng.integers(2, 12))
            f1 = nc.Tensor(rng.standard_normal((int(rng.integers(1, 8)), d)))
            f2 = nc.Tensor(rng.standard_normal((int(rng.integers(1, 8)), d)))
            params = AttentionParams.create(d, nc.Init(nc.rng_stream(9500 + seed)))
            rep = verify_ca_embedding(f1, f2, params)
            worst_score = max(worst_score, rep.score_block_dev)
            worst_out = max(worst_out, rep.output_dev)
        ok = worst_score <= 1e-12 and worst_out <= 1e-10
        report(2, ok, f"cross-attention embedding: 100 instances, score block dev "
                      f"{worst_score:.2e} <= 1e-12, kernel co-attention vs dense masked "
                      f"reference {worst_out:.2e} <= 1e-10")
        assert ok


class TestCriterion03HardRouting:
    def test_exactly_one_expert_and_crafted_diversity(self):
        d = 4
        config = ModelConfig(
            d=d, rounds=1, n_b=1, time_bins=2, seed=0, d_in=d,
            group_sizes=(3, 3, 3, 3, 3, 3), dropout_rate=0.0,
        )
        model = MoMEModel(config)
        # Transparent embeddings: constant bags stay constant rows.
        model.patch_w.data[:] = np.eye(d)
        model.patch_b.data[:] = 0.0
        for w, b in zip(model.group_w, model.group_b):
            w.data[:] = 1.0 / w.shape[0]
            b.data[:] = 0.0
        # Both gates read only their encoded bag; for a constant bag the
        # pooled activation is 0.8413 (positive rows) or -0.1587
        # (negative rows) in every slot, so logits are the scaled column
        # sums and the argmax is forced by construction.
        for layer, colsums in zip(model.layers, ([1, -2, -10, -6], [-10, 1, -2, -6])):
            layer.gate.w1.data[:] = np.eye(d)
            layer.gate.w2.data[:] = 0.0
            layer.gate.gain1.data[:] = 1.0
            layer.gate.gain2.data[:] = 1.0
            layer.gate.w.data[:] = np.tile(np.asarray(colsums, float) / d, (d, 1))

        def run(p_sign, g_sign):
            patches = p_sign * np.ones((5, d))
            groups = GenomicGroups(tuple(g_sign * np.ones(3) for _ in range(6)))
            routes = []
            model.forward(patches, groups, routes=routes)
            return [(layer, int(decision.expert)) for layer, decision in enumerate(routes)]

        route_a = run(+1.0, +1.0)
        route_b = run(-1.0, -1.0)
        per_layer_counts = [sum(layer.call_counts) for layer in model.layers]

        one_expert_each = per_layer_counts == [2, 2]  # 2 samples through each layer
        expected = (route_a == [(0, 0), (1, 1)]) and (route_b == [(0, 2), (1, 0)])
        sample_diverse = route_a[0][1] != route_b[0][1]
        layer_diverse = route_a[0][1] != route_a[1][1]
        ok = one_expert_each and expected and sample_diverse and layer_diverse
        report(3, ok, f"hard routing: one expert per (layer, sample), crafted routes "
                      f"A={route_a} B={route_b} show sample- and layer-level diversity")
        assert ok


class TestCriterion04DropF2:
    def test_identity_and_exact_zero_reference_gradient(self):
        rng = nc.rng_stream(77)
        f1 = nc.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        f2 = nc.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        out = dropf2fusion(f1, f2)
        identical = np.array_equal(out.data, f1.data)
        nc.reduce_sum(nc.mul(out, out)).backward()
        zero_ref = f2.grad is None
        ok = identical and zero_ref and f1.grad is not None
        report(4, ok, "skip expert: output bit-identical to encoded bag, "
                      "reference gradient exactly zero")
        assert ok


class TestCriterion05ChunkedAttention:
    def test_streaming_matches_dense_up_to_5000_tokens(self):
        worst = 0.0
        with nc.no_grad():
            for n, seed in ((512, 1), (5000, 2)):
                rng = nc.rng_stream(seed)
                params = AttentionParams.create(8, nc.Init(nc.rng_stream(seed + 10)))
                tokens = nc.Tensor(rng.standard_normal((n, 8)))
                dense = self_attention([tokens], params).data
                for chunk in (1, 2, 4096):
                    streamed = self_attention([tokens], params, key_chunk=chunk).data
                    worst = max(worst, float(np.max(np.abs(dense - streamed))))
        ok = worst <= 1e-10
        report(5, ok, f"streaming attention: chunks {{1, 2, 4096}} vs dense on bags "
                      f"up to 5000 tokens, max |dev| {worst:.2e} <= 1e-10")
        assert ok


class TestCriterion06CIndexOracle:
    @staticmethod
    def oracle(risks, targets):
        concordant, total = 0.0, 0
        for i in range(len(risks)):
            if targets[i].censored:
                continue
            for j in range(len(risks)):
                if i == j:
                    continue
                ti, tj = targets[i].raw_time, targets[j].raw_time
                if not (ti < tj or (ti == tj and targets[j].censored)):
                    continue
                total += 1
                if risks[i] > risks[j]:
                    concordant += 1.0
                elif risks[i] == risks[j]:
                    concordant += 0.5
        return None if total == 0 else concordant / total

    def test_exact_oracle_agreement_and_null_distribution(self):
        rng = nc.rng_stream(404)
        exact = True
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            times = np.round(rng.exponential(60.0, size=n), 1) + 1.0
            censored = rng.random(n) < 0.35
            risks = np.round(rng.standard_normal(n), 1)
            targets = [SurvivalTarget(0, bool(c), float(t)) for c, t in zip(censored, times)]
            expected = self.oracle(risks, targets)
            if expected is None:
                with pytest.raises(MetricError):
                    c_index(risks, targets)
                continue
            exact = exact and c_index(risks, targets) == expected

        null_scores = []
        for _ in range(1000):
            n = 25
            times = rng.exponential(100.0, size=n) + 1.0
            censored = rng.random(n) < 0.3
            risks = rng.standard_normal(n)
            targets = [SurvivalTarget(0, bool(c), float(t)) for c, t in zip(censored, times)]
            null_scores.append(c_index(risks, targets))
        null_mean = float(np.mean(null_scores))
        ok = exact and 0.47 <= null_mean <= 0.53
        report(6, ok, f"C-index: exact match with pair-enumeration oracle on 1000 "
                      f"instances, null mean {null_mean:.4f} in [0.47, 0.53]")
        assert ok


class TestCriterion07SurvivalMath:
    def test_hazard_curve_invariants(self):
        rng = nc.rng_stream(505)
        worst = 0.0
        ok = True
        for _ in range(1000):
            t_bins = int(rng.integers(2, 9))
            logits = nc.Tensor(rng.standard_normal(t_bins) * 4)
            curve = hazards_from_logits(logits)
            h, s = curve.hazard_values, curve.survival_values
            ok = ok and np.all((h >= 0) & (h <= 1)) and np.all(np.diff(s) <= 0)
            worst = max(worst, float(np.max(np.abs(s - np.cumprod(1 - h)))))
        ok = ok and worst <= 1e-12
        report(7, ok, f"survival math: h in [0,1], s non-increasing, product identity "
                      f"dev {worst:.2e} <= 1e-12 over 1000 curves")
        assert ok


@pytest.fixture(scope="module")
def acceptance_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_cohort")
    return synthesize_cohort(
        n_samples=200, n_patches=128, dim=64, signal="cross", censor_rate=0.3,
        seed=7, out_dir=out,
    )


class TestCriterion08DeskScaleLearning:
    @pytest.mark.slow
    def test_full_model_learns_and_beats_tf_only(self, acceptance_cohort, tmp_path):
        start = time.perf_counter()
        full = train_cohort(RunConfig(seed=7), acceptance_cohort, tmp_path / "full")
        full_wall = time.perf_counter() - start
        tf_only = train_cohort(
            RunConfig(seed=7, enable_mask=(True, False, False, False)),
            acceptance_cohort,
            tmp_path / "tf",
        )
        margin = full.mean_c_index - tf_only.mean_c_index
        ok = full.mean_c_index >= 0.70 and margin >= 0.02 and full_wall < 900.0
        report(8, ok, f"desk-scale learning: full model mean val C-index "
                      f"{full.mean_c_index:.4f} >= 0.70 "
                      f"(folds {[round(r.best_c_index, 3) for r in full.fold_results]}), "
                      f"margin over TF-only {margin:+.4f} >= 0.02, "
                      f"training wall {full_wall:.0f}s < 900s")
        assert ok


class TestCriterion09ReportingShape:
    def test_per_fold_best_lines_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cohort"
        manifest = synthesize_cohort(25, 6, 8, "geno", 0.2, seed=31, out_dir=out, folds=5)
        code = cli.main([
            "train", "--manifest", manifest, "--out", str(tmp_path / "run"),
            "--epochs", "1", "--dim", "8", "--bins", "3", "--seed", "2",
        ])
        lines = capsys.readouterr().out.splitlines()
        best = [l for l in lines if l.startswith("fold ") and "best_val_c_index=" in l]
        summary = [l for l in lines if l.startswith("c_index ") and "±" in l]
        ok = code == 0 and len(best) == 5 and len(summary) == 1
        with capsys.disabled():
            report(9, ok, f"reporting shape: {len(best)} per-fold best-validation lines "
                          f"and summary '{summary[0] if summary else '<missing>'}'")
        assert ok


class TestCriterion10Roundtrips:
    def test_bit_exact_roundtrips_and_positioned_errors(self, tmp_path):
        rng = nc.rng_stream(606)
        bag = rng.standard_normal((33, 16)).astype(np.float32).astype(np.float64)
        fpath = tmp_path / "bag.mmef"
        write_feature_file(fpath, bag)
        feature_ok = np.array_equal(read_feature_file(fpath), bag)

        config = ModelConfig(d=8, rounds=1, n_b=1, time_bins=3, seed=9, d_in=8,
                             group_sizes=(3, 3, 3, 3, 3, 3))
        model = MoMEModel(config)
        cpath = tmp_path / "model.ckpt"
        save_checkpoint(model, cpath)
        loaded = load_checkpoint(cpath)
        ckpt_ok = all(
            np.array_equal(a.data, b.data)
            for (_, a), (_, b) in zip(model.parameters(), loaded.parameters())
        )

        fpath.write_bytes(fpath.read_bytes()[:-7])
        try:
            read_feature_file(fpath)
            positioned = False
        except FormatError as err:
            # 16-byte header + 4*33*16 payload = 2128 expected, 2121 left
            positioned = err.offset is not None and "2128" in str(err) and "2121" in str(err)

        blob = cpath.read_bytes()
        cpath.write_bytes(b"WRONGMAG" + blob[8:])
        try:
            load_checkpoint(cpath)
            magic_rejected = False
        except FormatError as err:
            magic_rejected = err.offset == 0

        ok = feature_ok and ckpt_ok and positioned and magic_rejected
        report(10, ok, "roundtrips bit-exact; truncation and bad magic rejected with "
                       "byte offsets")
        assert ok


class TestCriterion11Determinism:
    def test_identical_seeds_identical_metrics_streams(self, tmp_path):
        manifest = synthesize_cohort(24, 6, 8, "geno", 0.25, seed=5,
                                     out_dir=tmp_path / "cohort", folds=2)

        def stream(tag):
            summary = train_cohort(
                RunConfig(d=8, epochs=2, time_bins=3, seed=11),
                manifest, tmp_path / tag,
            )
            # Wall-clock fields are excluded: they cannot reproduce.
            return [(r.fold, r.epoch, r.split, r.loss, r.c_index) for r in summary.records]

        first, second = stream("a"), stream("b")
        ok = first == second and len(first) == 2 * 2 * 2
        report(11, ok, f"determinism: two single-threaded reruns produced identical "
                       f"{len(first)}-record metrics streams")
        assert ok
