import math

import numpy as np
import pytest

from mome.bpe import MoMEModel, load_checkpoint
from mome.data import synthesize_cohort
from mome.errors import ConfigError, DataError, NumericError
from mome.numcore import Adam
from mome.training import (
    MetricsRecord,
    RunConfig,
    derive_seed,
    evaluate,
    format_metrics_record,
    load_cohort,
    model_config_for,
    routing_statistics,
    train_cohort,
    train_fold,
)

SMALL_RUN = dict(d=8, epochs=2, time_bins=3, dropout_rate=0.1, seed=11)


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    return synthesize_cohort(24, 6, 8, "geno", 0.25, seed=5, out_dir=out, folds=3)


class TestLoadCohort:
    def test_loads_everything(self, small_manifest):
        cohort = load_cohort(small_manifest, time_bins=3)
        assert len(cohort.rows) == 24
        assert cohort.d_in == 8
        assert len(cohort.bin_edges) == 2
        assert all(0 <= t.bin < 3 for t in cohort.targets)

    def test_time_bins_need_enough_events(self, small_manifest):
        with pytest.raises(DataError):
            load_cohort(small_manifest, time_bins=20)


class TestTrainFold:
    def test_fold_result_and_checkpoint(self, small_manifest, tmp_path):
        cohort = load_cohort(small_manifest, time_bins=3)
        records = []
        result = train_fold(
            RunConfig(**SMALL_RUN), cohort, fold=0, out_dir=tmp_path, emit=records.append
        )
        assert result.best_epoch >= 0
        assert -1.0 <= result.best_c_index <= 1.0
        # one train and one val record per epoch
        assert [(r.epoch, r.split) for r in records] == [
            (0, "train"), (0, "val"), (1, "train"), (1, "val")
        ]
        model = load_checkpoint(result.checkpoint_path)
        assert model.config.d == 8

        # the checkpoint holds the weights of the best epoch
        val_idx = [i for i, r in enumerate(cohort.rows) if r.fold == 0]
        _, score, _ = evaluate(model, cohort, val_idx)
        assert score == pytest.approx(result.best_c_index)

    def test_unknown_fold_rejected(self, small_manifest, tmp_path):
        cohort = load_cohort(small_manifest, time_bins=3)
        with pytest.raises(DataError):
            train_fold(RunConfig(**SMALL_RUN), cohort, fold=9, out_dir=tmp_path)


class TestTrainCohort:
    def test_summary_shape(self, small_manifest, tmp_path):
        summary = train_cohort(RunConfig(**SMALL_RUN), small_manifest, tmp_path)
        assert len(summary.fold_results) == 3
        scores = [r.best_c_index for r in summary.fold_results]
        assert summary.mean_c_index == pytest.approx(float(np.mean(scores)))
        assert summary.std_c_index == pytest.approx(float(np.std(scores)))

    def test_metrics_stream_is_deterministic(self, small_manifest, tmp_path):
        def run(tag):
            summary = train_cohort(
                RunConfig(**SMALL_RUN), small_manifest, tmp_path / tag
            )
            return [
                (r.fold, r.epoch, r.split, r.loss, r.c_index) for r in summary.records
            ]

        assert run("a") == run("b")

    def test_different_seed_changes_stream(self, small_manifest, tmp_path):
        base = train_cohort(RunConfig(**SMALL_RUN), small_manifest, tmp_path / "a")
        other_cfg = dict(SMALL_RUN, seed=12)
        other = train_cohort(RunConfig(**other_cfg), small_manifest, tmp_path / "b")
        assert [r.loss for r in base.records] != [r.loss for r in other.records]


class TestRoutingStatistics:
    def test_forced_dropf2_histogram(self, small_manifest, tmp_path):
        run = RunConfig(**SMALL_RUN)
        run.enable_mask = (False, False, False, True)
        cohort = load_cohort(small_manifest, time_bins=3)
        result = train_fold(run, cohort, fold=0, out_dir=tmp_path)
        stats = routing_statistics(load_checkpoint(result.checkpoint_path), cohort)
        assert stats.histogram.shape == (4, 4)
        assert np.all(stats.histogram.sum(axis=1) == len(cohort.rows))
        assert np.all(stats.histogram[:, 3] == len(cohort.rows))
        assert not stats.sample_level_diversity
        assert not stats.layer_level_diversity

    def test_histogram_rows_sum_to_cohort_size(self, small_manifest, tmp_path):
        cohort = load_cohort(small_manifest, time_bins=3)
        result = train_fold(RunConfig(**SMALL_RUN), cohort, fold=1, out_dir=tmp_path)
        stats = routing_statistics(load_checkpoint(result.checkpoint_path), cohort)
        assert np.all(stats.histogram.sum(axis=1) == len(cohort.rows))


class TestMetricsFormat:
    def test_record_line(self):
        rec = MetricsRecord(fold=2, epoch=5, split="val", loss=1.25, c_index=0.625,
                            wall_seconds=3.14159)
        assert format_metrics_record(rec) == "2,5,val,1.25,0.625,3.142"


class TestDeriveSeed:
    def test_stable_and_sensitive(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
        assert derive_seed(7, 1) != derive_seed(8, 1)
        assert 0 <= derive_seed(2**70, 5) < 2**64


class TestGradAccum:
    def test_one_step_per_group_including_the_partial_one(self, small_manifest, tmp_path,
                                                          monkeypatch):
        steps = []
        step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda self: (steps.append(1), step(self)))
        cohort = load_cohort(small_manifest, time_bins=3)
        n_train = sum(r.fold != 0 for r in cohort.rows)
        assert n_train % 3  # grad_accum=3 leaves a trailing partial group
        for k in (1, 3):
            steps.clear()
            train_fold(RunConfig(**SMALL_RUN, grad_accum=k), cohort, fold=0,
                       out_dir=tmp_path / str(k))
            assert len(steps) == SMALL_RUN["epochs"] * math.ceil(n_train / k)

    def test_accumulation_changes_the_metrics_stream(self, small_manifest, tmp_path):
        cohort = load_cohort(small_manifest, time_bins=3)

        def stream(k):
            records = []
            train_fold(RunConfig(**SMALL_RUN, grad_accum=k), cohort, fold=0,
                       out_dir=tmp_path / str(k), emit=records.append)
            return [(r.split, r.loss, r.c_index) for r in records]

        assert stream(2) != stream(1)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(grad_accum=0)


class TestRunConfigRanges:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("key_chunk", 0), ("lr", 0.0), ("lr", -2e-4),
        ("lr", float("nan")),
    ])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

    def test_dense_attention_key_chunk_allowed(self):
        assert RunConfig(key_chunk=None).key_chunk is None


class TestEvaluateNumericError:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_names_the_first_failing_sample(self, tmp_path):
        cohort = load_cohort(synthesize_cohort(12, 6, 8, "geno", 0.25, seed=8, out_dir=tmp_path,
                                               folds=3), time_bins=3)
        model = MoMEModel(model_config_for(RunConfig(d=8, time_bins=3, seed=4), cohort, 0))
        model.patch_w.data[:] = 1.0
        for i in (10, 5):  # sums of 8 values of 1e308 overflow in the patch embedding
            cohort.bags[i] = np.full((6, 8), 1e308)
        with pytest.raises(NumericError) as err:
            evaluate(model, cohort, [4, 5, 10, 6])
        message = str(err.value)
        assert "'matmul'" in message and f"'{cohort.rows[5].sample_id}'" in message
        assert cohort.rows[10].sample_id not in message
