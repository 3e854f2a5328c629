import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mome.numcore as nc
import mome.training as training
from mome.bpe import MoMEModel, load_checkpoint
from mome.data import read_manifest, resolve_path, synthesize_cohort, write_manifest
from mome.errors import ConfigError, DataError, NumericError
from mome.numcore import Adam
from mome.survival import nll_loss
from mome.training import (
    MetricsRecord,
    RunConfig,
    TrainingAbort,
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

    def test_unassigned_row_rejected_before_any_model(self, small_manifest, tmp_path,
                                                      monkeypatch):
        """A row with fold -1 would train in every fold and be evaluated in
        none, so the fold loop itself rejects it, naming the first one."""
        cohort = load_cohort(small_manifest, time_bins=3)
        for i in (5, 2):
            cohort.rows[i].fold = -1

        def no_model(config):
            raise AssertionError("built a model")

        monkeypatch.setattr(training, "MoMEModel", no_model)
        with pytest.raises(DataError, match=f"sample '{cohort.rows[2].sample_id}' has no fold"):
            train_fold(RunConfig(**SMALL_RUN), cohort, fold=0, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_split_without_a_comparable_pair_rejected_before_any_model(
            self, small_manifest, tmp_path, monkeypatch):
        cohort = load_cohort(small_manifest, time_bins=3)
        for i, row in enumerate(cohort.rows):
            if row.fold == 1:
                cohort.targets[i] = dataclasses.replace(cohort.targets[i], censored=True)

        def no_model(config):
            raise AssertionError("built a model")

        monkeypatch.setattr(training, "MoMEModel", no_model)
        with pytest.raises(DataError, match="fold 1 validation split cannot be scored: "
                                            "no comparable pairs"):
            train_fold(RunConfig(**SMALL_RUN), cohort, fold=1, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestTrainCohort:
    def test_every_split_checked_before_the_first_fold_trains(self, small_manifest, tmp_path,
                                                             monkeypatch):
        """Fold 2 holds only censored samples, so its validation C-index is
        undefined; the run fails naming it before fold 0 builds a model."""
        rows = read_manifest(small_manifest)
        for row in rows:
            row.patho_path = resolve_path(small_manifest, row.patho_path)
            row.geno_path = resolve_path(small_manifest, row.geno_path)
            row.censored = row.censored or row.fold == 2
        manifest = str(tmp_path / "manifest.csv")
        write_manifest(manifest, rows)

        def no_model(config):
            raise AssertionError("built a model")

        monkeypatch.setattr(training, "MoMEModel", no_model)
        with pytest.raises(DataError, match="fold 2 validation split"):
            train_cohort(RunConfig(**SMALL_RUN), manifest, tmp_path / "run")
        assert not (tmp_path / "run").exists()

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
        ("lr", float("nan")), ("dropout_rate", 1.5), ("dropout_rate", 1.0),
        ("dropout_rate", -0.25), ("dropout_rate", float("nan")), ("weight_decay", -1.0),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")), ("folds", 1),
        ("folds", 0), ("epochs", None), ("grad_accum", None),
    ])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field) as caught:
            RunConfig(**{field: value})
        assert caught.value.field == field

    @pytest.mark.parametrize("mask", [(True,), (True, False, True, True, False)])
    def test_mask_without_one_flag_per_expert_rejected(self, mask):
        with pytest.raises(ConfigError, match="enable_mask") as caught:
            RunConfig(enable_mask=mask)
        assert caught.value.field == "enable_mask"

    def test_dense_attention_key_chunk_allowed(self):
        assert RunConfig(key_chunk=None).key_chunk is None


class TestDivergingRun:
    def test_abort_is_typed_and_prints_no_numpy_warnings(self, tmp_path, monkeypatch):
        """The fifth step's loss hands back a gradient that overflows to inf,
        so that step's Adam update is not finite; the abort names ``adam_step``
        instead of the next sample's op, and the overflow on the way there
        raises no ``RuntimeWarning``."""
        manifest = synthesize_cohort(24, 32, 32, "patho", 0.3, seed=0, out_dir=tmp_path,
                                     folds=3)
        run = RunConfig(d=16, epochs=1, folds=3)
        cohort = load_cohort(manifest, run.time_bins)
        calls = []

        def overflowing_nll_loss(curve, target):
            loss = nll_loss(curve, target)
            calls.append(target)
            if len(calls) != 5:
                return loss

            def backward(g):
                nc.accumulate_grad(loss, g * np.finfo(np.float64).max * 2.0)

            return nc.graph_op(loss.data, (loss,), backward, "overflowing_loss")

        monkeypatch.setattr(training, "nll_loss", overflowing_nll_loss)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingAbort, match="'adam_step' for parameter") as err:
                train_fold(run, cohort, 0, tmp_path / "out")
        assert len(calls) == 5
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "loss" not in str(err.value)


class TestEvaluateNumericError:
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

    def test_worded_as_in_training(self, tmp_path, monkeypatch):
        """A sample's numeric failure reads the same in evaluation as in a
        training step: one ``TrainingAbort`` naming the sample and the op."""
        cohort = load_cohort(synthesize_cohort(12, 6, 8, "geno", 0.25, seed=8, out_dir=tmp_path,
                                               folds=3), time_bins=3)
        run = RunConfig(d=8, time_bins=3, epochs=1, seed=4)
        failing = next(i for i, r in enumerate(cohort.rows) if r.fold != 0)

        def failing_nll_loss(curve, target):
            if target is cohort.targets[failing]:
                raise NumericError("non-finite result produced by 'nll_loss'")
            return nll_loss(curve, target)

        monkeypatch.setattr(training, "nll_loss", failing_nll_loss)
        with pytest.raises(TrainingAbort) as in_training:
            train_fold(run, cohort, 0, tmp_path / "out")
        model = MoMEModel(model_config_for(run, cohort, 0))
        with pytest.raises(TrainingAbort) as in_evaluation:
            evaluate(model, cohort, [failing])
        sample_id = cohort.rows[failing].sample_id
        assert in_evaluation.value.sample_id == in_training.value.sample_id == sample_id
        assert str(in_evaluation.value) == str(in_training.value) == (
            f"non-finite value at sample '{sample_id}': "
            "non-finite result produced by 'nll_loss'")


def test_run_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    """Training pins BLAS to one thread, so a run under
    ``OPENBLAS_NUM_THREADS`` 1 and 2 writes the same checkpoint bytes and
    the same ``metrics.csv`` (wall-clock column aside). Two threads change
    the rounding of the larger products at the default width on 128 x 64
    bags."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    cohort = synthesize_cohort(24, 128, 64, "cross", 0.3, seed=3, out_dir=tmp_path / "cohort")
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "mome", "train", "--manifest", str(cohort), "--out", str(out),
             "--epochs", "2", "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[threads] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    one, two = runs["1"], runs["2"]
    assert sorted(one) == sorted(two) == ["fold0.ckpt", "fold1.ckpt", "fold2.ckpt", "fold3.ckpt",
                                          "fold4.ckpt", "metrics.csv"]

    def without_wall(metrics):
        return [line.rsplit(",", 1)[0] for line in metrics.decode().splitlines()]

    assert without_wall(one.pop("metrics.csv")) == without_wall(two.pop("metrics.csv"))
    assert [name for name in one if one[name] != two[name]] == []
