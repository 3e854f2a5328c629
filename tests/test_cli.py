import dataclasses
import os

import numpy as np
import pytest

import mome.cli as cli
import mome.training as training
from mome.bpe import MoMEModel
from mome.data import read_manifest, synthesize_cohort, write_manifest
from mome.errors import MomeError
from mome.gradcheck import COMPONENTS, run_suite
from mome.training import FoldResult, RunConfig, TrainSummary, TrainingAbort


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicohort")
    synthesize_cohort(20, 6, 8, "geno", 0.2, seed=3, out_dir=out, folds=2)
    return out


def run_cli(*argv):
    return cli.main(list(argv))


class TestGenData:
    def test_generates_files_and_prints_manifest(self, tmp_path, capsys):
        code = run_cli(
            "gen-data", "--n", "12", "--patches", "8", "--dim", "6",
            "--signal", "cross", "--seed", "7", "--out", str(tmp_path / "c"),
        )
        assert code == 0
        manifest = capsys.readouterr().out.strip()
        rows = read_manifest(manifest)
        assert len(rows) == 12

    def test_missing_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-data", "--n", "12")
        assert exc.value.code == 2
        assert not any("manifest" in name for name in os.listdir(tmp_path))

    def test_rerun_same_flags_identical_bytes(self, tmp_path):
        for tag in ("a", "b"):
            run_cli("gen-data", "--n", "10", "--patches", "4", "--dim", "4",
                    "--seed", "9", "--out", str(tmp_path / tag))
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_censor_rate_is_usage_error(self, tmp_path, capsys):
        code = run_cli("gen-data", "--n", "12", "--censor-rate", "0.99",
                       "--out", str(tmp_path / "c"))
        assert code == 2

    @pytest.mark.parametrize("folds", ["1", "30"])
    def test_bad_folds_is_usage_error(self, tmp_path, folds):
        out = tmp_path / "c"
        code = run_cli("gen-data", "--n", "20", "--folds", folds, "--out", str(out))
        assert code == 2
        assert not out.exists()


class TestTrainCommand:
    def test_reporting_shape(self, cohort_dir, tmp_path, capsys):
        code = run_cli(
            "train", "--manifest", str(cohort_dir / "manifest.csv"),
            "--out", str(tmp_path / "run"), "--epochs", "1", "--dim", "8",
            "--bins", "3", "--seed", "4",
        )
        assert code == 0
        out = capsys.readouterr().out
        best_lines = [l for l in out.splitlines() if l.startswith("fold ")]
        summary_lines = [l for l in out.splitlines() if l.startswith("c_index ")]
        assert len(best_lines) == 2  # one per manifest fold
        assert len(summary_lines) == 1
        assert "±" in summary_lines[0]
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "fold,epoch,split,loss,c_index,wall_seconds"
        assert len(metrics) == 1 + 2 * 2  # header + (train,val) x folds x epochs

    def test_flags_override_config_file_over_defaults(self, cohort_dir, tmp_path,
                                                      monkeypatch):
        captured = {}

        def fake_train(run, manifest, out_dir, emit=None):
            captured["run"] = run
            return TrainSummary([FoldResult(0, 0, 0.5, "x")], 0.5, 0.0, [])

        monkeypatch.setattr(cli, "train_cohort", fake_train)
        config = tmp_path / "run.cfg"
        config.write_text("epochs=9\nlr=0.5\nnb=7\nexperts=tf,snn\n")
        code = run_cli(
            "train", "--manifest", str(cohort_dir / "manifest.csv"),
            "--out", str(tmp_path / "o"), "--config", str(config), "--epochs", "2",
        )
        assert code == 0
        run = captured["run"]
        assert run.epochs == 2  # flag beats file
        assert run.lr == 0.5  # file beats default
        assert run.n_b == 7  # file key with flag spelling
        assert run.enable_mask == (True, False, True, False)
        assert run.weight_decay == 1e-5  # untouched default

    def test_expert_mask_flag(self, cohort_dir, tmp_path, monkeypatch):
        captured = {}

        def fake_train(run, manifest, out_dir, emit=None):
            captured["run"] = run
            return TrainSummary([FoldResult(0, 0, 0.5, "x")], 0.5, 0.0, [])

        monkeypatch.setattr(cli, "train_cohort", fake_train)
        run_cli("train", "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(tmp_path / "o"), "--experts", "tf")
        assert captured["run"].enable_mask == (True, False, False, False)
        run_cli("train", "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(tmp_path / "o"), "--nb", "8")
        assert captured["run"].n_b == 8

    def test_mome_seed_env_fallback(self, cohort_dir, tmp_path, monkeypatch):
        captured = {}

        def fake_train(run, manifest, out_dir, emit=None):
            captured["run"] = run
            return TrainSummary([FoldResult(0, 0, 0.5, "x")], 0.5, 0.0, [])

        monkeypatch.setattr(cli, "train_cohort", fake_train)
        monkeypatch.setenv("MOME_SEED", "321")
        run_cli("train", "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(tmp_path / "o"))
        assert captured["run"].seed == 321
        run_cli("train", "--manifest", str(cohort_dir / "manifest.csv"),
                "--out", str(tmp_path / "o"), "--seed", "5")
        assert captured["run"].seed == 5

    def test_training_abort_maps_to_exit_one(self, cohort_dir, tmp_path, monkeypatch, capsys):
        def exploding(run, manifest, out_dir, emit=None):
            raise TrainingAbort("s0003", ValueError("inf"))

        monkeypatch.setattr(cli, "train_cohort", exploding)
        code = run_cli("train", "--manifest", str(cohort_dir / "manifest.csv"),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite value at sample 's0003': inf\n"
        assert issubclass(TrainingAbort, MomeError)

    def test_non_finite_time_in_manifest_is_data_error(self, cohort_dir, tmp_path, capsys):
        lines = (cohort_dir / "manifest.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[1:3] = [str(cohort_dir / name) for name in fields[1:3]]
        fields[3] = "nan"
        lines[1] = ",".join(fields)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--manifest", str(manifest), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "line 2: raw_time" in capsys.readouterr().err

    def test_manifest_byte_that_is_not_utf8_is_format_error(self, cohort_dir, tmp_path,
                                                            capsys):
        lines = (cohort_dir / "manifest.csv").read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"\n".join(lines))
        code = run_cli("train", "--manifest", str(manifest), "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "manifest line 3" in err[0] and "0xff" in err[0]

    def test_missing_manifest_is_data_error(self, tmp_path):
        code = run_cli("train", "--manifest", str(tmp_path / "none.csv"),
                       "--out", str(tmp_path / "o"))
        assert code == 3
        assert not (tmp_path / "o" / "metrics.csv").exists()  # rejected runs write nothing

    def test_partly_assigned_fold_column_is_data_error(self, cohort_dir, tmp_path, capsys):
        lines = (cohort_dir / "manifest.csv").read_text().splitlines()
        for n in range(1, len(lines)):
            fields = lines[n].split(",")
            fields[1:3] = [str(cohort_dir / name) for name in fields[1:3]]
            if n in (4, 9):
                fields[5] = "-1"
            lines[n] = ",".join(fields)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--manifest", str(manifest), "--out", str(tmp_path / "o"))
        assert code == 3
        sample = lines[4].split(",")[0]
        assert f"sample '{sample}' has no fold" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()  # rejected runs write nothing
        assert list((tmp_path / "o").glob("*.ckpt")) == []  # no fold trained

    def test_fold_the_c_index_cannot_score_is_data_error(self, tmp_path, capsys):
        """Ten samples in ten folds leave one validation sample per fold, too
        few for a C-index; the run fails naming fold 0 and writes nothing."""
        assert run_cli("gen-data", "--n", "10", "--patches", "4", "--dim", "8", "--folds", "10",
                       "--seed", "1", "--out", str(tmp_path / "c10")) == 0
        capsys.readouterr()
        code = run_cli("train", "--manifest", str(tmp_path / "c10" / "manifest.csv"),
                       "--out", str(tmp_path / "o"), "--epochs", "1", "--dim", "8", "--bins", "2")
        assert code == 3
        err = capsys.readouterr().err
        assert "fold 0 validation split cannot be scored" in err and "two samples" in err
        assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.fixture
def train_runs(cohort_dir, tmp_path, monkeypatch):
    """Run ``train`` with training stubbed out; returns the RunConfig or exit code."""
    manifest = str(cohort_dir / "manifest.csv")
    runs = []

    def fake_train(run, manifest_path, out_dir, emit=None):
        runs.append(run)
        return TrainSummary([FoldResult(0, 0, 0.5, "x")], 0.5, 0.0, [])

    def train(*flags, config=None):
        argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "o"), *flags]
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv += ["--config", str(path)]
        runs.clear()
        code = run_cli(*argv)
        return runs[0] if code == 0 else code

    monkeypatch.setattr(cli, "train_cohort", fake_train)
    return train


# RunConfig field -> (flag argv, its value, config line, its value). Every field
# needs a row, and the two values differ so that flag-over-file shows. A field
# with two values (first_encoded) gets one non-default value from its flag or
# from its config line, and the default from the other.
FIELD_SETTINGS = {
    "d": (["--dim", "16"], 16, "d=32", 32),
    "rounds": (["--rounds", "3"], 3, "rounds=4", 4),
    "n_b": (["--nb", "3"], 3, "n_b=4", 4),
    "head_count": (["--heads", "2"], 2, "head_count=4", 4),
    "time_bins": (["--bins", "5"], 5, "time_bins=6", 6),
    "enable_mask": (["--experts", "tf"], (True, False, False, False),
                    "enable_mask=snn,df", (False, False, True, True)),
    "first_encoded": (["--first-encoded", "pathology"], "pathology",
                      "first_encoded=genomics", "genomics"),
    "seed": (["--seed", "5"], 5, "seed=6", 6),
    "dropout_rate": (["--dropout", "0.5"], 0.5, "dropout_rate=0.1", 0.1),
    "epochs": (["--epochs", "3"], 3, "epochs=4", 4),
    "lr": (["--lr", "0.5"], 0.5, "lr=0.25", 0.25),
    "weight_decay": (["--weight-decay", "0.5"], 0.5, "weight_decay=0.25", 0.25),
    "folds": (["--folds", "3"], 3, "folds=4", 4),
    "key_chunk": (["--key-chunk", "16"], 16, "key_chunk=32", 32),
    "grad_accum": (["--grad-accum", "2"], 2, "grad_accum=3", 3),
}


class TestRunSettings:
    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_field_set_by_flag_and_config_key_flag_wins(self, train_runs, field):
        flag, flag_value, line, file_value = FIELD_SETTINGS[field.name]
        assert flag_value != file_value
        assert getattr(train_runs(*flag), field.name) == flag_value
        assert getattr(train_runs(config=line), field.name) == file_value
        assert getattr(train_runs(*flag, config=line), field.name) == flag_value

    @pytest.mark.parametrize("line, name, value", [
        ("dim=16", "d", 16),
        ("heads=2", "head_count", 2),
        ("bins=5", "time_bins", 5),
        ("dropout=0.5", "dropout_rate", 0.5),
        ("experts=btf", "enable_mask", (False, True, False, False)),
        ("weight-decay=0.5", "weight_decay", 0.5),
    ])
    def test_flag_spellings_and_bool_words_as_keys(self, train_runs, line, name, value):
        assert getattr(train_runs(config=line), name) == value

    def test_bad_value_names_file_line_and_key(self, train_runs, tmp_path, capsys):
        assert train_runs(config="lr=0.1\nepochs=abc\n") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'run.cfg'}:2" in err and "'epochs'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["epoch=1", "risk_mode=hazard_sum", "decoupled_wd=1",
                                      "no_prob_scaling=1", "scale_by_gate_prob=true"])
    def test_unknown_key_rejected(self, train_runs, capsys, line):
        assert train_runs(config=line) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_removed_flag_is_usage_error(self, train_runs):
        with pytest.raises(SystemExit) as exc:
            train_runs("--no-prob-scaling")
        assert exc.value.code == 2

    @pytest.mark.parametrize("line", ["first_encoded=sideways", "experts=tf,xx"])
    def test_bad_choice_rejected_before_training(self, train_runs, line):
        assert train_runs(config=line) == 2  # the stubbed training never ran


@pytest.fixture(scope="module")
def trained(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run_cli(
        "train", "--manifest", str(cohort_dir / "manifest.csv"),
        "--out", str(out), "--epochs", "1", "--dim", "8", "--bins", "3",
        "--seed", "6",
    )
    assert code == 0
    return out


class TestEvalAndRouteStats:

    def test_eval_prints_metrics(self, cohort_dir, trained, capsys):
        code = run_cli("eval", "--checkpoint", str(trained / "fold0.ckpt"),
                       "--manifest", str(cohort_dir / "manifest.csv"), "--fold", "0")
        assert code == 0
        out = capsys.readouterr().out
        assert "c_index=" in out and "loss=" in out

    def test_route_stats_histogram(self, cohort_dir, trained, tmp_path, capsys):
        log_path = tmp_path / "routing.csv"
        code = run_cli(
            "route-stats", "--checkpoint", str(trained / "fold0.ckpt"),
            "--manifest", str(cohort_dir / "manifest.csv"),
            "--log-out", str(log_path),
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        assert header[0] == "layer" and len(header) == 5
        for line in out[1:5]:
            counts = [int(v) for v in line.split(",")[1:]]
            assert sum(counts) == 20
        log_lines = log_path.read_text().splitlines()
        assert log_lines[0] == "layer,sample_id,expert,logit0,logit1,logit2,logit3"
        assert len(log_lines) == 1 + 20 * 4

    def test_route_stats_count_mismatch_is_metric_error(self, cohort_dir, trained,
                                                        monkeypatch, capsys):
        real = cli.routing_statistics

        def short_by_one(*args, **kwargs):
            stats = real(*args, **kwargs)
            stats.histogram[1, np.argmax(stats.histogram[1])] -= 1
            return stats

        monkeypatch.setattr(cli, "routing_statistics", short_by_one)
        code = run_cli("route-stats", "--checkpoint", str(trained / "fold0.ckpt"),
                       "--manifest", str(cohort_dir / "manifest.csv"))
        assert code == 3
        assert "layer 1 routed 19 samples, cohort has 20" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "route-stats"])
    def test_non_finite_checkpoint_is_format_error(self, cohort_dir, trained, tmp_path,
                                                   capsys, command):
        blob = bytearray((trained / "fold0.ckpt").read_bytes())
        start = blob.find(b"patch.w") + len(b"patch.w") + 1 + 8
        blob[start : start + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path = tmp_path / "nan.ckpt"
        path.write_bytes(bytes(blob))
        code = run_cli(command, "--checkpoint", str(path),
                       "--manifest", str(cohort_dir / "manifest.csv"))
        assert code == 3
        assert f"byte offset {start}" in capsys.readouterr().err

    # first_encoded, an enable-mask flag and the gate-scaling flag of the config block.
    @pytest.mark.parametrize("offset, value", [(36, 7), (37, 2), (41, 0)])
    def test_bad_checkpoint_flag_is_format_error(self, cohort_dir, trained, tmp_path,
                                                 capsys, offset, value):
        blob = bytearray((trained / "fold0.ckpt").read_bytes())
        blob[offset] = value
        path = tmp_path / "flag.ckpt"
        path.write_bytes(bytes(blob))
        code = run_cli("eval", "--checkpoint", str(path),
                       "--manifest", str(cohort_dir / "manifest.csv"))
        assert code == 3
        assert f"byte offset {offset}" in capsys.readouterr().err

    def test_checkpoint_cut_inside_its_version_is_format_error(self, cohort_dir, tmp_path,
                                                              capsys):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"MOMEMODL\x01")
        code = run_cli("eval", "--checkpoint", str(path),
                       "--manifest", str(cohort_dir / "manifest.csv"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "byte offset 8" in lines[0]

    def test_eval_fold_the_c_index_cannot_score_fails_before_the_forward(
            self, cohort_dir, trained, tmp_path, monkeypatch, capsys):
        """A fold of one sample cannot be scored: eval says so, naming the
        fold and the manifest, before any forward pass runs."""
        rows = read_manifest(cohort_dir / "manifest.csv")
        rows[0].fold = 9
        for row in rows:
            row.patho_path = str(cohort_dir / row.patho_path)
            row.geno_path = str(cohort_dir / row.geno_path)
        manifest = str(tmp_path / "manifest.csv")
        write_manifest(manifest, rows)

        def refuse(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(MoMEModel, "forward", refuse)
        code = run_cli("eval", "--checkpoint", str(trained / "fold0.ckpt"),
                       "--manifest", manifest, "--fold", "9")
        assert code == 3
        assert f"fold 9 of {manifest} cannot be scored" in capsys.readouterr().err

    def test_checkpoint_manifest_mismatch(self, cohort_dir, trained, tmp_path):
        other = tmp_path / "other"
        synthesize_cohort(12, 4, 5, "patho", 0.0, seed=1, out_dir=other)
        code = run_cli("eval", "--checkpoint", str(trained / "fold0.ckpt"),
                       "--manifest", str(other / "manifest.csv"))
        assert code == 3


class TestOutOfRangeSettings:
    """A bad run setting exits 2 before the cohort is read."""

    @pytest.fixture
    def cohort_never_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the cohort was read")

        monkeypatch.setattr(training, "load_cohort", refuse)
        monkeypatch.setattr(cli, "load_cohort", refuse)

    @pytest.mark.parametrize("flags", [
        ["--epochs", "0"], ["--epochs", "-2"], ["--key-chunk", "0"], ["--lr", "0"],
        ["--lr=-1e-4"], ["--dropout", "1.5"], ["--dropout", "nan"], ["--weight-decay=-1"],
        ["--weight-decay", "nan"], ["--folds", "1"], ["--lr", "inf"],
    ])
    def test_train_flag(self, cohort_dir, tmp_path, cohort_never_read, capsys, flags):
        code = run_cli("train", "--manifest", str(cohort_dir / "manifest.csv"),
                       "--out", str(tmp_path / "o"), *flags)
        assert code == 2
        setting = flags[0].split("=")[0].lstrip("-").replace("-", "_")
        assert setting in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["epochs=0", "key_chunk=-1", "lr=0", "dropout_rate=1",
                                      "weight_decay=-1e-5", "folds=1", "lr=inf",
                                      "lr=1e-3 # caf\udce9"])
    def test_train_config_key(self, cohort_dir, tmp_path, cohort_never_read, capsys, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n", encoding="utf-8", errors="surrogateescape")
        code = run_cli("train", "--manifest", str(cohort_dir / "manifest.csv"),
                       "--out", str(tmp_path / "o"), "--config", str(path))
        assert code == 2
        if not line.isascii():  # one byte 0xe9 that is not UTF-8
            assert f"{path}:1: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "route-stats"])
    @pytest.mark.parametrize("value", ["0", "-8", "many"])
    def test_key_chunk_of_eval_and_route_stats(self, cohort_dir, cohort_never_read, monkeypatch,
                                               capsys, command, value):
        """``RunConfig`` rejects an out-of-range value before the checkpoint
        is read; a value that is not an integer is an argparse usage error."""
        def refuse(*args, **kwargs):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli, "load_checkpoint", refuse)
        argv = (command, "--checkpoint", str(cohort_dir / "fold0.ckpt"),
                "--manifest", str(cohort_dir / "manifest.csv"), "--key-chunk", value)
        if value == "many":
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
            assert "--key-chunk" in capsys.readouterr().err
        else:
            assert run_cli(*argv) == 2
            assert "key_chunk" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_single_component_pass(self, capsys):
        code = run_cli("gradcheck", "--component", "matmul", "--seeds", "3")
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_dropf2_reports_exact_zero(self, capsys):
        code = run_cli("gradcheck", "--component", "dropf2", "--seeds", "3")
        assert code == 0
        out = capsys.readouterr().out
        assert "reference-modality gradient exactly zero" in out

    def test_unknown_component_is_usage_error(self):
        assert run_cli("gradcheck", "--component", "nope") == 2

    @pytest.mark.parametrize("flags", [
        ("--seeds", "0"), ("--seeds", "-3"), ("--tolerance", "0"), ("--tolerance", "-0.5"),
        ("--tolerance", "inf"), ("--tolerance", "nan"),
    ])
    def test_vacuous_run_is_usage_error(self, flags, capsys):
        assert run_cli("gradcheck", "--component", "matmul", *flags) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "gradcheck" in captured.err

    @pytest.mark.parametrize("name", list(COMPONENTS))
    def test_injected_fault_detected(self, name):
        results = run_suite(components=[name], seeds=2, fault_component=name)
        assert not results[0].passed
