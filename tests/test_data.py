import hashlib
import os
import warnings

import numpy as np
import pytest

import mome.numcore as nc
from mome.bpe import GenomicGroups
from mome.data import (
    DEFAULT_GROUP_SIZES,
    ManifestRow,
    discretize_times,
    kfold_split,
    read_feature_file,
    read_genomic_file,
    read_manifest,
    resolve_path,
    synthesize_cohort,
    write_feature_file,
    write_genomic_file,
    write_manifest,
)
from mome.errors import ConfigError, DataError, FormatError
from mome.survival import SurvivalTarget, c_index, hazards_from_logits, nll_loss


class TestFeatureFileFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = nc.rng_stream(60)
        bag = rng.standard_normal((33, 64)).astype(np.float32).astype(np.float64)
        path = tmp_path / "bag.mmef"
        write_feature_file(path, bag)
        assert np.array_equal(read_feature_file(path), bag)

    def test_roundtrip_property_100_bags(self, tmp_path):
        rng = nc.rng_stream(61)
        path = tmp_path / "bag.mmef"
        for _ in range(100):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 24))
            bag = (10 * rng.standard_normal((n, d))).astype(np.float32).astype(np.float64)
            write_feature_file(path, bag)
            assert np.array_equal(read_feature_file(path), bag)

    def test_read_returns_the_float32_values_written(self, tmp_path):
        bag = nc.rng_stream(65).standard_normal((9, 5)).astype(np.float32)
        path = tmp_path / "bag.mmef"
        write_feature_file(path, bag)
        loaded = read_feature_file(path)
        assert loaded.dtype == np.float32 and loaded.shape == (9, 5)
        assert np.array_equal(loaded, bag)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "bag.mmef"
        write_feature_file(path, np.ones((4, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert "64" in str(err.value) and "59" in str(err.value)

    def test_zero_tokens_rejected_on_read(self, tmp_path):
        import struct

        path = tmp_path / "bag.mmef"
        path.write_bytes(b"MMEF" + struct.pack("<III", 1, 0, 4))
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_zero_tokens_rejected_on_write(self, tmp_path):
        with pytest.raises(DataError):
            write_feature_file(tmp_path / "bag.mmef", np.zeros((0, 4)))

    def test_zero_width_rejected_at_its_header_field(self, tmp_path):
        import struct

        path = tmp_path / "bag.mmef"
        path.write_bytes(b"MMEF" + struct.pack("<III", 1, 3, 0))
        with pytest.raises(FormatError, match="zero width") as err:
            read_feature_file(path)
        assert err.value.offset == 12
        with pytest.raises(DataError):
            write_feature_file(path, np.zeros((3, 0)))

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bag.mmef"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "bag.mmef"
        path.write_bytes(b"MMEF" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "bag.mmef"
        write_feature_file(path, (np.arange(15.0).reshape(5, 3) - 7) / 4)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c7751fcb0bd22eedd231d894c3d3b72636d570e219b72790aa0f8c0678cdf626")


class TestGenomicFileFormat:
    def test_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "g.mmeg"
        write_genomic_file(path, GenomicGroups(tuple(np.arange(n, dtype=float) / 2 - 1
                                                     for n in range(1, 7))))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f8a3cb52dab34408b3c9cc64c7806816d847ca27a0a3059fec5ba6720a11c5ea")

    def test_roundtrip(self, tmp_path):
        rng = nc.rng_stream(62)
        groups = GenomicGroups(
            tuple(rng.standard_normal(s).astype(np.float32).astype(np.float64)
                  for s in DEFAULT_GROUP_SIZES)
        )
        path = tmp_path / "g.mmeg"
        write_genomic_file(path, groups)
        loaded = read_genomic_file(path)
        for a, b in zip(groups.values, loaded.values):
            assert np.array_equal(a, b)

    def test_descending_ids_rejected(self, tmp_path):
        rng = nc.rng_stream(63)
        groups = GenomicGroups(tuple(rng.standard_normal(3) for _ in range(6)))
        path = tmp_path / "g.mmeg"
        write_genomic_file(path, groups)
        blob = bytearray(path.read_bytes())
        blob[8] = 3  # first block id becomes 3
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_genomic_file(path)

    def test_truncated_block_rejected(self, tmp_path):
        rng = nc.rng_stream(64)
        groups = GenomicGroups(tuple(rng.standard_normal(4) for _ in range(6)))
        path = tmp_path / "g.mmeg"
        write_genomic_file(path, groups)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_genomic_file(path)

    def test_empty_group_rejected_at_its_block_header(self, tmp_path):
        path = tmp_path / "g.mmeg"
        write_genomic_file(path, GenomicGroups(tuple(np.ones(3) for _ in range(6))))
        blob = bytearray(path.read_bytes())
        # Header 8 bytes, then per group a 5-byte block header and 12 payload bytes;
        # group 2 loses its payload and declares length 0.
        start = 8 + 2 * 17
        blob[start + 1 : start + 17] = b"\x00\x00\x00\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="genomic group 2 is empty") as err:
            read_genomic_file(path)
        assert err.value.offset == start

    def test_train_over_zero_width_bags_exits_3(self, tmp_path, capsys):
        import struct

        import mome.cli as cli

        manifest = synthesize_cohort(12, 4, 6, "geno", 0.0, seed=5, out_dir=tmp_path, folds=2)
        for row in read_manifest(manifest):
            (tmp_path / row.patho_path).write_bytes(b"MMEF" + struct.pack("<III", 1, 4, 0))
        assert cli.main(["train", "--manifest", manifest, "--out", str(tmp_path / "run"),
                         "--epochs", "1", "--dim", "8"]) == 3
        assert "zero width (at byte offset 12)" in capsys.readouterr().err


class TestNonFiniteValues:
    """NaN, Inf and values past the float32 range never reach the model."""

    @pytest.mark.parametrize("bad", [1e39, -1e39, np.nan, np.inf])
    def test_feature_writer_rejects_and_writes_nothing(self, tmp_path, bad):
        bag = np.zeros((3, 4))
        bag[1, 2] = bad
        path = tmp_path / "bag.mmef"
        with pytest.raises(DataError, match=r"index \(1, 2\)"):
            write_feature_file(path, bag)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [3.5e38, np.nan, -np.inf])
    def test_genomic_writer_rejects_and_writes_nothing(self, tmp_path, bad):
        values = [np.ones(3) for _ in range(6)]
        values[4][2] = bad
        path = tmp_path / "g.mmeg"
        with pytest.raises(DataError, match="genomic group 4"):
            write_genomic_file(path, GenomicGroups(tuple(values)))
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feature_reader_names_byte_offset_of_first_bad_value(self, tmp_path, bad):
        path = tmp_path / "bag.mmef"
        write_feature_file(path, np.ones((4, 3)))
        blob = bytearray(path.read_bytes())
        for index in (7, 9):  # row 2 column 1, then a later one
            blob[16 + 4 * index : 20 + 4 * index] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 16 + 4 * 7

    def test_genomic_reader_names_byte_offset_of_first_bad_value(self, tmp_path):
        path = tmp_path / "g.mmeg"
        write_genomic_file(path, GenomicGroups(tuple(np.ones(3) for _ in range(6))))
        blob = bytearray(path.read_bytes())
        # Header 8 bytes, then per group a 5-byte block header and 12 payload bytes.
        offset = 8 + 2 * 17 + 5 + 4  # group 2, value 1
        blob[offset : offset + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="genomic group 2") as err:
            read_genomic_file(path)
        assert err.value.offset == offset

    # Signalling NaN: exponent all ones, quiet bit clear, payload 1.
    SIGNALLING_NAN = bytes.fromhex("0100807f")

    def test_feature_reader_signalling_nan_warns_nothing(self, tmp_path):
        path = tmp_path / "bag.mmef"
        write_feature_file(path, np.ones((4, 3)))
        blob = bytearray(path.read_bytes())
        blob[16 + 4 * 5 : 20 + 4 * 5] = self.SIGNALLING_NAN
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings(), pytest.raises(FormatError) as err:
            warnings.simplefilter("error")
            read_feature_file(path)
        assert err.value.offset == 16 + 4 * 5

    def test_genomic_reader_signalling_nan_warns_nothing(self, tmp_path):
        path = tmp_path / "g.mmeg"
        write_genomic_file(path, GenomicGroups(tuple(np.ones(3) for _ in range(6))))
        blob = bytearray(path.read_bytes())
        offset = 8 + 3 * 17 + 5 + 8  # group 3, value 2
        blob[offset : offset + 4] = self.SIGNALLING_NAN
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings(), pytest.raises(FormatError, match="group 3") as err:
            warnings.simplefilter("error")
            read_genomic_file(path)
        assert err.value.offset == offset

    def test_train_over_a_non_finite_file_exits_3(self, tmp_path, capsys):
        import mome.cli as cli

        manifest = synthesize_cohort(12, 4, 6, "geno", 0.0, seed=5, out_dir=tmp_path, folds=2)
        rows = read_manifest(manifest)
        bag_path = tmp_path / rows[3].patho_path
        blob = bytearray(bag_path.read_bytes())
        blob[16:20] = np.float32(np.inf).tobytes()
        bag_path.write_bytes(bytes(blob))
        assert cli.main(["train", "--manifest", manifest, "--out", str(tmp_path / "run"),
                         "--epochs", "1", "--dim", "8"]) == 3
        assert "byte offset 16" in capsys.readouterr().err


class TestManifest:
    def make_rows(self, tmp_path, n=4):
        rows = []
        for i in range(n):
            patho, geno = f"s{i}.mmef", f"s{i}.mmeg"
            write_feature_file(tmp_path / patho, np.ones((2, 3)))
            write_genomic_file(
                tmp_path / geno, GenomicGroups(tuple(np.ones(2) for _ in range(6)))
            )
            rows.append(ManifestRow(f"s{i}", patho, geno, 10.0 * (i + 1), i % 2 == 0, i % 2))
        return rows

    def test_roundtrip(self, tmp_path):
        rows = self.make_rows(tmp_path)
        path = tmp_path / "manifest.csv"
        write_manifest(path, rows)
        assert read_manifest(path) == rows

    def test_duplicate_ids_rejected(self, tmp_path):
        rows = self.make_rows(tmp_path)
        rows[1].sample_id = rows[0].sample_id
        path = tmp_path / "manifest.csv"
        write_manifest(path, rows)
        with pytest.raises(DataError):
            read_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        rows = self.make_rows(tmp_path)
        os.remove(resolve_path(tmp_path / "manifest.csv", rows[2].patho_path))
        path = tmp_path / "manifest.csv"
        write_manifest(path, rows)
        with pytest.raises(DataError):
            read_manifest(path)

    @pytest.mark.parametrize("raw_time", ["nan", "inf", "1e400", "-inf", "0.0"])
    def test_non_finite_or_nonpositive_time_rejected_on_read(self, tmp_path, raw_time):
        path = tmp_path / "manifest.csv"
        write_manifest(path, self.make_rows(tmp_path))
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = raw_time
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 3: raw_time"):
            read_manifest(path)

    @pytest.mark.parametrize("raw_time", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_nonpositive_time_rejected_on_write(self, tmp_path, raw_time):
        rows = self.make_rows(tmp_path)
        rows[1].raw_time = raw_time
        path = tmp_path / "manifest.csv"
        with pytest.raises(DataError, match="'s1': raw_time"):
            write_manifest(path, rows)
        assert not path.exists()

    def test_bytes_that_are_not_utf8_rejected_at_their_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, self.make_rows(tmp_path))
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b"s2", b"s\xc3\x28", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match="manifest line 4: byte 0xc3 is not UTF-8"):
            read_manifest(path)

    def test_csv_error_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, self.make_rows(tmp_path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("s1", '"' + "x" * 200_000 + '"', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="manifest line 3: field larger than field limit"):
            read_manifest(path)

    def test_line_numbers_count_physical_lines(self, tmp_path):
        """A quoted sample id that spans two lines moves the next record to
        line 4."""
        path = tmp_path / "manifest.csv"
        write_manifest(path, self.make_rows(tmp_path, n=2))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("s0", '"s\n0"', 1)
        lines[2] = lines[2].replace(",20.0,", ",nan,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="manifest line 4: raw_time nan"):
            read_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,time\n1,2\n")
        with pytest.raises(FormatError):
            read_manifest(path)


class TestDiscretizeTimes:
    def test_quantile_oracle(self):
        rows = [ManifestRow(f"s{t}", "p", "g", float(t), False) for t in range(1, 101)]
        edges, bins = discretize_times(rows, 4)
        assert np.allclose(edges, [25.75, 50.5, 75.25], atol=1e-12)
        counts = np.bincount(bins, minlength=4)
        assert counts.sum() == 100 and np.all(counts == 25)

    def test_identical_times_rejected(self):
        rows = [ManifestRow(f"s{i}", "p", "g", 5.0, False) for i in range(10)]
        with pytest.raises(DataError):
            discretize_times(rows, 4)

    def test_too_few_uncensored_rejected(self):
        rows = [ManifestRow(f"s{i}", "p", "g", float(i + 1), i > 1) for i in range(10)]
        with pytest.raises(DataError):
            discretize_times(rows, 4)

    def test_partition_and_monotonicity(self):
        rng = nc.rng_stream(65)
        times = rng.exponential(100, size=60) + 1
        rows = [
            ManifestRow(f"s{i}", "p", "g", float(t), bool(rng.random() < 0.3))
            for i, t in enumerate(times)
        ]
        _, bins = discretize_times(rows, 4)
        assert all(0 <= b < 4 for b in bins)
        order = np.argsort(times)
        sorted_bins = np.array(bins)[order]
        assert np.all(np.diff(sorted_bins) >= 0)


class TestKfoldSplit:
    def rows(self, n, censor_every=3):
        return [
            ManifestRow(f"s{i}", "p", "g", float(i + 1), i % censor_every == 0)
            for i in range(n)
        ]

    def test_ten_samples_five_folds_of_two(self):
        folds = kfold_split(self.rows(10), k=5, seed=1)
        assert sorted(np.bincount(folds, minlength=5)) == [2, 2, 2, 2, 2]

    def test_union_complete_and_disjoint(self):
        rows = self.rows(23)
        folds = kfold_split(rows, k=5, seed=2)
        assert len(folds) == 23
        sizes = np.bincount(folds, minlength=5)
        assert sizes.sum() == 23 and sizes.max() - sizes.min() <= 1

    def test_stratified_by_censorship(self):
        rows = self.rows(40, censor_every=2)
        folds = kfold_split(rows, k=5, seed=3)
        for flag in (True, False):
            per_fold = np.bincount(
                [f for f, r in zip(folds, rows) if r.censored == flag], minlength=5
            )
            assert per_fold.max() - per_fold.min() <= 1

    def test_seed_determinism(self):
        rows = self.rows(30)
        assert kfold_split(rows, 5, seed=7) == kfold_split(rows, 5, seed=7)
        assert kfold_split(rows, 5, seed=7) != kfold_split(rows, 5, seed=8)

    def test_too_many_folds_rejected(self):
        with pytest.raises(DataError):
            kfold_split(self.rows(4), k=5, seed=0)


class TestSynthesizeCohort:
    def test_zero_censor_rate_means_no_censoring(self, tmp_path):
        manifest = synthesize_cohort(12, 8, 6, "patho", 0.0, seed=3, out_dir=tmp_path)
        rows = read_manifest(manifest)
        assert len(rows) == 12
        assert all(not r.censored for r in rows)

    def test_same_seed_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        synthesize_cohort(14, 8, 6, "cross", 0.25, seed=9, out_dir=out_a)
        synthesize_cohort(14, 8, 6, "cross", 0.25, seed=9, out_dir=out_b)
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        synthesize_cohort(12, 8, 6, "cross", 0.25, seed=9, out_dir=out_a)
        synthesize_cohort(12, 8, 6, "cross", 0.25, seed=10, out_dir=out_b)
        assert (out_a / "manifest.csv").read_bytes() != (out_b / "manifest.csv").read_bytes()

    def test_censor_rate_roughly_calibrated(self, tmp_path):
        manifest = synthesize_cohort(400, 4, 4, "geno", 0.3, seed=5, out_dir=tmp_path)
        rows = read_manifest(manifest)
        frac = np.mean([r.censored for r in rows])
        assert 0.18 <= frac <= 0.42

    def test_files_parse_and_match_dims(self, tmp_path):
        manifest = synthesize_cohort(10, 7, 5, "cross", 0.2, seed=11, out_dir=tmp_path)
        rows = read_manifest(manifest)
        bag = read_feature_file(resolve_path(manifest, rows[0].patho_path))
        assert bag.shape == (7, 5)
        groups = read_genomic_file(resolve_path(manifest, rows[0].geno_path))
        assert groups.sizes == DEFAULT_GROUP_SIZES

    def test_folds_assigned(self, tmp_path):
        manifest = synthesize_cohort(25, 4, 4, "patho", 0.2, seed=13, out_dir=tmp_path)
        rows = read_manifest(manifest)
        assert set(r.fold for r in rows) == {0, 1, 2, 3, 4}

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            synthesize_cohort(5, 4, 4, "patho", 0.2, seed=1, out_dir=tmp_path)
        with pytest.raises(ConfigError):
            synthesize_cohort(12, 4, 4, "patho", 0.95, seed=1, out_dir=tmp_path)
        with pytest.raises(ConfigError):
            synthesize_cohort(12, 4, 4, "nope", 0.2, seed=1, out_dir=tmp_path)

    @pytest.mark.parametrize("folds", [1, 13])
    def test_bad_folds_rejected_before_any_file_is_written(self, tmp_path, folds):
        out = tmp_path / "cohort"
        with pytest.raises(ConfigError, match="folds"):
            synthesize_cohort(12, 4, 4, "patho", 0.2, seed=1, out_dir=out, folds=folds)
        assert not out.exists()

    def test_cross_self_test_passes_at_acceptance_scale(self, tmp_path):
        # The generator raises if the marginal or interaction R2 bounds fail.
        synthesize_cohort(200, 16, 64, "cross", 0.3, seed=7, out_dir=tmp_path)


def _load_cohort(manifest):
    rows = read_manifest(manifest)
    _, bins = discretize_times(rows, 4)
    bags = [read_feature_file(resolve_path(manifest, r.patho_path)) for r in rows]
    genomics = [read_genomic_file(resolve_path(manifest, r.geno_path)) for r in rows]
    targets = [
        SurvivalTarget(bin=b, censored=r.censored, raw_time=r.raw_time)
        for b, r in zip(bins, rows)
    ]
    return rows, bags, genomics, targets


def _train_linear_survival(features, targets, train_idx, epochs=60, lr=5e-2):
    """Tiny censored-survival regressor used as a signal-recovery oracle."""
    width = features.shape[1]
    rng = nc.rng_stream(1)
    w = nc.Tensor(0.01 * rng.standard_normal((width, 4)), requires_grad=True)
    b = nc.Tensor(np.zeros(4), requires_grad=True)
    opt = nc.Adam([w, b], lr=lr, weight_decay=0.0)
    for _ in range(epochs):
        opt.zero_grad()
        for i in train_idx:
            logits = nc.add(nc.matmul(nc.Tensor(features[i : i + 1]), w), b)
            loss = nll_loss(hazards_from_logits(logits), targets[i])
            nc.mul(loss, 1.0 / len(train_idx)).backward()
        opt.step()

    def risk(i):
        with nc.no_grad():
            logits = features[i : i + 1] @ w.data + b.data
        from scipy.special import expit

        return float(np.sum(expit(logits)))

    return risk


class TestGenoSignalBaselines:
    def test_snn_style_genomic_baseline_beats_pathology_pooling(self, tmp_path):
        manifest = synthesize_cohort(120, 16, 8, "geno", 0.2, seed=21, out_dir=tmp_path)
        rows, bags, genomics, targets = _load_cohort(manifest)
        train_idx = [i for i, r in enumerate(rows) if r.fold != 0]
        val_idx = [i for i, r in enumerate(rows) if r.fold == 0]

        geno_features = np.array(
            [[float(g.mean()) for g in groups.values] for groups in genomics]
        )
        patho_features = np.array([bag.mean(axis=0) for bag in bags])

        geno_risk = _train_linear_survival(geno_features, targets, train_idx)
        patho_risk = _train_linear_survival(patho_features, targets, train_idx)

        val_targets = [targets[i] for i in val_idx]
        geno_c = c_index([geno_risk(i) for i in val_idx], val_targets)
        patho_c = c_index([patho_risk(i) for i in val_idx], val_targets)
        assert geno_c >= 0.8, f"genomic baseline too weak: {geno_c:.3f}"
        assert patho_c <= 0.6, f"pathology pooling should be uninformative: {patho_c:.3f}"
