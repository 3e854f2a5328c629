"""Property tests of the cohort and checkpoint readers against mutated files.

Each case starts from a file the package's own writer made, applies a few
byte flips, cuts and insertions, and reads the result: the reader either
loads it, as the type its format promises, or raises a ``MomeError``. It
never raises an untyped exception, prints a numpy warning or hangs.
Kept apart from test_data.py because they need hypothesis (the ``dev``
extra); without it only this module fails to collect.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mome.bpe import ModelConfig, MoMEModel, load_checkpoint, save_checkpoint
from mome.data import (
    N_GROUPS,
    GenomicGroups,
    ManifestRow,
    read_feature_file,
    read_genomic_file,
    read_manifest,
    write_feature_file,
    write_genomic_file,
    write_manifest,
)
from mome.errors import MomeError

MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 16), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=4)
READER_SETTINGS = settings(max_examples=300, deadline=500, derandomize=True, database=None)


def mutate(blob: bytes, mutations) -> bytes:
    """``blob`` with each mutation applied in turn; a position wraps around
    the current length, a flip xors one byte and a cut drops the tail."""
    data = bytearray(blob)
    for kind, position, arg in mutations:
        at = position % (len(data) + 1)
        if kind == "flip" and at < len(data):
            data[at] ^= arg
        elif kind == "cut":
            del data[at:]
        elif kind == "insert":
            data[at:at] = arg
    return bytes(data)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A two-sample cohort and a small model's checkpoint the writers made,
    and the bytes of each file."""
    out = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(5)
    rows = []
    for i in range(2):
        write_feature_file(out / f"s{i}.mmef", rng.standard_normal((3, 4)))
        write_genomic_file(out / f"s{i}.mmeg",
                           GenomicGroups(tuple(rng.standard_normal(1 + g % 3)
                                               for g in range(N_GROUPS))))
        rows.append(ManifestRow(f"s{i}", f"s{i}.mmef", f"s{i}.mmeg", 30.5 * (i + 1), i == 1, i))
    write_manifest(out / "manifest.csv", rows)
    save_checkpoint(MoMEModel(ModelConfig(d=4, rounds=1, n_b=1, head_count=2, time_bins=2,
                                          d_in=3, group_sizes=(1, 2, 1, 2, 1, 2), seed=7)),
                    out / "model.ckpt")
    blobs = {name: (out / name).read_bytes()
             for name in ("s0.mmef", "s0.mmeg", "manifest.csv", "model.ckpt")}
    return out, blobs


def read_mutated(cohort, name, reader, mutations):
    """Write the mutated file next to the cohort and read it; the loaded
    value, or None when the reader raised a ``MomeError``."""
    out, blobs = cohort
    path = out / f"mutated.{name}"
    path.write_bytes(mutate(blobs[name], mutations))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return reader(path)
        except MomeError:
            return None


class TestMutatedFiles:
    @READER_SETTINGS
    @given(MUTATIONS)
    def test_feature_file_loads_as_float32_rows_or_raises_a_mome_error(self, cohort, mutations):
        bag = read_mutated(cohort, "s0.mmef", read_feature_file, mutations)
        if bag is not None:
            assert bag.dtype == np.float32 and bag.ndim == 2 and bag.size >= 1
            assert np.all(np.isfinite(bag))

    @READER_SETTINGS
    @given(MUTATIONS)
    def test_genomic_file_loads_as_six_groups_or_raises_a_mome_error(self, cohort, mutations):
        groups = read_mutated(cohort, "s0.mmeg", read_genomic_file, mutations)
        if groups is not None:
            assert isinstance(groups, GenomicGroups) and len(groups.values) == N_GROUPS
            assert all(len(v) >= 1 and np.all(np.isfinite(v)) for v in groups.values)

    @READER_SETTINGS
    @given(MUTATIONS)
    def test_manifest_loads_as_rows_or_raises_a_mome_error(self, cohort, mutations):
        rows = read_mutated(cohort, "manifest.csv", read_manifest, mutations)
        if rows is not None:
            assert all(isinstance(row, ManifestRow) for row in rows)

    @READER_SETTINGS
    @given(MUTATIONS)
    def test_checkpoint_loads_as_a_finite_model_or_raises_a_mome_error(self, cohort, mutations):
        model = read_mutated(cohort, "model.ckpt", load_checkpoint, mutations)
        if model is not None:
            assert isinstance(model, MoMEModel)
            assert all(np.all(np.isfinite(t.data)) for _, t in model.parameters())
