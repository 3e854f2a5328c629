"""Workload definitions: seeded inputs, set-up, the measured unit, checks.

Every workload is closed-loop and single-process: the program handles
one sample at a time, as it trains. A *unit* is the fixed piece of work
a run repeats until its time is used up:

* ``acceptance_train``: ``train_fold`` for one epoch on fold 0 of the
  acceptance-shaped cohort (train pass, validation pass, C-index),
* ``wsi_ragged``: the same on slide-sized ragged bags, TF expert only,
* ``cohort_eval``: ``routing_statistics`` over a thousand samples
  from a saved checkpoint (forward only, routing log, C-index).

Every unit repeats identical work, so each unit's metrics stream
(losses, C-indices, routing histogram) must equal the first one's.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

ALL_EXPERTS = (True, True, True, True)
TF_ONLY = (True, False, False, False)
FOLD = 0
# The model's init, shuffling and dropout seed, and the seed of the
# synthetic sample pool, are the same for every benchmark seed; the
# benchmark seed picks the cohort from the pool and its fold split.
# Expert cost differs by an order of magnitude (skip vs two attentions)
# and a fresh gate routes by cohort-level features of the synthetic data,
# so a per-seed model or pool would move throughput by routing luck
# rather than by the code.
MODEL_SEED = 7
POOL_SEED = 7


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's inputs and the model run on them."""

    name: str
    samples: int
    pool: int  # samples synthesized; each seed draws ``samples`` of them
    patches: tuple[int, int]  # inclusive range of patches per bag
    dim: int
    signal: str
    experts: tuple[bool, bool, bool, bool]
    key_chunk: int | None
    training: bool  # train_fold units; otherwise checkpoint inference
    folds: int = 5  # fold 0 is the validation split
    # Share of censored samples in the pool. The program places its time
    # bin edges at quantiles of the event times, which needs at least
    # four events in the cohort.
    censor_rate: float = 0.3

    @property
    def ragged(self) -> bool:
        return self.patches[0] != self.patches[1]


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="acceptance_train",
            samples=200, pool=400, patches=(128, 128), dim=64, signal="cross",
            experts=ALL_EXPERTS, key_chunk=4096, training=True,
        ),
        Spec(
            name="wsi_ragged",
            samples=6, pool=12, patches=(500, 3000), dim=64, signal="geno",
            experts=TF_ONLY, key_chunk=512, training=True, folds=2,
            # Six samples: too few for any censoring to leave four events
            # on every seed's draw.
            censor_rate=0.0,
        ),
        Spec(
            name="cohort_eval",
            samples=1000, pool=2000, patches=(32, 32), dim=64, signal="cross",
            experts=ALL_EXPERTS, key_chunk=None, training=False,
        ),
    )
}


def sub_seed(seed: int, purpose: int) -> int:
    """Independent 63-bit seed per purpose, stable for a given ``seed``."""
    state = np.random.SeedSequence([seed & (2**63 - 1), purpose]).generate_state(1, np.uint64)
    return int(state[0]) >> 1


def run_config(spec: Spec):
    from mome.training import RunConfig

    return RunConfig(seed=MODEL_SEED, epochs=1, enable_mask=spec.experts,
                     key_chunk=spec.key_chunk)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def ragged_sizes(spec: Spec, count: int, rng: np.random.Generator) -> list[int]:
    """Evenly spaced sizes over the patch range (stratum midpoints) in a
    seeded order: every seed gets a different sample-to-size assignment
    but the same total attention work, so throughput does not depend on
    how large the seed's bags happen to be."""
    low, high = spec.patches
    width = (high - low) / count
    sizes = [int(low + (i + 0.5) * width) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def generate(spec: Spec, seed: int, out_dir: str) -> str:
    """Write the workload's input files through the package's public writers.

    Synthesizes the fixed pool, then writes ``cohort.csv``: a seeded draw
    of ``spec.samples`` pool rows with a seeded fold split. Returns that
    manifest's path. ``cohort_eval`` also gets ``model.ckpt``, a freshly
    seeded model saved with ``save_checkpoint``.
    """
    from mome import data
    from mome.bpe import MoMEModel, ModelConfig, save_checkpoint
    from mome.numcore import rng_stream

    pool = data.synthesize_cohort(
        spec.pool, 1 if spec.ragged else spec.patches[0], spec.dim, spec.signal,
        spec.censor_rate, POOL_SEED, out_dir, folds=spec.folds,
    )
    rows = data.read_manifest(pool)
    rng = rng_stream(sub_seed(seed, 1))
    rows = [rows[i] for i in sorted(rng.choice(len(rows), spec.samples, replace=False))]
    folds = data.kfold_split(rows, k=spec.folds, seed=sub_seed(seed, 2))
    rows = [replace(row, fold=fold) for row, fold in zip(rows, folds)]
    manifest = os.path.join(out_dir, "cohort.csv")
    data.write_manifest(manifest, rows)
    if spec.ragged:
        # Replace the one-patch bags with ragged slide-sized ones, sized
        # within each split, so train and validation work are both fixed.
        for in_fold in (False, True):
            chosen = [r for r in rows if (r.fold == FOLD) == in_fold]
            for row, size in zip(chosen, ragged_sizes(spec, len(chosen), rng)):
                bag = rng.standard_normal((size, spec.dim))
                data.write_feature_file(data.resolve_path(manifest, row.patho_path), bag)
    if not spec.training:
        config = ModelConfig(seed=MODEL_SEED, d_in=spec.dim,
                             group_sizes=data.DEFAULT_GROUP_SIZES, enable_mask=spec.experts)
        save_checkpoint(MoMEModel(config), checkpoint_path(out_dir))
    return manifest


def checkpoint_path(input_dir: str) -> str:
    return os.path.join(input_dir, "model.ckpt")


# ---------------------------------------------------------------------------
# set-up and the unit
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    cohort: object
    model: object | None  # the loaded checkpoint (inference workloads)


def setup(spec: Spec, manifest: str) -> Prepared:
    """Load the cohort and build (training) or load (inference) the model."""
    from mome.bpe import MoMEModel, load_checkpoint
    from mome.numcore import Adam
    from mome.training import load_cohort, model_config_for

    run = run_config(spec)
    if spec.training:
        cohort = load_cohort(manifest, run.time_bins)
        model = MoMEModel(model_config_for(run, cohort, FOLD))
        Adam([t for _, t in model.parameters()], lr=run.lr, weight_decay=run.weight_decay)
        return Prepared(cohort, None)
    model = load_checkpoint(checkpoint_path(os.path.dirname(manifest)))
    return Prepared(load_cohort(manifest, run.time_bins), model)


@dataclass
class UnitResult:
    train_samples: int
    eval_samples: int
    train_s: float  # train pass (training workloads) or 0
    eval_s: float  # validation / inference pass, C-index included
    epoch_s: float  # the whole pass: train, validation, C-index
    stream: list  # metrics stream compared across units and traced runs
    train_loss: float
    eval_loss: float
    histogram: np.ndarray  # [layers, experts] routing counts
    eval_indices: list[int]
    eval_risks: list[float]
    eval_c_index: float


def run_unit(spec: Spec, prepared: Prepared, capture, out_dir: str) -> UnitResult:
    """One repetition of the workload's fixed work; ``capture`` is a
    :class:`tracer.Capture` that is active around the call."""
    from mome.training import routing_statistics, train_fold

    capture.reset()
    cohort = prepared.cohort
    if spec.training:
        records = []
        train_fold(run_config(spec), cohort, FOLD, out_dir, records.append)
        train, val = records
        (model,) = capture.models
        (indices, (_, _, risks)), = capture.evaluations
        histogram = np.array([layer.call_counts for layer in model.layers], dtype=np.int64)
        return UnitResult(
            train_samples=sum(1 for r in cohort.rows if r.fold != FOLD),
            eval_samples=len(indices),
            train_s=train.wall_seconds,
            eval_s=val.wall_seconds - train.wall_seconds,
            epoch_s=val.wall_seconds,
            stream=[(r.split, r.loss, r.c_index) for r in records] + [histogram.tolist()],
            train_loss=train.loss,
            eval_loss=val.loss,
            histogram=histogram,
            eval_indices=indices,
            eval_risks=risks,
            eval_c_index=val.c_index,
        )
    start = time.perf_counter()
    stats = routing_statistics(prepared.model, cohort, key_chunk=spec.key_chunk)
    elapsed = time.perf_counter() - start
    (indices, (loss, score, risks)), = capture.evaluations
    return UnitResult(
        train_samples=0,
        eval_samples=len(indices),
        train_s=0.0,
        eval_s=elapsed,
        epoch_s=elapsed,
        stream=[("cohort", loss, score), stats.histogram.tolist()],
        train_loss=math.nan,
        eval_loss=loss,
        histogram=stats.histogram,
        eval_indices=indices,
        eval_risks=risks,
        eval_c_index=score,
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def c_index_oracle(risks, times, events) -> float:
    """Concordance by explicit pair comparison, vectorised one row at a time.

    Pair (i, j) is comparable when i had the event and either i's time
    is strictly earlier, or the times tie and j is censored; the higher
    risk on the event side is concordant, equal risks count one half.
    """
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    concordant = tied = total = 0
    for i in np.flatnonzero(events):
        comparable = (times[i] < times) | ((times[i] == times) & ~events)
        total += int(comparable.sum())
        concordant += int((comparable & (risks[i] > risks)).sum())
        tied += int((comparable & (risks[i] == risks)).sum())
    return (concordant + 0.5 * tied) / total


def check_unit(spec: Spec, prepared: Prepared, unit: UnitResult) -> list[str]:
    """Problems with one unit's outputs; empty when every check passes."""
    problems = []
    losses = [entry[1] for entry in unit.stream if isinstance(entry, tuple)]
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite loss in {losses}")
    per_layer = set(int(v) for v in unit.histogram.sum(axis=1))
    expected = unit.train_samples + unit.eval_samples
    if per_layer != {expected}:
        problems.append(f"routing histogram rows sum to {sorted(per_layer)}, expected {expected}")
    disabled = [e for e, on in enumerate(spec.experts) if not on]
    if disabled and unit.histogram[:, disabled].any():
        problems.append(f"disabled experts {disabled} were called: {unit.histogram.tolist()}")
    rows = prepared.cohort.rows
    oracle = c_index_oracle(
        unit.eval_risks,
        [rows[i].raw_time for i in unit.eval_indices],
        [not rows[i].censored for i in unit.eval_indices],
    )
    if not abs(oracle - unit.eval_c_index) <= 1e-12:
        problems.append(f"C-index {unit.eval_c_index!r} != pair oracle {oracle!r}")
    return problems


def tiny(spec: Spec) -> Spec:
    """A seconds-long version of ``spec`` for the benchmark's self-test."""
    small_bags = (16, 48) if spec.ragged else (8, 8)
    # Pools under 50 samples skip synthesize_cohort's cross-signal self
    # test, which needs more patches than a tiny bag has.
    samples = 10 if spec.training else 24
    return replace(spec, samples=samples, pool=2 * samples, patches=small_bags,
                   key_chunk=16 if spec.ragged else spec.key_chunk)
