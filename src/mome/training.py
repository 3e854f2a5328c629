"""Cross-validated training, evaluation, and routing analysis harness.

One run trains a fresh model per fold on the manifest's fold split,
evaluates the held-out fold every epoch, streams one metrics record per
(fold, epoch, split), and keeps the checkpoint of the best validation
epoch. The reported summary is the per-fold best validation C-index
and its mean and standard deviation across folds.

All randomness (shuffling, dropout, per-fold init) derives from the run
seed through a counter-mix, so a single-threaded rerun with the same
seed reproduces the metrics stream exactly (wall-time fields aside).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import numcore as nc
from .bpe import ModelConfig, ModelSettings, MoMEModel, save_checkpoint, setting
from .data import (
    ManifestRow,
    discretize_times,
    read_feature_file,
    read_genomic_file,
    read_manifest,
    resolve_path,
)
from .errors import ConfigError, DataError, NumericError
from .experts import EXPERT_COUNT, RoutingRecord
from .numcore import Adam, rng_stream
from .survival import SurvivalTarget, c_index, hazards_from_logits, nll_loss, risk_score

METRICS_HEADER = "fold,epoch,split,loss,c_index,wall_seconds"

_MIX_MULT = 6364136223846793005
_MIX_ADD = 1442695040888963407
_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(base: int, *parts: int) -> int:
    """Stable 64-bit mix of a base seed with context indices."""
    x = base & _MASK64
    for p in parts:
        x = (x * _MIX_MULT + p + _MIX_ADD) & _MASK64
    return x


@dataclass
class RunConfig(ModelSettings):
    """Model plus protocol settings; the defaults are the shipped protocol."""

    epochs: int = setting(20, "training epochs per fold")
    lr: float = setting(2e-4, "Adam learning rate")
    weight_decay: float = setting(1e-5, "L2 weight decay folded into the gradient")
    folds: int = setting(5, "fold count when the manifest has no assignment")
    key_chunk: int = setting(4096, "streaming attention key-block size")
    grad_accum: int = setting(1, "samples accumulated per optimizer step")

    def __post_init__(self):
        super().__post_init__()
        # key_chunk None is dense attention (no key blocks).
        for name in ("epochs", "key_chunk", "grad_accum"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")


@dataclass
class MetricsRecord:
    fold: int
    epoch: int
    split: str
    loss: float
    c_index: float
    wall_seconds: float


def format_metrics_record(rec: MetricsRecord) -> str:
    return (
        f"{rec.fold},{rec.epoch},{rec.split},{rec.loss:.10g},"
        f"{rec.c_index:.10g},{rec.wall_seconds:.3f}"
    )


@dataclass
class CohortData:
    rows: list[ManifestRow]
    bags: list[np.ndarray]
    genomics: list
    targets: list[SurvivalTarget]
    bin_edges: np.ndarray

    @property
    def d_in(self) -> int:
        return self.bags[0].shape[1]

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return self.genomics[0].sizes


def load_cohort(manifest_path, time_bins: int) -> CohortData:
    """Read every referenced file into memory and bin the raw times."""
    rows = read_manifest(manifest_path)
    if not rows:
        raise DataError("manifest is empty")
    edges, bins = discretize_times(rows, time_bins)
    bags = [read_feature_file(resolve_path(manifest_path, r.patho_path)) for r in rows]
    genomics = [read_genomic_file(resolve_path(manifest_path, r.geno_path)) for r in rows]
    widths = {bag.shape[1] for bag in bags}
    if len(widths) != 1:
        raise DataError(f"inconsistent patch feature widths across cohort: {sorted(widths)}")
    sizes = {g.sizes for g in genomics}
    if len(sizes) != 1:
        raise DataError("inconsistent genomic group sizes across cohort")
    targets = [
        SurvivalTarget(bin=b, censored=r.censored, raw_time=r.raw_time)
        for b, r in zip(bins, rows)
    ]
    return CohortData(rows, bags, genomics, targets, edges)


def model_config_for(run: RunConfig, cohort: CohortData, fold: int) -> ModelConfig:
    shared = {f.name: getattr(run, f.name) for f in fields(ModelSettings)}
    shared["seed"] = derive_seed(run.seed, fold, 101)
    return ModelConfig(**shared, d_in=cohort.d_in, group_sizes=cohort.group_sizes)


class TrainingAbort(RuntimeError):
    """Raised when a non-finite loss ends a run; carries the sample id."""

    def __init__(self, sample_id: str, cause: Exception):
        super().__init__(f"non-finite loss at sample '{sample_id}': {cause}")
        self.sample_id = sample_id


def evaluate(
    model: MoMEModel,
    cohort: CohortData,
    indices: list[int],
    key_chunk: int | None = None,
    routing_log: list[RoutingRecord] | None = None,
) -> tuple[float, float, list[float]]:
    """Mean loss, C-index, and per-sample risks over ``indices`` (eval mode).

    Runs without recording a graph. A non-finite value raises
    ``NumericError`` naming the op and the sample that produced it.
    """
    losses, risks = [], []
    with nc.no_grad():
        for i in indices:
            sample_id = cohort.rows[i].sample_id
            try:
                logits = model.forward(
                    cohort.bags[i],
                    cohort.genomics[i],
                    training=False,
                    routing_log=routing_log,
                    sample_id=sample_id,
                    key_chunk=key_chunk,
                )
                curve = hazards_from_logits(logits)
                losses.append(nll_loss(curve, cohort.targets[i]).item())
            except NumericError as err:
                raise NumericError(f"{err} at sample '{sample_id}'") from err
            risks.append(risk_score(curve))
    score = c_index(risks, [cohort.targets[i] for i in indices])
    return float(np.mean(losses)), score, risks


@dataclass
class FoldResult:
    fold: int
    best_epoch: int
    best_c_index: float
    checkpoint_path: str


@dataclass
class TrainSummary:
    fold_results: list[FoldResult]
    mean_c_index: float
    std_c_index: float
    records: list[MetricsRecord] = field(default_factory=list)


def train_fold(
    run: RunConfig,
    cohort: CohortData,
    fold: int,
    out_dir,
    emit=None,
) -> FoldResult:
    train_idx = [i for i, r in enumerate(cohort.rows) if r.fold != fold]
    val_idx = [i for i, r in enumerate(cohort.rows) if r.fold == fold]
    if not train_idx or not val_idx:
        raise DataError(f"fold {fold} leaves an empty train or validation split")

    model = MoMEModel(model_config_for(run, cohort, fold))
    optimizer = Adam([t for _, t in model.parameters()], lr=run.lr, weight_decay=run.weight_decay)

    best = FoldResult(fold=fold, best_epoch=-1, best_c_index=-np.inf, checkpoint_path="")
    best_params: list[np.ndarray] | None = None
    start = time.perf_counter()
    for epoch in range(run.epochs):
        order = list(train_idx)
        rng_stream(derive_seed(run.seed, fold, epoch, 7)).shuffle(order)
        epoch_losses, epoch_risks, pending = [], {}, 0
        optimizer.zero_grad()
        for step, i in enumerate(order):
            sample_rng = rng_stream(derive_seed(run.seed, fold, epoch, i))
            try:
                logits = model.forward(
                    cohort.bags[i],
                    cohort.genomics[i],
                    training=True,
                    rng=sample_rng,
                    sample_id=cohort.rows[i].sample_id,
                    key_chunk=run.key_chunk,
                )
                curve = hazards_from_logits(logits)
                loss = nll_loss(curve, cohort.targets[i])
                nc.mul(loss, 1.0 / run.grad_accum).backward()
            except NumericError as err:
                raise TrainingAbort(cohort.rows[i].sample_id, err)
            epoch_losses.append(loss.item())
            epoch_risks[i] = risk_score(curve)
            pending += 1
            if pending == run.grad_accum or step == len(order) - 1:
                optimizer.step()
                optimizer.zero_grad()
                pending = 0
        train_record = MetricsRecord(
            fold=fold,
            epoch=epoch,
            split="train",
            loss=float(np.mean(epoch_losses)),
            c_index=c_index(
                [epoch_risks[i] for i in train_idx], [cohort.targets[i] for i in train_idx]
            ),
            wall_seconds=time.perf_counter() - start,
        )
        if emit:
            emit(train_record)
        val_loss, val_c, _ = evaluate(model, cohort, val_idx, key_chunk=run.key_chunk)
        if emit:
            emit(
                MetricsRecord(
                    fold=fold,
                    epoch=epoch,
                    split="val",
                    loss=val_loss,
                    c_index=val_c,
                    wall_seconds=time.perf_counter() - start,
                )
            )
        if val_c > best.best_c_index:
            best.best_c_index = val_c
            best.best_epoch = epoch
            best_params = [t.data.copy() for _, t in model.parameters()]

    if best_params is not None:
        for (_, tensor), saved in zip(model.parameters(), best_params):
            tensor.data[...] = saved
    os.makedirs(out_dir, exist_ok=True)
    best.checkpoint_path = os.path.join(out_dir, f"fold{fold}.ckpt")
    save_checkpoint(model, best.checkpoint_path)
    return best


def train_cohort(run: RunConfig, manifest_path, out_dir, emit=None) -> TrainSummary:
    """Train every fold present in the manifest and summarize."""
    cohort = load_cohort(manifest_path, run.time_bins)
    folds = sorted({r.fold for r in cohort.rows if r.fold >= 0})
    if not folds:
        from .data import kfold_split

        assignment = kfold_split(cohort.rows, k=run.folds, seed=run.seed)
        for row, fold in zip(cohort.rows, assignment):
            row.fold = fold
        folds = sorted(set(assignment))

    records: list[MetricsRecord] = []

    def capture(rec: MetricsRecord):
        records.append(rec)
        if emit:
            emit(rec)

    results = [train_fold(run, cohort, fold, out_dir, capture) for fold in folds]
    scores = [r.best_c_index for r in results]
    return TrainSummary(
        fold_results=results,
        mean_c_index=float(np.mean(scores)),
        std_c_index=float(np.std(scores)),
        records=records,
    )


@dataclass
class RoutingStats:
    """Per-layer expert-selection histogram over a cohort."""

    histogram: np.ndarray  # [layers, experts]
    sample_level_diversity: bool  # some layer routed different samples differently
    layer_level_diversity: bool  # some sample routed differently across layers
    records: list[RoutingRecord]


def routing_statistics(model: MoMEModel, cohort: CohortData,
                       key_chunk: int | None = None) -> RoutingStats:
    log: list[RoutingRecord] = []
    evaluate(model, cohort, list(range(len(cohort.rows))), key_chunk=key_chunk, routing_log=log)
    layers = model.config.layer_count
    histogram = np.zeros((layers, EXPERT_COUNT), dtype=np.int64)
    per_sample: dict[str, set[int]] = {}
    for rec in log:
        histogram[rec.layer, int(rec.expert)] += 1
        per_sample.setdefault(rec.sample_id, set()).add(int(rec.expert))
    sample_level = bool(np.any(np.count_nonzero(histogram, axis=1) >= 2))
    layer_level = any(len(v) >= 2 for v in per_sample.values())
    return RoutingStats(histogram, sample_level, layer_level, log)
