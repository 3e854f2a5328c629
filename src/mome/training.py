"""Cross-validated training, evaluation, and routing analysis harness.

One run trains a fresh model per fold on the manifest's fold split,
evaluates the held-out fold every epoch, streams one metrics record per
(fold, epoch, split), and keeps the checkpoint of the best validation
epoch. The reported summary is the per-fold best validation C-index
and its mean and standard deviation across folds.

All randomness (shuffling, dropout, per-fold init) derives from the run
seed through a counter-mix, so a rerun with the same seed reproduces the
metrics stream and the checkpoint bytes exactly (wall-time fields
aside), at any CPU count: BLAS runs on one thread (see
:func:`mome.attention.own_process`).

Only this module knows which sample runs: ``evaluate`` stamps the gate
decisions the model hands back into routing records, and a sample's
non-finite value, in training or evaluation, is one ``TrainingAbort``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import numcore as nc
from .attention import own_process
from .bpe import ModelConfig, ModelSettings, MoMEModel, save_checkpoint, setting
from .data import (
    ManifestRow,
    discretize_times,
    kfold_split,
    read_feature_file,
    read_genomic_file,
    read_manifest,
    resolve_path,
)
from .errors import ConfigError, DataError, MetricError, NumericError
from .experts import EXPERT_COUNT, ExpertId
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
        for name in ("epochs", "key_chunk", "grad_accum"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}", name)
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}", "lr")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}",
                              "weight_decay")
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}", "folds")


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


def _quiet_floating_point():
    """Silence numpy's overflow, invalid and divide warnings: in a
    diverging step the typed finite checks (``NumericError``,
    ``TrainingAbort``) already own the outcome."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


class TrainingAbort(NumericError):
    """Raised when a non-finite value ends a run: in a training step
    (forward, backward or optimizer update) or in an evaluation forward.
    It carries the sample id; the cause names the op."""

    def __init__(self, sample_id: str, cause: Exception):
        super().__init__(f"non-finite value at sample '{sample_id}': {cause}")
        self.sample_id = sample_id


def evaluate(
    model: MoMEModel,
    cohort: CohortData,
    indices: list[int],
    key_chunk: int | None = None,
    routing_log: list[RoutingRecord] | None = None,
) -> tuple[float, float, list[float]]:
    """Mean loss, C-index, and per-sample risks over ``indices`` (eval mode).

    Runs without recording a graph. When ``routing_log`` is a list, each
    sample appends one record per expert layer, in layer order. A
    non-finite value raises ``TrainingAbort`` naming the op and the sample
    that produced it.
    """
    own_process()
    losses, risks = [], []
    with nc.no_grad(), _quiet_floating_point():
        for i in indices:
            sample_id = cohort.rows[i].sample_id
            routes = None if routing_log is None else []
            try:
                logits = model.forward(cohort.bags[i], cohort.genomics[i], key_chunk=key_chunk,
                                       routes=routes)
                curve = hazards_from_logits(logits)
                losses.append(nll_loss(curve, cohort.targets[i]).item())
            except NumericError as err:
                raise TrainingAbort(sample_id, err) from err
            if routing_log is not None:
                routing_log += [
                    RoutingRecord(layer, sample_id, decision.expert,
                                  tuple(float(v) for v in decision.logits.data[0]))
                    for layer, decision in enumerate(routes)
                ]
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


def fold_split(cohort: CohortData, fold: int) -> tuple[list[int], list[int]]:
    """The train and validation indices of ``fold``. A row with no fold
    (-1), or a split the C-index cannot score (empty, one sample, or no
    comparable pair), is a DataError."""
    unassigned = next((r.sample_id for r in cohort.rows if r.fold < 0), None)
    if unassigned is not None:
        raise DataError(f"sample '{unassigned}' has no fold: assign a fold to every "
                        "manifest row, or to none and let train_cohort split them")
    train_idx = [i for i, r in enumerate(cohort.rows) if r.fold != fold]
    val_idx = [i for i, r in enumerate(cohort.rows) if r.fold == fold]
    for split, indices in (("train", train_idx), ("validation", val_idx)):
        check_scorable(cohort, indices, f"fold {fold} {split} split")
    return train_idx, val_idx


def check_scorable(cohort: CohortData, indices: list[int], what: str) -> None:
    """A DataError naming ``what`` when ``c_index`` cannot score ``indices``."""
    try:
        c_index(np.zeros(len(indices)), [cohort.targets[i] for i in indices])
    except MetricError as err:
        raise DataError(f"{what} cannot be scored: {err}") from err


def train_fold(
    run: RunConfig,
    cohort: CohortData,
    fold: int,
    out_dir,
    emit=None,
) -> FoldResult:
    """Train on the rows outside ``fold`` and checkpoint the best epoch on
    ``fold``; ``fold_split`` rejects a bad split before a model is built."""
    train_idx, val_idx = fold_split(cohort, fold)
    own_process()

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
        with _quiet_floating_point():
            for step, i in enumerate(order):
                sample_rng = rng_stream(derive_seed(run.seed, fold, epoch, i))
                try:
                    logits = model.forward(cohort.bags[i], cohort.genomics[i], training=True,
                                           rng=sample_rng, key_chunk=run.key_chunk)
                    curve = hazards_from_logits(logits)
                    loss = nll_loss(curve, cohort.targets[i])
                    nc.mul(loss, 1.0 / run.grad_accum).backward()
                    pending += 1
                    if pending == run.grad_accum or step == len(order) - 1:
                        optimizer.step()
                        optimizer.zero_grad()
                        pending = 0
                except NumericError as err:
                    raise TrainingAbort(cohort.rows[i].sample_id, err) from err
                epoch_losses.append(loss.item())
                epoch_risks[i] = risk_score(curve)
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
    """Train every fold present in the manifest and summarize. A manifest
    with no fold column assigned is split into ``run.folds`` folds; every
    fold's split passes ``fold_split`` before the first fold trains."""
    cohort = load_cohort(manifest_path, run.time_bins)
    if all(r.fold < 0 for r in cohort.rows):
        assignment = kfold_split(cohort.rows, k=run.folds, seed=run.seed)
        for row, fold in zip(cohort.rows, assignment):
            row.fold = fold
    folds = sorted({r.fold for r in cohort.rows})
    for fold in folds:
        fold_split(cohort, fold)

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
class RoutingRecord:
    """Which expert a (layer, sample) pair was dispatched to."""

    layer: int
    sample_id: str
    expert: ExpertId
    logits: tuple[float, float, float, float]


ROUTING_LOG_HEADER = "layer,sample_id,expert,logit0,logit1,logit2,logit3"


def format_routing_record(record: RoutingRecord) -> str:
    logits = ",".join(f"{v:.10g}" for v in record.logits)
    return f"{record.layer},{record.sample_id},{int(record.expert)},{logits}"


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
