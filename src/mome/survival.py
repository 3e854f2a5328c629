"""Discrete-time hazard and survival math, censoring-aware loss, C-index.

Time is divided into T intervals. The model predicts one logit per
interval; the hazard h(t) is its sigmoid, the probability of the event
occurring in interval t given survival up to it. The survival function
is the running product s(t) = prod_{u<=t} (1 - h(u)).

The likelihood follows the standard censored discrete-time convention:
a censored sample (alive at last follow-up) contributes -log s(bin), an
observed event contributes -log s(bin-1) - log h(bin) with s(-1) = 1.
Probabilities are floored at 1e-12 before the log so a saturated model
yields a large but finite loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DataError, MetricError, NumericError
from .numcore import Tensor

PROBABILITY_FLOOR = 1e-12


@dataclass
class SurvivalTarget:
    """Ground truth for one sample: interval index, censor flag, raw days."""

    bin: int
    censored: bool
    raw_time: float

    def __post_init__(self):
        if self.raw_time <= 0:
            raise DataError(f"raw_time must be positive, got {self.raw_time}")
        if self.bin < 0:
            raise DataError(f"bin index must be nonnegative, got {self.bin}")


@dataclass
class HazardCurve:
    """Per-interval hazards and the survival function they induce."""

    hazards: Tensor  # [T]
    survival: Tensor  # [T], s(t) = prod_{u<=t} (1 - h(u))

    @property
    def hazard_values(self) -> np.ndarray:
        return self.hazards.data

    @property
    def survival_values(self) -> np.ndarray:
        return self.survival.data

    @property
    def n_bins(self) -> int:
        return self.hazards.data.shape[0]


def hazards_from_logits(logits: Tensor) -> HazardCurve:
    """Map T logits to a hazard curve; differentiable end to end."""
    if logits.size < 2:
        raise DataError(f"need at least 2 time bins, got {logits.size}")
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("hazard logits contain non-finite values")
    flat = nc.reshape(logits, (logits.size,))
    hazards = nc.sigmoid(flat)
    keep = nc.add(1.0, nc.neg(hazards))
    parts = [nc.slice_rows(keep, 0, 1)]
    for t in range(1, logits.size):
        parts.append(nc.mul(parts[-1], nc.slice_rows(keep, t, t + 1)))
    return HazardCurve(hazards=hazards, survival=nc.concat_rows(parts))


def nll_loss(curve: HazardCurve, target: SurvivalTarget) -> Tensor:
    """Censoring-aware negative log-likelihood of one sample (scalar tensor)."""
    t = target.bin
    if t >= curve.n_bins:
        raise DataError(f"bin {t} out of range for {curve.n_bins} intervals")
    if target.censored:
        return nc.neg(nc.safe_log(nc.slice_rows(curve.survival, t, t + 1), PROBABILITY_FLOOR))
    event = nc.neg(nc.safe_log(nc.slice_rows(curve.hazards, t, t + 1), PROBABILITY_FLOOR))
    if t == 0:
        return event  # s(-1) is 1, so the survival term vanishes
    prior = nc.neg(nc.safe_log(nc.slice_rows(curve.survival, t - 1, t), PROBABILITY_FLOOR))
    return nc.add(prior, event)


def risk_score(curve: HazardCurve) -> float:
    """Reduce a hazard curve to one scalar, -sum s(t); higher means worse prognosis."""
    return -float(np.sum(curve.survival_values))


def c_index(risks, targets) -> float:
    """Concordance over comparable pairs; risk ties score half credit."""
    risks = np.asarray(risks, dtype=np.float64)
    n = len(risks)
    if n != len(targets):
        raise MetricError("risks and targets length mismatch")
    if n < 2:
        raise MetricError("C-index needs at least two samples")
    times = np.array([t.raw_time for t in targets])
    events = np.array([not t.censored for t in targets])

    earlier_event = (times[:, None] < times[None, :]) & events[:, None]
    tied_event = (
        (times[:, None] == times[None, :]) & events[:, None] & ~events[None, :]
    )
    comparable = earlier_event | tied_event
    total = int(comparable.sum())
    if total == 0:
        raise MetricError("no comparable pairs: the C-index is undefined")
    concordant = float(((risks[:, None] > risks[None, :]) & comparable).sum())
    concordant += 0.5 * float(((risks[:, None] == risks[None, :]) & comparable).sum())
    return concordant / total
