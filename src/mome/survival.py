"""Discrete-time hazard and survival math, censoring-aware loss, C-index.

Time is divided into T intervals. The model predicts one logit z_t per
interval; the hazard h(t) = sigmoid(z_t) is the probability of the event
occurring in interval t given survival up to it. The survival function
is the running product s(t) = prod_{u<=t} (1 - h(u)).

The likelihood follows the standard censored discrete-time convention:
a censored sample (alive at last follow-up) contributes -log s(bin), an
observed event contributes -log s(bin-1) - log h(bin) with s(-1) = 1.
Both are computed in log space, -log s(t) = sum_{u<=t} softplus(z_u) and
-log h(t) = softplus(-z_t), as one op over the logits: the loss is finite
for finite logits and a saturated wrong prediction keeps its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import numcore as nc
from .errors import DataError, MetricError
from .numcore import Tensor


@dataclass
class SurvivalTarget:
    """Ground truth for one sample: interval index, censor flag, raw days."""

    bin: int
    censored: bool
    raw_time: float

    def __post_init__(self):
        if not 0 < self.raw_time < np.inf:
            raise DataError(f"raw_time must be positive and finite, got {self.raw_time}")
        if self.bin < 0:
            raise DataError(f"bin index must be nonnegative, got {self.bin}")


@dataclass
class HazardCurve:
    """The T hazard logits with the hazards and survival function they induce."""

    logits: Tensor  # T entries, the loss differentiates through it
    hazard_values: np.ndarray  # [T], h(t) = sigmoid(z_t)
    survival_values: np.ndarray  # [T], s(t) = exp(-sum_{u<=t} softplus(z_u))

    @property
    def n_bins(self) -> int:
        return self.hazard_values.shape[0]


def hazards_from_logits(logits: Tensor) -> HazardCurve:
    """Map T logits to a hazard curve; :func:`nll_loss` differentiates through it.
    The logits are finite: a ``Tensor`` checks its data when it is made."""
    if logits.size < 2:
        raise DataError(f"need at least 2 time bins, got {logits.size}")
    z = logits.data.reshape(-1)
    survival = np.exp(-np.cumsum(np.logaddexp(0.0, z)))
    return HazardCurve(logits=logits, hazard_values=special.expit(z), survival_values=survival)


def nll_loss(curve: HazardCurve, target: SurvivalTarget) -> Tensor:
    """Censoring-aware negative log-likelihood of one sample (scalar tensor):
    softplus(sign_u * z_u) summed over bins u <= bin, sign -1 at an event bin."""
    t = target.bin
    if t >= curve.n_bins:
        raise DataError(f"bin {t} out of range for {curve.n_bins} intervals")
    logits = curve.logits
    sign = np.ones(t + 1)
    if not target.censored:
        sign[t] = -1.0
    signed = sign * logits.data.reshape(-1)[: t + 1]
    loss = np.logaddexp(0.0, signed).sum()

    def backward(g):
        grad = np.zeros(logits.size)
        grad[: t + 1] = g * sign * special.expit(signed)
        nc.accumulate_grad(logits, grad.reshape(logits.shape))

    return nc.graph_op(np.asarray(loss), (logits,), backward, "nll_loss")


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
