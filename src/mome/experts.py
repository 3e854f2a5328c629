"""Gated pool of four multimodal fusion experts.

Each layer routes every sample to exactly one expert, chosen by a
lightweight gate over both modality bags. The experts trade off how much
of the reference modality they use:

* ``TRANSFUSION`` fuses through full self-attention over both bags,
* ``BOTTLENECK_TRANSFUSION`` passes reference information through a few
  learned bottleneck tokens only,
* ``SNNFUSION`` adds a single pooled reference vector through
  self-normalizing blocks (linear, unit-alpha ELU, alpha dropout),
* ``DROPF2FUSION`` ignores the reference entirely and acts as a skip.

Routing is hard (top-1). To keep the gate trainable, the chosen expert's
output is always scaled by the gate's softmax probability of that slot,
as in Switch Transformer's top-1 routing. The gate is two fused graph
nodes, ``gate_logits`` and ``gate_probability``, and the SNN expert is
one, ``snnfusion``; both normalize with the one RMSNorm of this module.
The attention experts hand their query bag and key bags to
:func:`~mome.attention.self_attention`.

A layer knows nothing of the sample it routes: :func:`mome_forward`
hands its :class:`GateDecision` back through ``routes``, and the caller
that knows the sample (``training.evaluate``) turns it into a record.

The parameter sets are plain holders that ``bpe.MoMEModel`` fills from a
validated ``ModelConfig`` and a ``numcore.Init``: they copy no setting's
default and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy import special

from . import numcore as nc
from .attention import AttentionParams, self_attention
from .errors import ConfigError, DataError
from .numcore import Tensor


class ExpertId(IntEnum):
    TRANSFUSION = 0
    BOTTLENECK_TRANSFUSION = 1
    SNNFUSION = 2
    DROPF2FUSION = 3


EXPERT_COUNT = 4

# CLI abbreviations, also used in routing reports.
EXPERT_ABBREVIATIONS = {
    "tf": ExpertId.TRANSFUSION,
    "btf": ExpertId.BOTTLENECK_TRANSFUSION,
    "snn": ExpertId.SNNFUSION,
    "df": ExpertId.DROPF2FUSION,
}


def parse_expert_spec(spec: str) -> tuple[bool, bool, bool, bool]:
    """Enable mask from comma-separated abbreviations, e.g. 'tf,snn' or 'all'."""
    if spec.strip().lower() == "all":
        return (True,) * EXPERT_COUNT
    mask = [False] * EXPERT_COUNT
    for token in spec.split(","):
        token = token.strip().lower()
        if token not in EXPERT_ABBREVIATIONS:
            raise ConfigError(
                f"unknown expert '{token}' (choose from {sorted(EXPERT_ABBREVIATIONS)})"
            )
        mask[int(EXPERT_ABBREVIATIONS[token])] = True
    return tuple(mask)


_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class GateParams(nc.ParameterSet):
    """Per-modality projections and the shared logit map of the gate."""

    w1: Tensor
    w2: Tensor
    w: Tensor
    gain1: Tensor
    gain2: Tensor

    @classmethod
    def create(cls, d: int, init: nc.Init) -> "GateParams":
        return cls(
            w1=init.fan_in((d, d)),
            w2=init.fan_in((d, d)),
            w=init.fan_in((d, EXPERT_COUNT)),
            gain1=init.constant((d,), 1.0),
            gain2=init.constant((d,), 1.0),
        )


@dataclass
class SnnParams(nc.ParameterSet):
    """Two self-normalizing blocks, their input normalizer gains and the
    alpha-dropout rate; filled from a validated ``ModelConfig``, checks nothing."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    gain1: Tensor
    gain2: Tensor
    dropout_rate: float

    @classmethod
    def create(cls, d: int, init: nc.Init, dropout_rate: float) -> "SnnParams":
        return cls(
            w1=init.fan_in((d, d)),
            b1=init.constant((d,), 0.0),
            w2=init.fan_in((d, d)),
            b2=init.constant((d,), 0.0),
            gain1=init.constant((d,), 1.0),
            gain2=init.constant((d,), 1.0),
            dropout_rate=dropout_rate,
        )


@dataclass
class MoMELayer(nc.ParameterSet):
    """Gate, the four experts' parameter sets and the enable mask of one
    stage; filled from a validated ``ModelConfig``, checks nothing."""

    gate: GateParams
    tf: AttentionParams
    btf_inner: AttentionParams
    btf_outer: AttentionParams
    bottleneck: Tensor
    snn: SnnParams
    enable_mask: tuple[bool, bool, bool, bool]
    call_counts: list[int] = field(default_factory=lambda: [0] * EXPERT_COUNT)

    @classmethod
    def create(
        cls,
        d: int,
        init: nc.Init,
        n_bottleneck: int,
        head_count: int,
        enable_mask: tuple[bool, bool, bool, bool],
        dropout_rate: float,
    ) -> "MoMELayer":
        return cls(
            gate=GateParams.create(d, init),
            tf=AttentionParams.create(d, init, head_count),
            btf_inner=AttentionParams.create(d, init, head_count),
            btf_outer=AttentionParams.create(d, init, head_count),
            bottleneck=init.normal((n_bottleneck, d)),
            snn=SnnParams.create(d, init, dropout_rate),
            enable_mask=enable_mask,
        )


@dataclass
class GateDecision:
    expert: ExpertId
    logits: Tensor  # [1, 4], all slots regardless of mask
    probability: Tensor  # [1, 1], softmax over enabled slots at the chosen one


def gate(
    f1: Tensor,
    f2: Tensor,
    params: GateParams,
    enable_mask: tuple[bool, bool, bool, bool],
) -> GateDecision:
    """Score the expert pool from both bags and pick the top slot.

    Each modality is projected, RMS-normalized, passed through a GELU and
    mean-pooled over tokens; both pooled vectors are mapped to the four
    logits and summed. Disabled slots are excluded from both the argmax
    and the probability normalization. Ties break to the lowest enabled
    slot. ``enable_mask`` has one flag per expert; a mask with none set is
    a ``ConfigError`` here too, for direct calls.
    """
    if f1.shape[0] < 1 or f2.shape[0] < 1:
        raise DataError("gate needs nonempty bags for both modalities")
    if not any(enable_mask):
        raise ConfigError("cannot gate with every expert disabled")
    pooled1, saved1 = _gate_pool(f1, params.w1, params.gain1)
    pooled2, saved2 = _gate_pool(f2, params.w2, params.gain2)
    w = params.w

    def logits_backward(g):
        # Bag 2 first, as the composed graph walked it, so that every
        # gradient sums in the same order.
        for f, proj, gain, pooled, saved in ((f2, params.w2, params.gain2, pooled2, saved2),
                                             (f1, params.w1, params.gain1, pooled1, saved1)):
            if w.requires_grad:
                nc.accumulate_grad(w, pooled.T @ g)
            _gate_pool_backward(g @ w.data.T, f, proj, gain, saved)

    logits = nc.graph_op(pooled1 @ w.data + pooled2 @ w.data,
                         (f1, f2, params.w1, params.w2, w, params.gain1, params.gain2),
                         logits_backward, "gate_logits")

    enabled = [i for i, on in enumerate(enable_mask) if on]
    masked = np.where(enable_mask, logits.data[0], -np.inf)
    chosen = ExpertId(int(np.argmax(masked)))
    column = enabled.index(chosen)
    selected = logits.data[:, enabled]
    e = np.exp(selected - selected.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)

    def probability_backward(g):
        g_probs = np.zeros_like(probs)
        g_probs[:, column] = g[:, 0]
        g_selected = (g_probs - np.sum(g_probs * probs, axis=1, keepdims=True)) * probs
        g_logits = np.zeros_like(logits.data)
        g_logits[:, enabled] = g_selected
        nc.accumulate_grad(logits, g_logits)

    probability = nc.graph_op(probs[:, [column]], (logits,), probability_backward,
                              "gate_probability")
    return GateDecision(expert=chosen, logits=logits, probability=probability)


RMSNORM_EPS = 1e-8


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of ``x`` over its root-mean-square, then scaled per feature;
    returns the result, the ``[n, 1]`` RMS column and the unscaled rows."""
    rms = np.sqrt(np.mean(x * x, axis=1, keepdims=True) + RMSNORM_EPS)
    normed = x / rms
    return normed * gain, rms, normed


def _rmsnorm_backward(g: np.ndarray, x: np.ndarray, gain: np.ndarray, rms: np.ndarray,
                      normed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`_rmsnorm` with respect to ``x`` and ``gain``."""
    gy = g * gain
    dot = np.sum(gy * x, axis=1, keepdims=True)
    return gy / rms - x * dot / (x.shape[1] * rms**3), np.sum(g * normed, axis=0)


def _gate_pool(f: Tensor, proj: Tensor, gain: Tensor) -> tuple[np.ndarray, tuple]:
    """One bag's gate branch, the row mean of ``gelu(rmsnorm(f @ proj))``;
    returns the pooled row and what the backward reads."""
    h = f.data @ proj.data
    r, rms, normed = _rmsnorm(h, gain.data)
    cdf = special.ndtr(r)
    a = r * cdf
    return a.sum(axis=0, keepdims=True) / a.shape[0], (h, rms, normed, r, cdf)


def _gate_pool_backward(g_pooled: np.ndarray, f: Tensor, proj: Tensor, gain: Tensor,
                        saved: tuple) -> None:
    h, rms, normed, r, cdf = saved
    pdf = np.exp(-0.5 * r * r) * _INV_SQRT_2PI
    g_r = g_pooled / h.shape[0] * (cdf + r * pdf)
    g_h, g_gain = _rmsnorm_backward(g_r, h, gain.data, rms, normed)
    if f.requires_grad:
        nc.accumulate_grad(f, g_h @ proj.data.T)
    if proj.requires_grad:
        nc.accumulate_grad(proj, f.data.T @ g_h)
    if gain.requires_grad:
        nc.accumulate_grad(gain, g_gain)


def transfusion(
    f1: Tensor, f2: Tensor, params: AttentionParams, key_chunk: int | None = None
) -> Tensor:
    """The encoded modality's rows of self-attention over the stacked bags."""
    return self_attention([f1, f2], params, key_chunk=key_chunk)


def bottleneck_transfusion(
    f1: Tensor,
    f2: Tensor,
    bottleneck: Tensor,
    inner: AttentionParams,
    outer: AttentionParams,
    key_chunk: int | None = None,
) -> Tensor:
    """Fuse through learned bottleneck tokens; the bags never attend directly.

    Stage one self-attends over [bottleneck; f2] and keeps the refreshed
    bottleneck rows; stage two self-attends over [f1; refreshed] and
    keeps the f1 rows.
    """
    refreshed = self_attention([bottleneck, f2], inner, key_chunk=key_chunk)
    return self_attention([f1, refreshed], outer, key_chunk=key_chunk)


# Saturation value that dropped activations are pulled to: the negative
# limit of a unit-alpha exponential-linear unit.
ELU_SATURATION = -1.0


def snnfusion(
    f1: Tensor,
    f2: Tensor,
    params: SnnParams,
    rng: np.random.Generator | None,
) -> Tensor:
    """Self-normalizing fusion, one graph node: a per-token block on f1 plus
    the row mean of the same kind of block on f2.

    A block is RMSNorm, an affine map, a unit-alpha ELU and, given an
    ``rng`` and a nonzero rate, alpha dropout (Klambauer et al. 2017):
    dropped entries saturate at ``ELU_SATURATION``, then an affine
    correction restores zero mean and unit variance in expectation. The
    rng is the switch: block 1 draws its mask from it before block 2, and
    with ``None`` (evaluation) nothing is drawn or dropped.
    """
    rate = params.dropout_rate
    dropout = rng is not None and rate > 0.0
    q = 1.0 - rate
    scale = 1.0 / np.sqrt(q + ELU_SATURATION**2 * rate * q)
    shift = -scale * rate * ELU_SATURATION

    def block(x, w, b, gain):
        r, rms, normed = _rmsnorm(x.data, gain.data)
        pre = r @ w.data + b.data
        out = np.where(pre > 0, pre, np.expm1(pre))
        keep = None
        if dropout:
            keep = rng.random(out.shape) >= rate
            out = scale * np.where(keep, out, ELU_SATURATION) + shift
        return out, (x, w, b, gain, r, rms, normed, pre, keep)

    own, saved1 = block(f1, params.w1, params.b1, params.gain1)
    reference, saved2 = block(f2, params.w2, params.b2, params.gain2)
    n2 = reference.shape[0]

    def block_backward(g, saved):
        x, w, b, gain, r, rms, normed, pre, keep = saved
        if keep is not None:
            g = g * scale * keep
        g = g * np.where(pre > 0, 1.0, np.exp(pre))
        if b.requires_grad:
            nc.accumulate_grad(b, g.sum(axis=0))
        if w.requires_grad:
            nc.accumulate_grad(w, r.T @ g)
        g_x, g_gain = _rmsnorm_backward(g @ w.data.T, x.data, gain.data, rms, normed)
        if x.requires_grad:
            nc.accumulate_grad(x, g_x)
        if gain.requires_grad:
            nc.accumulate_grad(gain, g_gain)

    def backward(g):
        g_reference = g.sum(axis=0, keepdims=True) / n2
        block_backward(np.broadcast_to(g_reference, (n2, g.shape[1])), saved2)
        block_backward(g, saved1)

    return nc.graph_op(own + reference.sum(axis=0, keepdims=True) / n2,
                       (f1, f2, params.w1, params.b1, params.w2, params.b2,
                        params.gain1, params.gain2),
                       backward, "snnfusion")


def dropf2fusion(f1: Tensor, f2: Tensor) -> Tensor:
    """Skip expert: the reference modality contributes nothing."""
    return f1


def mome_forward(
    f1: Tensor,
    f2: Tensor,
    layer: MoMELayer,
    rng: np.random.Generator | None = None,
    key_chunk: int | None = None,
    routes: list[GateDecision] | None = None,
) -> Tensor:
    """Route one sample through exactly one expert of this layer; when
    ``routes`` is a list, append the gate's decision to it.

    ``rng`` is the dropout switch of the SNN expert, as in
    :func:`snnfusion`: a stream in training, ``None`` in evaluation.
    """
    decision = gate(f1, f2, layer.gate, layer.enable_mask)
    expert = decision.expert
    layer.call_counts[expert] += 1
    if expert == ExpertId.TRANSFUSION:
        out = transfusion(f1, f2, layer.tf, key_chunk)
    elif expert == ExpertId.BOTTLENECK_TRANSFUSION:
        out = bottleneck_transfusion(
            f1, f2, layer.bottleneck, layer.btf_inner, layer.btf_outer, key_chunk
        )
    elif expert == ExpertId.SNNFUSION:
        out = snnfusion(f1, f2, layer.snn, rng)
    else:
        out = dropf2fusion(f1, f2)
    if routes is not None:
        routes.append(decision)
    return nc.mul(out, decision.probability)
