"""Central finite-difference verification of every differentiable path.

Each component builds a small random instance, runs one backward pass,
and compares every analytic gradient entry against a central difference
(step 1e-5 in float64). The reported error is

    max |analytic - numeric| / max(1, |analytic|, |numeric|)

so it reads as a relative error for order-one gradients and as an
absolute error near zero. The suite is the executable contract that the
backward of every primitive the model runs (broadcasting included), every
attention variant, the gate, each expert, one routed MoME layer, the loss
and a composite model path are all exact.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .attention import QUERY_TILE, AttentionParams, co_attention, self_attention
from .bpe import GenomicGroups, ModelConfig, MoMEModel
from .errors import ConfigError
from .experts import (EXPERT_COUNT, MoMELayer, bottleneck_transfusion, dropf2fusion, gate,
                      mome_forward, snnfusion, transfusion)
from .numcore import Tensor
from .survival import SurvivalTarget, hazards_from_logits, nll_loss

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
_SEED_STRIDE, _SEED_OFFSET = 1000, 17


def max_fd_error(build_loss, wiggle: list[Tensor], step: float = DEFAULT_STEP,
                 fault: bool = False) -> float:
    """Worst finite-difference deviation over every entry of ``wiggle``.

    ``build_loss`` must rebuild the graph from the tensors' current data
    on every call (stochastic ops included, with fixed streams). With
    ``fault`` set, the analytic gradients are deliberately biased; the
    check must then report a large error (negative-control hook).
    """
    loss = build_loss()
    loss.backward()
    analytic = []
    for t in wiggle:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        analytic.append(grad.copy())
        t.grad = None
    if fault:
        analytic[0] = analytic[0] + 0.05

    worst = 0.0
    for t, grad in zip(wiggle, analytic):
        flat = t.data.reshape(-1)
        aflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = build_loss().item()
            flat[i] = orig - step
            lo = build_loss().item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            denom = max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


def _rotate(wiggle: list[Tensor], seed: int) -> list[Tensor]:
    """One tensor per seed: across many seeds every tensor is differenced
    repeatedly while each single run stays cheap.

    The rotation runs on the seed's index, not the seed: the stride
    shares factors with most list lengths, so ``seed % len`` would pick
    the same tensor on every seed.
    """
    return [wiggle[(seed // _SEED_STRIDE) % len(wiggle)]]


def _weighted_sum(t: Tensor, weights: np.ndarray) -> Tensor:
    return nc.reduce_sum(nc.mul(t, Tensor(weights)))


def _check_matmul(seed, fault=False):
    rng = nc.rng_stream(seed)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    w = rng.standard_normal((2, 2))
    return max_fd_error(lambda: _weighted_sum(nc.matmul(a, b), w), [a, b], fault=fault)


def _check_softmax(seed, fault=False):
    rng = nc.rng_stream(seed)
    x = Tensor(2 * rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 4))
    return max_fd_error(lambda: _weighted_sum(nc.softmax_rows(x), w), [x], fault=fault)


def _check_rmsnorm(seed, fault=False):
    rng = nc.rng_stream(seed)
    x = Tensor(rng.standard_normal((3, 4)) + 0.5, requires_grad=True)
    gain = Tensor(rng.standard_normal(4), requires_grad=True)
    w = rng.standard_normal((3, 4))
    return max_fd_error(lambda: _weighted_sum(nc.rmsnorm(x, gain), w), [x, gain], fault=fault)


def _activation_check(fn):
    def check(seed, fault=False):
        rng = nc.rng_stream(seed)
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        w = rng.standard_normal((2, 5))
        return max_fd_error(lambda: _weighted_sum(fn(x), w), [x], fault=fault)

    return check


def _check_alpha_dropout(seed, fault=False):
    rng = nc.rng_stream(seed)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 4))

    def build():
        out = nc.alpha_dropout(x, 0.4, training=True, rng=nc.rng_stream(seed + 1))
        return _weighted_sum(out, w)

    return max_fd_error(build, [x], fault=fault)


def _check_pooling(seed, fault=False):
    rng = nc.rng_stream(seed)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = rng.standard_normal((1, 3))
    return max_fd_error(lambda: _weighted_sum(nc.mean_rows(x), w), [x], fault=fault)


def _check_structural(seed, fault=False):
    rng = nc.rng_stream(seed)
    a = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((2, 2))

    def build():
        cat = nc.concat_rows([a, b])
        piece = nc.select_columns(nc.slice_rows(cat, 1, 3), [1, 2])
        return _weighted_sum(piece, w)

    return max_fd_error(build, [a, b], fault=fault)


def _check_broadcast(seed, fault=False):
    """A bias row added to a bag, then scaled by a [1, 1] gate probability."""
    rng = nc.rng_stream(seed)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    bias = Tensor(rng.standard_normal(4), requires_grad=True)
    prob = Tensor(rng.uniform(0.1, 1.0, (1, 1)), requires_grad=True)
    w = rng.standard_normal((3, 4))
    return max_fd_error(lambda: _weighted_sum(nc.mul(nc.add(x, bias), prob), w),
                        [x, bias, prob], fault=fault)


def _attention_instance(seed, d=6, heads=1):
    rng = nc.rng_stream(seed)
    params = AttentionParams.create(d, rng, head_count=heads)
    tokens = Tensor(rng.standard_normal((4, d)), requires_grad=True)
    wiggle = [tokens, params.query, params.key, params.value]
    if params.out_proj is not None:
        wiggle.append(params.out_proj)
    return params, tokens, wiggle, rng


def _check_attention_self(seed, fault=False):
    params, tokens, wiggle, rng = _attention_instance(seed)
    w = rng.standard_normal((4, 6))
    return max_fd_error(lambda: _weighted_sum(self_attention(tokens, params), w),
                        _rotate(wiggle, seed), fault=fault)


def _check_attention_multihead(seed, fault=False):
    params, tokens, wiggle, rng = _attention_instance(seed, heads=2)
    w = rng.standard_normal((4, 6))
    return max_fd_error(lambda: _weighted_sum(self_attention(tokens, params), w),
                        _rotate(wiggle, seed), fault=fault)


def _check_attention_chunked(seed, fault=False):
    params, tokens, wiggle, rng = _attention_instance(seed)
    w = rng.standard_normal((4, 6))
    return max_fd_error(
        lambda: _weighted_sum(self_attention(tokens, params, key_chunk=2), w),
        _rotate(wiggle, seed), fault=fault,
    )


def _check_attention_pruned(seed, fault=False):
    """A bag one tile and two rows long, keeping a one-row prefix: the
    kernel runs the first query tile only and skips the second."""
    rng = nc.rng_stream(seed)
    params = AttentionParams.create(6, rng)
    tokens = Tensor(rng.standard_normal((QUERY_TILE + 2, 6)))
    w = rng.standard_normal((1, 6))
    wiggle = [params.query, params.key, params.value]
    return max_fd_error(lambda: _weighted_sum(self_attention(tokens, params, rows=1), w),
                        _rotate(wiggle, seed), fault=fault)


def _check_attention_co(seed, fault=False):
    rng = nc.rng_stream(seed)
    params = AttentionParams.create(6, rng)
    f1 = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    f2 = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    w = rng.standard_normal((3, 6))
    wiggle = [f1, f2, params.query, params.key, params.value]
    return max_fd_error(lambda: _weighted_sum(co_attention(f1, f2, params), w),
                        _rotate(wiggle, seed), fault=fault)


def _expert_instance(seed, d=6, **layer_options):
    rng = nc.rng_stream(seed)
    layer = MoMELayer.create(d, rng, n_bottleneck=2, dropout_rate=0.3, **layer_options)
    f1 = Tensor(rng.standard_normal((3, d)), requires_grad=True)
    f2 = Tensor(rng.standard_normal((2, d)), requires_grad=True)
    w = rng.standard_normal((3, d))
    return layer, f1, f2, w


def _check_gate(seed, fault=False):
    layer, f1, f2, _ = _expert_instance(seed)
    params = layer.gate
    logit_w = nc.rng_stream(seed + 1).standard_normal((1, 4))

    def build():
        decision = gate(f1, f2, params)
        return nc.add(_weighted_sum(decision.logits, logit_w), decision.probability)

    wiggle = [f1, f2, params.w1, params.w2, params.w, params.gain1, params.gain2]
    return max_fd_error(build, _rotate(wiggle, seed), fault=fault)


def _check_transfusion(seed, fault=False):
    layer, f1, f2, w = _expert_instance(seed)
    p = layer.tf
    wiggle = [f1, f2, p.query, p.key, p.value]
    return max_fd_error(lambda: _weighted_sum(transfusion(f1, f2, p), w),
                        _rotate(wiggle, seed), fault=fault)


def _check_bottleneck(seed, fault=False):
    layer, f1, f2, w = _expert_instance(seed)

    def build():
        out = bottleneck_transfusion(f1, f2, layer.bottleneck, layer.btf_inner, layer.btf_outer)
        return _weighted_sum(out, w)

    wiggle = [f1, f2, layer.bottleneck, layer.btf_inner.query, layer.btf_inner.value,
              layer.btf_outer.query, layer.btf_outer.key]
    return max_fd_error(build, _rotate(wiggle, seed), fault=fault)


def _check_snn(seed, fault=False):
    layer, f1, f2, w = _expert_instance(seed)
    s = layer.snn

    def build():
        out = snnfusion(f1, f2, s, training=True, rng=nc.rng_stream(seed + 7))
        return _weighted_sum(out, w)

    wiggle = [f1, f2, s.w1, s.b1, s.w2, s.b2, s.gain1, s.gain2]
    return max_fd_error(build, _rotate(wiggle, seed), fault=fault)


def _check_dropf2(seed, fault=False):
    """All-exact contract: output is f1 bit for bit, the reference bag
    gets exactly zero gradient, and the f1 gradient is exactly the
    incoming one. Returns 0.0 when every check holds."""
    layer, f1, f2, w = _expert_instance(seed)
    out = dropf2fusion(f1, f2)
    identical = np.array_equal(out.data, f1.data)
    _weighted_sum(out, w).backward()
    reference_grad = 0.0 if f2.grad is None else float(np.max(np.abs(f2.grad)))
    passthrough = f1.grad is not None and np.array_equal(f1.grad, w)
    f1.grad = None
    f2.grad = None
    if fault or not identical or not passthrough:
        return 1.0
    return reference_grad


# Two enabled experts per instance: with one, the gate probability is the
# constant 1 and the gate gets no gradient.
_EXPERT_PAIRS = list(itertools.combinations(range(EXPERT_COUNT), 2))


def _mome_layer_instance(seed):
    """A two-head layer with two enabled experts. The pair advances once per
    turn of ``_rotate`` over the four wiggled tensors, so every pair meets
    every tensor."""
    pair = _EXPERT_PAIRS[(seed // _SEED_STRIDE // 4) % len(_EXPERT_PAIRS)]
    mask = tuple(i in pair for i in range(EXPERT_COUNT))
    return _expert_instance(seed, head_count=2, enable_mask=mask)


def _check_mome_layer(seed, fault=False):
    layer, f1, f2, w = _mome_layer_instance(seed)

    def build():
        out = mome_forward(f1, f2, layer, training=True, rng=nc.rng_stream(seed + 5),
                           key_chunk=2)
        return _weighted_sum(out, w)

    wiggle = [f1, f2, layer.gate.w1, layer.gate.w]
    return max_fd_error(build, _rotate(wiggle, seed), fault=fault)


def _check_nll(seed, fault=False):
    rng = nc.rng_stream(seed)
    logits = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
    censored = SurvivalTarget(bin=1, censored=True, raw_time=5.0)
    event = SurvivalTarget(bin=2, censored=False, raw_time=5.0)

    def build():
        curve = hazards_from_logits(logits)
        return nc.add(nll_loss(curve, censored), nll_loss(hazards_from_logits(logits), event))

    return max_fd_error(build, [logits], fault=fault)


def _check_model_composite(seed, fault=False):
    rng = nc.rng_stream(seed)
    config = ModelConfig(
        d=4, rounds=1, n_b=1, time_bins=2, seed=seed, d_in=4,
        group_sizes=(2, 2, 2, 2, 2, 2), dropout_rate=0.0,
    )
    model = MoMEModel(config)
    patches = rng.standard_normal((3, 4))
    groups = GenomicGroups(tuple(rng.standard_normal(2) for _ in range(6)))
    target = SurvivalTarget(bin=1, censored=False, raw_time=9.0)

    def build():
        logits = model.forward(patches, groups, training=True, rng=nc.rng_stream(seed + 3))
        return nll_loss(hazards_from_logits(logits), target)

    build().backward()
    touched = [
        t for _, t in model.parameters() if t.grad is not None and np.any(t.grad != 0.0)
    ]
    for t in touched:
        t.grad = None
    return max_fd_error(build, touched, fault=fault)


COMPONENTS = {
    "matmul": _check_matmul,
    "softmax": _check_softmax,
    "rmsnorm": _check_rmsnorm,
    "gelu": _activation_check(nc.gelu),
    "elu": _activation_check(nc.elu),
    "alpha_dropout": _check_alpha_dropout,
    "pooling": _check_pooling,
    "structural": _check_structural,
    "broadcast": _check_broadcast,
    "attention_self": _check_attention_self,
    "attention_multihead": _check_attention_multihead,
    "attention_chunked": _check_attention_chunked,
    "attention_pruned": _check_attention_pruned,
    "attention_co": _check_attention_co,
    "gate": _check_gate,
    "transfusion": _check_transfusion,
    "bottleneck_transfusion": _check_bottleneck,
    "snnfusion": _check_snn,
    "dropf2": _check_dropf2,
    "mome_layer": _check_mome_layer,
    "nll_loss": _check_nll,
    "model_composite": _check_model_composite,
}

# The composite walks a whole model per difference step and differences
# every parameter the loss reaches; a handful of seeds already exercises
# each routing path without dominating runtime.
_SEED_CAPS = {"model_composite": 10}


@dataclass
class ComponentResult:
    name: str
    max_error: float
    seeds: int
    passed: bool
    wall_seconds: float


def run_suite(
    components: list[str] | None = None,
    seeds: int = 100,
    tolerance: float = DEFAULT_TOLERANCE,
    fault_component: str | None = None,
) -> list[ComponentResult]:
    """Run finite-difference checks over ``seeds`` random instances each.

    ``fault_component`` biases that component's analytic gradients, as a
    negative control that the comparison actually detects wrong math.
    """
    if seeds < 1:
        raise ConfigError(f"gradcheck needs at least one seed, got {seeds}")
    if not 0 < tolerance < np.inf:
        raise ConfigError(f"gradcheck tolerance must be positive and finite, got {tolerance}")
    names = list(COMPONENTS) if components is None else components
    unknown = [n for n in names if n not in COMPONENTS]
    if unknown:
        raise ConfigError(f"unknown gradcheck components: {unknown}")
    results = []
    for name in names:
        check = COMPONENTS[name]
        n_seeds = min(seeds, _SEED_CAPS.get(name, seeds))
        start = time.perf_counter()
        worst = 0.0
        for s in range(n_seeds):
            seed = _SEED_STRIDE * s + _SEED_OFFSET
            worst = max(worst, check(seed, fault=(name == fault_component)))
        results.append(
            ComponentResult(
                name=name,
                max_error=worst,
                seeds=n_seeds,
                passed=worst <= tolerance,
                wall_seconds=time.perf_counter() - start,
            )
        )
    return results
