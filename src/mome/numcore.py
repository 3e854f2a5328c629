"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor op records its inputs and a backward closure on the output
node, so the computation graph is the implicitly taped DAG of live
``Tensor`` objects. Node ids increase with creation order, which is a
valid topological order by construction; ``Tensor.backward`` walks the
reachable subgraph in reverse creation order and accumulates gradients
into every ``requires_grad`` leaf.

The module holds only the primitives the model runs, and each of them is
checked against central finite differences by :mod:`mome.gradcheck`.

Conventions:

* everything is float64; a NaN/Inf forward result raises ``NumericError``
  instead of propagating silently,
* tensors are immutable after creation except for gradient accumulation
  and in-place optimizer updates on leaf parameters,
* all stochastic ops take an explicit ``numpy.random.Generator`` created
  by :func:`rng_stream` (counter-based Philox), never global state.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import ConfigError, NumericError, ShapeError, UsageError

_node_ids = itertools.count()
_grad_enabled = True

# Saturation value that dropped activations are pulled to: the negative
# limit of a unit-alpha exponential-linear unit.
ELU_SATURATION = -1.0

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def rng_stream(seed: int) -> np.random.Generator:
    """Return a counter-based (Philox) random stream keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (for evaluation loops)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite result produced by '{op}'")


class Tensor:
    """A float64 array participating in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        _ensure_finite(arr, "constructor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._id = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-accumulate gradients of this scalar into the graph leaves."""
        if self.data.size != 1:
            raise UsageError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise UsageError("backward() on a tensor that does not require grad")
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append(parent)
        # Creation order is a topological order of the recorded graph.
        nodes.sort(key=lambda t: t._id)
        self.grad = np.ones_like(self.data)
        for node in reversed(nodes):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def graph_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], None] | None,
    op: str,
) -> Tensor:
    """Wrap a computed array as a graph node (hook for fused kernels)."""
    _ensure_finite(data, op)
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires
    out._parents = tuple(parents) if requires else ()
    out._backward_fn = backward if requires else None
    out._op = op
    out._id = next(_node_ids)
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, allocating the buffer on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _unbroadcast(g, b.data.shape))

    return graph_op(out, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _unbroadcast(g * a.data, b.data.shape))

    return graph_op(out, (a, b), backward, "mul")


def matmul(a, b) -> Tensor:
    """Matrix product of two rank-2 tensors, differentiable in both."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, g @ b.data.T)
        if b.requires_grad:
            accumulate_grad(b, a.data.T @ g)

    return graph_op(out, (a, b), backward, "matmul")


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate_grad(a, np.broadcast_to(g, a.data.shape))

    return graph_op(np.asarray(out), (a,), backward, "sum")


def mean_rows(a, keepdims: bool = True) -> Tensor:
    """Mean over the token (first) axis of a bag.

    The rows are summed in storage order, so the result depends on that
    order in its last bits: this op guarantees no order of its own.
    Callers that pool an unordered set fix the order first; the model
    does it once, by sorting the patch rows at its entry (see
    ``MoMEModel.forward``).
    """
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"mean_rows needs a rank-2 bag, got {a.shape}")
    n = a.data.shape[0]
    pooled = a.data.sum(axis=0, keepdims=keepdims) / n

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, np.broadcast_to(g.reshape(1, -1) / n, a.data.shape))

    return graph_op(pooled, (a,), backward, "mean_rows")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise UsageError("concat_rows of an empty sequence")
    out = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                accumulate_grad(p, g[start:stop])

    return graph_op(out, tuple(parts), backward, "concat_rows")


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    n = a.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"row slice [{start}:{stop}] invalid for {n} rows")
    out = a.data[start:stop].copy()

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += g

    return graph_op(out, (a,), backward, "slice_rows")


def select_columns(a, columns: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"select_columns needs a rank-2 tensor, got {a.shape}")
    cols = list(columns)
    out = a.data[:, cols].copy()

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, (slice(None), cols), g)

    return graph_op(out, (a,), backward, "select_columns")


# ---------------------------------------------------------------------------
# normalization, softmax, activations, dropout
# ---------------------------------------------------------------------------


def softmax_rows(x) -> Tensor:
    """Row-stabilized softmax of a rank-2 tensor; each row sums to 1."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows needs a rank-2 tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = np.sum(g * out, axis=1, keepdims=True)
            accumulate_grad(x, (g - dot) * out)

    return graph_op(out, (x,), backward, "softmax_rows")


def rmsnorm(x, gain, eps: float = 1e-8) -> Tensor:
    """Divide each row by its root-mean-square, then scale per feature."""
    x, gain = _as_tensor(x), _as_tensor(gain)
    if x.ndim != 2:
        raise ShapeError(f"rmsnorm needs a rank-2 tensor, got {x.shape}")
    if eps < 0:
        raise ConfigError("rmsnorm eps must be nonnegative")
    d = x.data.shape[1]
    if gain.data.shape != (d,):
        raise ShapeError(f"rmsnorm gain shape {gain.shape} does not match width {d}")
    rms = np.sqrt(np.mean(x.data * x.data, axis=1, keepdims=True) + eps)
    normed = x.data / rms
    out = normed * gain.data

    def backward(g):
        gy = g * gain.data
        if x.requires_grad:
            dot = np.sum(gy * x.data, axis=1, keepdims=True)
            accumulate_grad(x, gy / rms - x.data * dot / (d * rms**3))
        if gain.requires_grad:
            accumulate_grad(gain, np.sum(g * normed, axis=0))

    return graph_op(out, (x, gain), backward, "rmsnorm")


def gelu(x) -> Tensor:
    """Gaussian error linear unit in its exact normal-CDF form."""
    x = _as_tensor(x)
    cdf = special.ndtr(x.data)
    out = x.data * cdf

    def backward(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
            accumulate_grad(x, g * (cdf + x.data * pdf))

    return graph_op(out, (x,), backward, "gelu")


def elu(x) -> Tensor:
    """Exponential linear unit with unit alpha."""
    x = _as_tensor(x)
    out = np.where(x.data > 0, x.data, np.expm1(x.data))

    def backward(g):
        if x.requires_grad:
            accumulate_grad(x, g * np.where(x.data > 0, 1.0, np.exp(x.data)))

    return graph_op(out, (x,), backward, "elu")


def alpha_dropout(x, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Self-normalizing dropout: dropped entries saturate, then an affine
    correction restores zero mean and unit variance in expectation.

    Identity when ``training`` is false or ``rate`` is 0.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    q = 1.0 - rate
    scale = 1.0 / np.sqrt(q + ELU_SATURATION**2 * rate * q)
    shift = -scale * rate * ELU_SATURATION
    out = scale * np.where(keep, x.data, ELU_SATURATION) + shift

    def backward(g):
        if x.requires_grad:
            accumulate_grad(x, g * scale * keep)

    return graph_op(out, (x,), backward, "alpha_dropout")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments and hyperparameters for one parameter list."""

    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-5
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_step(
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray | None],
    state: AdamState,
) -> AdamState:
    """One Adam update with bias correction, in place on ``params``.

    Weight decay is coupled: an L2 term added to the gradient before the
    moment updates. Parameters whose gradient is None are skipped. A
    non-finite update raises ``NumericError`` naming the parameter's index
    before that parameter is written.
    """
    if state.lr <= 0:
        raise ConfigError("Adam learning rate must be positive")
    if len(params) != len(grads):
        raise UsageError("params and grads length mismatch")
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if len(state.m) != len(params):
        raise UsageError("AdamState was initialized for a different parameter list")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for index, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise UsageError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if not np.isfinite(update).all():
            raise NumericError(f"non-finite update produced by 'adam_step' for parameter {index}")
        p.data -= update
    return state


class Adam:
    """Convenience wrapper binding an :class:`AdamState` to named parameters."""

    def __init__(self, params: Sequence[Tensor], **hyper):
        self.params = list(params)
        self.state = AdamState(**hyper)

    def step(self) -> None:
        adam_step(self.params, [p.grad for p in self.params], self.state)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
