"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor op records its inputs and a backward closure on the output
node, so the computation graph is the implicitly taped DAG of live
``Tensor`` objects. Node ids increase with creation order, which is a
valid topological order by construction; ``Tensor.backward`` walks the
reachable subgraph in reverse creation order and accumulates gradients
into every ``requires_grad`` leaf.

The module holds only the primitives the model runs, and each of them is
checked against central finite differences by :mod:`mome.gradcheck`.
Fused ops with a closed-form backward (the gate, the SNN expert, the
genomic embedding, the attention kernel and the survival loss) live with
their callers and enter the graph as one node each through
:func:`graph_op`.
Model weights live in dataclasses derived from :class:`ParameterSet`,
whose fields are their parameter list; :class:`Init` makes every one of
those tensors, and :class:`Adam` is the one optimizer and updates them
in place from their ``grad``.

Conventions:

* everything is float64; a NaN/Inf forward result raises ``NumericError``
  instead of propagating silently,
* tensors are immutable after creation except for gradient accumulation
  and in-place optimizer updates on leaf parameters,
* all stochastic ops take an explicit ``numpy.random.Generator`` created
  by :func:`rng_stream` (counter-based Philox), never global state; in
  evaluation they draw nothing and take ``None``.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import fields
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, UsageError

_node_ids = itertools.count()
_grad_enabled = True


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
    """Add ``g`` into ``t.grad`` in place; the first is stored as a copy,
    because an op may hand one array to several parents (``add`` does)."""
    if t.grad is None:
        t.grad = np.array(g)
    else:
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


def reduce_sum(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sum(a.data)

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, np.broadcast_to(g, a.data.shape))

    return graph_op(np.asarray(out), (a,), backward, "sum")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise UsageError("concat_rows of an empty sequence")
    out = np.concatenate([p.data for p in parts], axis=0)

    def backward(g):
        start = 0
        for p in parts:
            stop = start + p.data.shape[0]
            if p.requires_grad:
                accumulate_grad(p, g[start:stop])
            start = stop

    return graph_op(out, tuple(parts), backward, "concat_rows")


# ---------------------------------------------------------------------------
# parameter sets and optimizer
# ---------------------------------------------------------------------------


class Init:
    """The one source of trainable tensors: each rule hands ``make`` a shape
    and a draw from ``rng``, and a checkpoint reader overrides ``make`` to
    read the values instead. A model calls the rules in ``parameters()`` order."""

    def __init__(self, rng: np.random.Generator | None):
        self.rng = rng

    def make(self, shape: tuple[int, ...], draw: Callable) -> Tensor:
        return Tensor(draw(self.rng), requires_grad=True)

    def fan_in(self, shape: tuple[int, ...]) -> Tensor:  # uniform within ±1/sqrt(shape[0])
        bound = 1.0 / np.sqrt(shape[0])
        return self.make(shape, lambda rng: rng.uniform(-bound, bound, size=shape))

    def constant(self, shape: tuple[int, ...], value: float) -> Tensor:
        return self.make(shape, lambda rng: np.full(shape, value))

    def normal(self, shape: tuple[int, ...]) -> Tensor:  # 0.02 x standard normal
        return self.make(shape, lambda rng: 0.02 * rng.standard_normal(shape))

    def near_identity(self, d: int) -> Tensor:
        """Identity plus 0.01 x standard normal: a multi-head output
        projection that starts close to the single-head behaviour."""
        return self.make((d, d), lambda rng: np.eye(d) + 0.01 * rng.standard_normal((d, d)))


class ParameterSet:
    """Base of the dataclasses that hold trainable tensors.

    The dataclass fields are the parameter list: ``parameters`` walks them
    in declaration order, lists each ``Tensor`` as ``prefix.field``,
    recurses into each nested ``ParameterSet`` under ``prefix.field`` and
    skips every other field (counts, rates, flags, a ``None`` tensor).
    """

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                named.append((f"{prefix}.{f.name}", value))
            elif isinstance(value, ParameterSet):
                named += value.parameters(f"{prefix}.{f.name}")
        return named


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba 2015), in place on ``params``,
    at the paper's constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    ``step`` reads each parameter's ``grad`` and skips those whose
    gradient is None. Weight decay is coupled: an L2 term added to the
    gradient before the moment updates. The moments are allocated at the
    first step. A non-finite update raises ``NumericError`` naming the
    parameter's index before that parameter is written. ``lr`` is taken
    as given: ``training.RunConfig`` owns its range rule.
    """

    def __init__(self, params: Sequence[Tensor], *, lr: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m: list[np.ndarray] = []
        self.v: list[np.ndarray] = []

    def step(self) -> None:
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in self.params]
            self.v = [np.zeros_like(p.data) for p in self.params]
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for index, (p, m, v) in enumerate(zip(self.params, self.m, self.v)):
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if not np.isfinite(update).all():
                raise NumericError(f"non-finite update produced by 'adam_step' for parameter {index}")
            p.data -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
