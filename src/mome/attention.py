"""Self-attention and co-attention kernels over token bags.

Both kernels share one fused scaled-dot-product op. It walks the queries
in fixed tiles of ``QUERY_TILE`` rows and, for each tile, streams over
key blocks with an online log-sum-exp accumulator, so at most
``QUERY_TILE`` x ``key_chunk`` scores exist at once and the full score
matrix is never materialized. The streamed result is exact (not an
approximation): for any block size it matches the dense computation to
accumulation roundoff. The same op splits the heads: it walks each
head's column slice of the projected queries, keys and values inside one
graph node, so H heads cost no extra nodes.

Because the tile size is fixed, a caller that keeps only a prefix of the
query rows (``self_attention(..., rows=k)``) runs exactly the tile
products that cover those rows in the full computation, so the kept rows
and every gradient equal "full, then slice" bit for bit.

The kernel takes no mask: the model never hides a score. The cross-modal
embedding identity is shipped as an executable check instead: concatenated
self-attention contains co-attention as the cross block of its score
matrix, and a dense softmax with the query modality's self block masked
out (:func:`cross_block_mask`) matches the kernel's co-attention. See
:func:`verify_ca_embedding`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, DataError, ShapeError
from .numcore import Tensor

# Query rows per tile of the kernel's outer loop. A fixed size, not an
# option: pruned and full calls must run the same tile products.
QUERY_TILE = 256


@dataclass
class AttentionParams:
    """Square query/key/value projections, optionally split into heads."""

    query: Tensor
    key: Tensor
    value: Tensor
    head_count: int = 1
    out_proj: Tensor | None = None

    def __post_init__(self):
        d = self.query.shape[0]
        for name, t in (("query", self.query), ("key", self.key), ("value", self.value)):
            if t.shape != (d, d):
                raise ShapeError(f"{name} projection must be {d}x{d}, got {t.shape}")
        if self.head_count < 1 or d % self.head_count:
            raise ConfigError(f"width {d} is not divisible into {self.head_count} heads")
        if self.head_count > 1 and self.out_proj is None:
            raise ConfigError("multi-head attention requires an output projection")

    @property
    def width(self) -> int:
        return self.query.shape[0]

    @classmethod
    def create(cls, d: int, rng: np.random.Generator, head_count: int = 1) -> "AttentionParams":
        bound = 1.0 / np.sqrt(d)
        mats = [
            Tensor(rng.uniform(-bound, bound, size=(d, d)), requires_grad=True) for _ in range(3)
        ]
        out_proj = None
        if head_count > 1:
            # Near-identity so the multi-head stack starts close to the
            # single-head behaviour.
            out_proj = Tensor(
                np.eye(d) + 0.01 * rng.standard_normal((d, d)), requires_grad=True
            )
        return cls(*mats, head_count=head_count, out_proj=out_proj)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        named = [
            (f"{prefix}.query", self.query),
            (f"{prefix}.key", self.key),
            (f"{prefix}.value", self.value),
        ]
        if self.out_proj is not None:
            named.append((f"{prefix}.out_proj", self.out_proj))
        return named


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    key_chunk: int | None = None,
    head_count: int = 1,
) -> Tensor:
    """softmax(q kᵀ · scale) v per head, as one fused, differentiable op.

    With ``head_count`` H the columns of q, k and v split into H equal
    slices; head h attends with slice h of each and writes slice h of the
    output. The queries run in tiles of ``QUERY_TILE`` rows, each with its
    own running row maximum and running normalizer. With ``key_chunk`` set
    the forward pass streams each tile over key blocks of that size; the
    backward pass re-walks the same tiles and blocks, accumulating the key
    and value gradients tile by tile, so peak memory stays at
    ``QUERY_TILE`` x ``key_chunk`` scores. A q that holds only the first
    tiles of a longer query bag therefore yields the first rows of the
    longer call's output, and of its key and value gradients when the
    dropped rows carry no output gradient, bit for bit.
    """
    n, d = q.shape
    m, d_v = v.shape
    if k.shape != (m, d):
        raise ShapeError(f"attention operand shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    if key_chunk is not None and key_chunk < 1:
        raise ConfigError(f"key_chunk must be >= 1, got {key_chunk}")
    if head_count < 1 or d % head_count or d_v % head_count:
        raise ConfigError(f"widths {d} and {d_v} do not split into {head_count} heads")
    block = m if key_chunk is None else min(key_chunk, m)
    bounds = [(s, min(s + block, m)) for s in range(0, m, block)]
    tiles = [(s, min(s + QUERY_TILE, n)) for s in range(0, n, QUERY_TILE)]
    dh, dvh = d // head_count, d_v // head_count

    out = np.empty((n, d_v))
    heads = []
    for h in range(head_count):
        qk, vc = slice(h * dh, (h + 1) * dh), slice(h * dvh, (h + 1) * dvh)
        qd, kd = np.ascontiguousarray(q.data[:, qk]), np.ascontiguousarray(k.data[:, qk])
        vd = np.ascontiguousarray(v.data[:, vc])
        row_max, normalizer = np.empty(n), np.empty(n)
        for t0, t1 in tiles:
            qt = qd[t0:t1]
            tile_max = np.full(t1 - t0, -np.inf)
            tile_norm = np.zeros(t1 - t0)
            acc = np.zeros((t1 - t0, dvh))
            for start, stop in bounds:
                scores = qt @ kd[start:stop].T * scale
                new_max = np.maximum(tile_max, scores.max(axis=1))
                # First block: exp(-inf - finite) is an exact 0, no warning.
                carried = np.exp(tile_max - new_max)
                probs = np.exp(scores - new_max[:, None])
                tile_norm = tile_norm * carried + probs.sum(axis=1)
                acc = acc * carried[:, None] + probs @ vd[start:stop]
                tile_max = new_max
            out[t0:t1, vc] = acc / tile_norm[:, None]
            row_max[t0:t1], normalizer[t0:t1] = tile_max, tile_norm
        heads.append((qk, vc, qd, kd, vd, row_max, normalizer))

    def backward(g):
        dq = np.zeros_like(q.data) if q.requires_grad else None
        dk = np.zeros_like(k.data) if k.requires_grad else None
        dv = np.zeros_like(v.data) if v.requires_grad else None
        for qk, vc, qd, kd, vd, row_max, normalizer in heads:
            gh = np.ascontiguousarray(g[:, vc])
            for t0, t1 in tiles:
                qt, gt = qd[t0:t1], gh[t0:t1]
                tile_max, tile_norm = row_max[t0:t1], normalizer[t0:t1]
                delta = np.sum(gt * out[t0:t1, vc], axis=1)
                for start, stop in bounds:
                    scores = qt @ kd[start:stop].T * scale
                    probs = np.exp(scores - tile_max[:, None]) / tile_norm[:, None]
                    if dv is not None:
                        dv[start:stop, vc] += probs.T @ gt
                    if dq is not None or dk is not None:
                        dscores = probs * (gt @ vd[start:stop].T - delta[:, None])
                        if dq is not None:
                            dq[t0:t1, qk] += dscores @ kd[start:stop] * scale
                        if dk is not None:
                            dk[start:stop, qk] += dscores.T @ qt * scale
        if dq is not None:
            nc.accumulate_grad(q, dq)
        if dk is not None:
            nc.accumulate_grad(k, dk)
        if dv is not None:
            nc.accumulate_grad(v, dv)

    return nc.graph_op(out, (q, k, v), backward, "scaled_dot_attention")


def _attend(
    queries_from: Tensor,
    keys_from: Tensor,
    params: AttentionParams,
    key_chunk: int | None,
    rows: int | None = None,
) -> Tensor:
    xq = nc.matmul(queries_from, params.query)
    xk = nc.matmul(keys_from, params.key)
    xv = nc.matmul(keys_from, params.value)
    n = xq.shape[0]
    rows = n if rows is None else rows
    # Q is projected for every row and then cut: projecting a row subset
    # would be a smaller product, which BLAS may round differently.
    covered = min(n, -(-rows // QUERY_TILE) * QUERY_TILE)
    if covered < n:
        xq = nc.slice_rows(xq, 0, covered)
    scale = 1.0 / np.sqrt(params.width // params.head_count)
    out = scaled_dot_attention(xq, xk, xv, scale, key_chunk=key_chunk,
                               head_count=params.head_count)
    if params.out_proj is not None:
        out = nc.matmul(out, params.out_proj)
    return out if rows == covered else nc.slice_rows(out, 0, rows)


def self_attention(
    tokens: Tensor,
    params: AttentionParams,
    key_chunk: int | None = None,
    rows: int | None = None,
) -> Tensor:
    """Attend a token bag to itself: softmax((XQ)(XK)ᵀ/√d_head)(XV).

    With ``rows`` set, only the first ``rows`` output rows are returned and
    the kernel computes only the query tiles that cover them. The result
    and every gradient equal the full output sliced to those rows, bit for
    bit.
    """
    if tokens.ndim != 2 or tokens.shape[1] != params.width:
        raise ShapeError(f"token bag shape {tokens.shape} does not match width {params.width}")
    n = tokens.shape[0]
    if n < 1:
        raise DataError("self_attention needs at least one token")
    if rows is not None and not 1 <= rows <= n:
        raise ShapeError(f"cannot keep {rows} rows of a {n}-token bag")
    return _attend(tokens, tokens, params, key_chunk, rows)


def co_attention(
    f1: Tensor,
    f2: Tensor,
    params: AttentionParams,
    key_chunk: int | None = None,
) -> Tensor:
    """Attend f1 queries over f2 keys/values: softmax((F1Q)(F2K)ᵀ/√d_head)(F2V)."""
    for name, bag in (("f1", f1), ("f2", f2)):
        if bag.ndim != 2 or bag.shape[0] < 1:
            raise DataError(f"co_attention needs a nonempty rank-2 {name} bag")
        if bag.shape[1] != params.width:
            raise ShapeError(f"{name} width {bag.shape[1]} does not match {params.width}")
    return _attend(f1, f2, params, key_chunk)


def cross_block_mask(n1: int, n2: int) -> np.ndarray:
    """Additive mask over [F1; F2] scores that hides the F1->F1 block.

    Only the dense reference of :func:`verify_ca_embedding` applies it.
    """
    mask = np.zeros((n1 + n2, n1 + n2))
    mask[:n1, :n1] = -np.inf
    return mask


@dataclass
class CaEquivalenceReport:
    """Outcome of the co-attention-inside-self-attention check."""

    ok: bool
    score_block_dev: float
    output_dev: float

    @property
    def max_deviation(self) -> float:
        return max(self.score_block_dev, self.output_dev)


def verify_ca_embedding(
    f1: Tensor,
    f2: Tensor,
    params: AttentionParams,
    ca_params: AttentionParams | None = None,
    score_tol: float = 1e-12,
    output_tol: float = 1e-10,
) -> CaEquivalenceReport:
    """Check that co-attention is embedded in concatenated self-attention.

    Two facts are verified with shared single-head weights: (a) the
    pre-softmax cross block of the concatenated score matrix equals the
    co-attention scores, and (b) a dense numpy softmax of that score
    matrix with the query modality's own block masked out, restricted to
    the first n1 rows and applied to the stacked values, equals the
    kernel's co-attention. Part (b) checks the streaming kernel against an
    independent reference. ``ca_params`` substitutes different weights on
    the co-attention side (useful as a negative control) and defaults to
    the shared ones.
    """
    if params.head_count != 1:
        raise ConfigError("the embedding identity is checked for a single head")
    ca = ca_params if ca_params is not None else params
    n1, n2 = f1.shape[0], f2.shape[0]
    scale = 1.0 / np.sqrt(params.width)
    with nc.no_grad():
        stacked = np.concatenate([f1.data, f2.data], axis=0)
        full_scores = (stacked @ params.query.data) @ (stacked @ params.key.data).T * scale
        ca_scores = (f1.data @ ca.query.data) @ (f2.data @ ca.key.data).T * scale
        score_dev = float(np.max(np.abs(full_scores[:n1, n1:] - ca_scores)))

        masked = (full_scores + cross_block_mask(n1, n2))[:n1]
        weights = np.exp(masked - masked.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        reference = weights @ (stacked @ params.value.data)
        co = co_attention(f1, f2, ca)
        output_dev = float(np.max(np.abs(reference - co.data)))
    return CaEquivalenceReport(
        ok=score_dev <= score_tol and output_dev <= output_tol,
        score_block_dev=score_dev,
        output_dev=output_dev,
    )
