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

This module owns the process's compute resources (:func:`own_process`).
It pins BLAS to one thread, so no product's bytes depend on the host,
tells the allocator to keep freed pages, and keeps one pool of worker
threads, one per CPU the process may use.
The kernel splits a call into (head, query tile) work items. A call with
two or more query tiles runs them on the pool: the forward items write
disjoint rows, and each backward item writes its own query-gradient rows
and hands back its key and value gradient terms, which the caller sums
in (head, tile) order. So the result is bit-identical to the serial loop
at any pool size. A smaller call runs the same items on the calling
thread. The items touch numpy only: the graph, the finite check and any
tracing stay on the caller's thread.

The online softmax is exact for any set of query rows, so
:func:`self_attention` takes its query bag as the first of the parts it
stacks, and projects and attends exactly those rows against every key.
Its rows and every gradient equal "attend every row, then keep the query
rows" to roundoff: BLAS may round a k-row product differently from the
same rows inside a larger one.

The kernel takes no mask: the model never hides a score. The cross-modal
embedding identity is shipped as an executable check instead: concatenated
self-attention contains co-attention as the cross block of its score
matrix, and a dense softmax with the query modality's self block masked
out (:func:`cross_block_mask`) matches the kernel's co-attention. See
:func:`verify_ca_embedding`.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numcore as nc
from .errors import ConfigError, DataError, ShapeError
from .numcore import Tensor

# Query rows per tile of the kernel's outer loop: with ``key_chunk`` it
# bounds the scores held at once. It does not decide which rows run.
QUERY_TILE = 256

# Workers of the query-tile pool: the CPUs this process may run on.
_POOL_SIZE = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
# glibc ``mallopt`` parameters and the values the process runs with.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 256 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest on 64-bit hosts
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def own_process() -> ThreadPoolExecutor:
    """Take charge of the process's compute resources, once: pin the
    OpenBLAS library numpy loaded (if any) to one thread, tell the C
    allocator to keep the pages it frees, and build the query-tile pool
    of ``_POOL_SIZE`` workers. Returns the pool.

    One BLAS thread makes every product's bytes independent of the host,
    and of a BLAS thread count set in the environment, and two runs on one
    host do not oversubscribe it.

    Backward frees each sample's graph, so the arrays of one step are
    freed before the next step allocates the same sizes again. At its
    defaults glibc serves an array over its dynamic mmap threshold
    (a 2,583-row bag's 1.3 MB activations) with a fresh mapping and
    trims the heap top past 128 KiB, so every step faults those pages
    back in: 37-39k minor faults per steady ``wsi_ragged`` unit (a train
    and a validation pass over six bags of 916-2,583 rows), against
    23-25k while backward kept the graph alive. With the mmap threshold
    at 32 MiB and the trim threshold at 256 MiB the freed pages stay in
    the heap for the next step: after the first unit has grown the heap,
    a unit takes 0-250 faults. Where the C library has no ``mallopt``
    the allocator keeps its defaults.

    Training and evaluation call this before their first forward; the
    kernel calls it for its first pooled call. A forked child drops the
    parent's pool and builds its own.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pin_blas_to_one_thread()
            _keep_freed_pages()
            _pool = ThreadPoolExecutor(_POOL_SIZE, thread_name_prefix="mome-attention")
        return _pool


def _keep_freed_pages() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _pin_blas_to_one_thread() -> None:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def _drop_pool_in_child() -> None:
    # The child has none of the parent's worker threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool_in_child)


@dataclass
class AttentionParams(nc.ParameterSet):
    """Square query/key/value projections, optionally split into heads; in
    a model, filled from a validated ``ModelConfig``. Checks nothing:
    ``create`` builds the shapes and the output projection, and
    :func:`scaled_dot_attention` rejects indivisible heads."""

    query: Tensor
    key: Tensor
    value: Tensor
    head_count: int = 1
    out_proj: Tensor | None = None

    @property
    def width(self) -> int:
        return self.query.shape[0]

    @classmethod
    def create(cls, d: int, init: nc.Init, head_count: int = 1) -> "AttentionParams":
        mats = [init.fan_in((d, d)) for _ in range(3)]
        out_proj = init.near_identity(d) if head_count > 1 else None
        return cls(*mats, head_count=head_count, out_proj=out_proj)


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
    backward pass re-walks the same tiles and blocks, so peak memory stays
    at ``QUERY_TILE`` x ``key_chunk`` scores per tile in flight. Each
    (head, tile) pair is one work item; with two or more tiles the items
    run on the query-tile pool (see :func:`own_process`), and the key and
    value gradients are summed in (head, tile) order, so the result is the
    same bit for bit at any pool size. Each query row's result
    depends on that row and the keys alone, so a q that holds only some
    rows of a longer query bag yields those rows of the longer call's
    output (and its key and value gradients when the dropped rows carry
    no output gradient), up to BLAS roundoff.
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
    pooled = len(tiles) >= 2
    dh, dvh = d // head_count, d_v // head_count

    out = np.empty((n, d_v))
    heads = []
    for h in range(head_count):
        qk, vc = slice(h * dh, (h + 1) * dh), slice(h * dvh, (h + 1) * dvh)
        qd, kd = np.ascontiguousarray(q.data[:, qk]), np.ascontiguousarray(k.data[:, qk])
        vd = np.ascontiguousarray(v.data[:, vc])
        heads.append((qk, vc, qd, kd, vd, np.empty(n), np.empty(n)))
    forward_items = (
        (None, (qd[t0:t1], kd, vd, bounds, scale,
                out[t0:t1, vc], row_max[t0:t1], normalizer[t0:t1]))
        for _, vc, qd, kd, vd, row_max, normalizer in heads
        for t0, t1 in tiles
    )
    for _ in _in_order(_forward_tile, forward_items, pooled):
        pass

    def backward(g):
        dq = np.zeros_like(q.data) if q.requires_grad else None
        dk = np.zeros_like(k.data) if k.requires_grad else None
        dv = np.zeros_like(v.data) if v.requires_grad else None
        spare = []  # key and value gradient buffers whose sums are done

        def items():
            for qk, vc, qd, kd, vd, row_max, normalizer in heads:
                gh = np.ascontiguousarray(g[:, vc])
                for t0, t1 in tiles:
                    parts = spare.pop() if spare else (
                        None if dk is None else np.empty((m, dh)),
                        None if dv is None else np.empty((m, dvh)))
                    yield (qk, vc, parts), (
                        qd[t0:t1], gh[t0:t1], out[t0:t1, vc], kd, vd, bounds, scale,
                        row_max[t0:t1], normalizer[t0:t1],
                        None if dq is None else dq[t0:t1, qk], *parts)

        for (qk, vc, parts), _ in _in_order(_backward_tile, items(), pooled):
            if dk is not None:
                dk[:, qk] += parts[0]
            if dv is not None:
                dv[:, vc] += parts[1]
            spare.append(parts)
        if dq is not None:
            nc.accumulate_grad(q, dq)
        if dk is not None:
            nc.accumulate_grad(k, dk)
        if dv is not None:
            nc.accumulate_grad(v, dv)

    return nc.graph_op(out, (q, k, v), backward, "scaled_dot_attention")


def _forward_tile(qt, kd, vd, bounds, scale, out, row_max, normalizer) -> None:
    """One head's query tile: stream the key blocks with an online
    log-sum-exp and write the tile's output rows, row maxima and
    normalizers into the views ``out``, ``row_max`` and ``normalizer``."""
    rows = qt.shape[0]
    scratch = np.empty(rows * bounds[0][1])
    tile_max = np.full(rows, -np.inf)
    tile_norm = np.zeros(rows)
    acc = np.zeros((rows, vd.shape[1]))
    for start, stop in bounds:
        scores = scratch[:rows * (stop - start)].reshape(rows, stop - start)
        np.matmul(qt, kd[start:stop].T, out=scores)
        scores *= scale
        new_max = np.maximum(tile_max, scores.max(axis=1))
        # First block: exp(-inf - finite) is an exact 0, no warning.
        carried = np.exp(tile_max - new_max)
        scores -= new_max[:, None]
        probs = np.exp(scores, out=scores)
        tile_norm = tile_norm * carried + probs.sum(axis=1)
        acc *= carried[:, None]
        acc += probs @ vd[start:stop]
        tile_max = new_max
    np.divide(acc, tile_norm[:, None], out=out)
    row_max[:], normalizer[:] = tile_max, tile_norm


def _backward_tile(qt, gt, out, kd, vd, bounds, scale, row_max, normalizer,
                   dq, dk_part, dv_part) -> None:
    """One head's query tile of the backward pass: re-walk the key blocks,
    add the tile's query gradient into the view ``dq``, and write its key
    and value gradient terms into ``dk_part`` and ``dv_part``, every row
    of them, for the caller to sum. A ``None`` gradient is skipped."""
    rows = qt.shape[0]
    delta = np.sum(gt * out, axis=1)
    probs_buf = np.empty(rows * bounds[0][1])
    dscores_buf = None if dq is None and dk_part is None else np.empty_like(probs_buf)
    for start, stop in bounds:
        shape, size = (rows, stop - start), rows * (stop - start)
        probs = probs_buf[:size].reshape(shape)
        np.matmul(qt, kd[start:stop].T, out=probs)
        probs *= scale
        probs -= row_max[:, None]
        np.exp(probs, out=probs)
        probs /= normalizer[:, None]
        if dv_part is not None:
            np.matmul(probs.T, gt, out=dv_part[start:stop])
        if dscores_buf is None:
            continue
        dscores = dscores_buf[:size].reshape(shape)
        np.matmul(gt, vd[start:stop].T, out=dscores)
        dscores -= delta[:, None]
        dscores *= probs
        if dq is not None:
            step = dscores @ kd[start:stop]
            step *= scale
            dq += step
        if dk_part is not None:
            np.matmul(dscores.T, qt, out=dk_part[start:stop])
            dk_part[start:stop] *= scale


def _in_order(work, items, pooled: bool):
    """Yield ``(tag, work(*args))`` for each ``(tag, args)`` of ``items``,
    in item order.

    Pooled, the items run on the query-tile pool with at most one more in
    flight than it has workers, each in a copy of the caller's context:
    numpy keeps its error state in a context variable that a new thread
    does not inherit. An item's exception reaches the caller, after the
    items still in flight are cancelled or finished. Otherwise the items
    run inline, one after another.
    """
    if not pooled:
        for tag, args in items:
            yield tag, work(*args)
        return
    pool = own_process()
    pending = deque()
    try:
        for tag, args in items:
            pending.append((tag, pool.submit(contextvars.copy_context().run, work, *args)))
            if len(pending) > _POOL_SIZE:
                tag, future = pending.popleft()
                yield tag, future.result()
        while pending:
            tag, future = pending.popleft()
            yield tag, future.result()
    finally:
        for _, future in pending:
            future.cancel()
        wait([future for _, future in pending])


def _attend(
    queries_from: Tensor,
    keys_from: Tensor,
    params: AttentionParams,
    key_chunk: int | None,
) -> Tensor:
    xq = nc.matmul(queries_from, params.query)
    xk = nc.matmul(keys_from, params.key)
    xv = nc.matmul(keys_from, params.value)
    scale = 1.0 / np.sqrt(params.width // params.head_count)
    out = scaled_dot_attention(xq, xk, xv, scale, key_chunk=key_chunk,
                               head_count=params.head_count)
    if params.out_proj is not None:
        out = nc.matmul(out, params.out_proj)
    return out


def self_attention(
    parts: Sequence[Tensor],
    params: AttentionParams,
    key_chunk: int | None = None,
) -> Tensor:
    """Self-attention over the stacked ``parts``, for the query rows of
    ``parts[0]``: softmax((P₀Q)(XK)ᵀ/√d_head)(XV) with X = [P₀; P₁; …].

    Only the rows of ``parts[0]`` are projected to queries, so the kernel
    computes exactly one output row per query row; keys and values come
    from every row of every part.
    """
    for bag in parts:
        if bag.ndim != 2 or bag.shape[1] != params.width:
            raise ShapeError(f"token bag shape {bag.shape} does not match width {params.width}")
    if not parts or parts[0].shape[0] < 1:
        raise DataError("self_attention needs at least one query row")
    keys_from = parts[0] if len(parts) == 1 else nc.concat_rows(parts)
    return _attend(parts[0], keys_from, params, key_chunk)


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


CA_SCORE_TOL = 1e-12
CA_OUTPUT_TOL = 1e-10


@dataclass
class CaEquivalenceReport:
    """Outcome of the co-attention-inside-self-attention check."""

    ok: bool
    score_block_dev: float
    output_dev: float


def verify_ca_embedding(
    f1: Tensor,
    f2: Tensor,
    params: AttentionParams,
    ca_params: AttentionParams | None = None,
) -> CaEquivalenceReport:
    """Check that co-attention is embedded in concatenated self-attention.

    Two facts are verified with shared single-head weights: (a) the
    pre-softmax cross block of the concatenated score matrix equals the
    co-attention scores, and (b) a dense numpy softmax of that score
    matrix with the query modality's own block masked out, restricted to
    the first n1 rows and applied to the stacked values, equals the
    kernel's co-attention. Part (b) checks the streaming kernel against an
    independent reference; (a) must hold to ``CA_SCORE_TOL``, (b) to
    ``CA_OUTPUT_TOL``. ``ca_params`` substitutes different weights on
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
        ok=score_dev <= CA_SCORE_TOL and output_dev <= CA_OUTPUT_TOL,
        score_block_dev=score_dev,
        output_dev=output_dev,
    )
