"""The attention kernel on the query-tile pool.

A kernel call with two or more query tiles runs its (head, tile) work
items on a pool of worker threads. These tests hold it to the serial
loop bit for bit at every pool size, check which thread runs what, and
check that numpy's error state, a worker's exception and a fork all
reach the caller the way a serial call would.
"""

import multiprocessing
import threading
import warnings

import numpy as np
import pytest

import mome.attention as attention
import mome.numcore as nc
from mome.attention import QUERY_TILE, scaled_dot_attention
from mome.errors import NumericError
from mome.training import _quiet_floating_point

SCALE = 0.3

# (query rows, key rows, width, heads, key_chunk): several tiles with a
# ragged last tile, several blocks with a ragged last block, dense keys,
# and a one-row last block.
SHAPES = [
    (2 * QUERY_TILE + 88, 700, 8, 2, 300),
    (2 * QUERY_TILE + 1, 40, 6, 3, None),
    (QUERY_TILE + 1, 2 * QUERY_TILE + 1, 4, 1, QUERY_TILE),
    (3 * QUERY_TILE, 5, 4, 4, 2),
]
MIXES = [(True, True, True), (True, False, False), (False, True, False),
         (False, False, True), (True, True, False), (False, True, True)]


def serial_reference(q, k, v, key_chunk, heads, g):
    """The kernel's arithmetic as one serial loop over heads, query tiles
    and key blocks, in plain numpy: the output and the q, k and v
    gradients for the output gradient ``g``."""
    n, d = q.shape
    m, d_v = v.shape
    block = m if key_chunk is None else min(key_chunk, m)
    bounds = [(s, min(s + block, m)) for s in range(0, m, block)]
    tiles = [(s, min(s + QUERY_TILE, n)) for s in range(0, n, QUERY_TILE)]
    dh, dvh = d // heads, d_v // heads
    out = np.empty((n, d_v))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for h in range(heads):
        qk, vc = slice(h * dh, (h + 1) * dh), slice(h * dvh, (h + 1) * dvh)
        qd, kd = np.ascontiguousarray(q[:, qk]), np.ascontiguousarray(k[:, qk])
        vd, gh = np.ascontiguousarray(v[:, vc]), np.ascontiguousarray(g[:, vc])
        for t0, t1 in tiles:
            qt, gt = qd[t0:t1], gh[t0:t1]
            row_max, norm = np.full(t1 - t0, -np.inf), np.zeros(t1 - t0)
            acc = np.zeros((t1 - t0, dvh))
            for start, stop in bounds:
                scores = qt @ kd[start:stop].T * SCALE
                new_max = np.maximum(row_max, scores.max(axis=1))
                carried = np.exp(row_max - new_max)
                probs = np.exp(scores - new_max[:, None])
                norm = norm * carried + probs.sum(axis=1)
                acc = acc * carried[:, None] + probs @ vd[start:stop]
                row_max = new_max
            out[t0:t1, vc] = acc / norm[:, None]
            delta = np.sum(gt * out[t0:t1, vc], axis=1)
            for start, stop in bounds:
                scores = qt @ kd[start:stop].T * SCALE
                probs = np.exp(scores - row_max[:, None]) / norm[:, None]
                dv[start:stop, vc] += probs.T @ gt
                dscores = probs * (gt @ vd[start:stop].T - delta[:, None])
                dq[t0:t1, qk] += dscores @ kd[start:stop] * SCALE
                dk[start:stop, qk] += dscores.T @ qt * SCALE
    return out, dq, dk, dv


def kernel_run(arrays, key_chunk, heads, g, mix):
    """The kernel's output and the gradients of the operands ``mix``
    marks, for the output gradient ``g`` (None for the others)."""
    q, k, v = (nc.Tensor(a, requires_grad=r) for a, r in zip(arrays, mix))
    out = scaled_dot_attention(q, k, v, SCALE, key_chunk=key_chunk, head_count=heads)
    nc.reduce_sum(nc.mul(out, nc.Tensor(g))).backward()
    return out.data, q.grad, k.grad, v.grad


def draw(shape, seed):
    n, m, d, _, _ = shape
    rng = nc.rng_stream(seed)
    return (rng.standard_normal((n, d)), rng.standard_normal((m, d)),
            rng.standard_normal((m, d)), rng.standard_normal((n, d)))


@pytest.fixture
def pool_size(monkeypatch):
    """Call with a size to give the kernel a fresh pool of that many
    workers for the test; the pool is shut down afterwards."""
    made = []

    def resize(size):
        monkeypatch.setattr(attention, "_POOL_SIZE", size)
        monkeypatch.setattr(attention, "_pool", None)
        made.append(attention.own_threads())

    yield resize
    for pool in made:
        pool.shutdown()


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_pooled_kernel_equals_the_serial_loop_bit_for_bit(pool_size, size, shape):
    pool_size(size)
    q, k, v, g = draw(shape, seed=shape[0])
    _, _, _, heads, key_chunk = shape
    expected = serial_reference(q, k, v, key_chunk, heads, g)
    got = kernel_run((q, k, v), key_chunk, heads, g, (True, True, True))
    for name, a, b in zip(("out", "dq", "dk", "dv"), got, expected):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("mix", MIXES, ids=lambda m: "".join("qkv"[i] for i in range(3) if m[i]))
def test_each_requires_grad_mix_gets_exactly_its_gradients(pool_size, mix):
    pool_size(2)
    shape = SHAPES[0]
    q, k, v, g = draw(shape, seed=7)
    expected = serial_reference(q, k, v, shape[4], shape[3], g)
    out, *grads = kernel_run((q, k, v), shape[4], shape[3], g, mix)
    assert np.array_equal(out, expected[0])
    for wanted, grad, reference in zip(mix, grads, expected[1:]):
        if wanted:
            assert np.array_equal(grad, reference)
        else:
            assert grad is None


def record_threads(monkeypatch):
    """Names of the threads that run each forward and backward item."""
    names = []
    for item in ("_forward_tile", "_backward_tile"):
        work = getattr(attention, item)

        def recorded(*args, work=work):
            names.append(threading.current_thread().name)
            return work(*args)

        monkeypatch.setattr(attention, item, recorded)
    return names


@pytest.mark.parametrize("rows, heads, pooled", [
    (QUERY_TILE, 4, False), (1, 1, False), (QUERY_TILE + 1, 1, True), (3 * QUERY_TILE, 2, True),
])
def test_only_calls_with_two_tiles_use_the_pool(pool_size, monkeypatch, rows, heads, pooled):
    pool_size(2)
    names = record_threads(monkeypatch)
    tiles = -(-rows // QUERY_TILE)
    q, k, v, g = draw((rows, 9, 8, heads, None), seed=rows)
    kernel_run((q, k, v), None, heads, g, (True, True, True))
    assert len(names) == 2 * heads * tiles
    caller = threading.current_thread().name
    if pooled:
        assert all(name.startswith("mome-attention") for name in names)
    else:
        assert set(names) == {caller}


def test_worker_overflow_is_quiet_under_the_training_error_state(pool_size):
    """numpy's error state reaches the workers: scores that overflow give
    the typed finite-check error on the caller, not a RuntimeWarning
    raised as an error in a worker."""
    pool_size(2)
    q, k, v, _ = draw(SHAPES[0], seed=11)
    q[:, :], k[:, :] = 1e200, 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _quiet_floating_point(), pytest.raises(NumericError, match="scaled_dot_attention"):
            scaled_dot_attention(nc.Tensor(q), nc.Tensor(k), nc.Tensor(v), SCALE,
                                 key_chunk=300, head_count=2)


class WorkerFailure(Exception):
    pass


@pytest.mark.parametrize("item", ["_forward_tile", "_backward_tile"])
def test_worker_exception_reaches_the_caller_and_the_next_call_works(
        pool_size, monkeypatch, item):
    pool_size(2)
    shape = SHAPES[0]
    q, k, v, g = draw(shape, seed=13)
    work, calls = getattr(attention, item), []

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise WorkerFailure("item 2")
        return work(*args)

    monkeypatch.setattr(attention, item, failing)
    with pytest.raises(WorkerFailure, match="item 2"):
        kernel_run((q, k, v), shape[4], shape[3], g, (True, True, True))
    monkeypatch.setattr(attention, item, work)
    got = kernel_run((q, k, v), shape[4], shape[3], g, (True, True, True))
    expected = serial_reference(q, k, v, shape[4], shape[3], g)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def _pooled_call_in_child():
    q, k, v, g = draw(SHAPES[0], seed=17)
    kernel_run((q, k, v), SHAPES[0][4], SHAPES[0][3], g, (True, True, True))


def test_forked_child_builds_its_own_pool(pool_size):
    pool_size(2)
    _pooled_call_in_child()  # the parent's workers exist and are idle
    child = multiprocessing.get_context("fork").Process(target=_pooled_call_in_child)
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive(), "the child hung on the parent's pool"
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
