"""Property tests of the streaming attention kernel over drawn bag shapes.

Bags run from 1 to 700 tokens, so they cross the 256- and 512-row query
tile boundaries; ``key_chunk`` is unset or any block size up to the bag;
the query bag is a prefix of any length up to the bag. Kept apart from
test_attention.py because they need hypothesis (the ``dev`` extra).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mome.numcore as nc
from mome.attention import QUERY_TILE, AttentionParams, self_attention
from test_attention import dense_reference, kernel_query_rows, rows_of

WIDTH = 8
TILE_EDGES = (QUERY_TILE - 1, QUERY_TILE, QUERY_TILE + 1,
              2 * QUERY_TILE - 1, 2 * QUERY_TILE, 2 * QUERY_TILE + 1)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def attention_cases(draw):
    n = draw(st.sampled_from(TILE_EDGES) | st.integers(1, 700))
    key_chunk = draw(st.none() | st.integers(1, n))
    heads = draw(st.sampled_from([1, 2, 4]))
    rows = draw(st.sampled_from([k for k in TILE_EDGES if k <= n] or [n])
                | st.integers(1, n))
    seed = draw(st.integers(0, 2**16))
    return n, key_chunk, heads, rows, seed


def run(case, key_chunk, prune=True):
    """Forward and backward of a weighted sum of the first ``rows`` output
    rows, computed with those rows as the query bag (``prune``) or as the
    full output sliced: the kept output, the gradient of the tokens and of
    every projection by name, and the inputs."""
    n, _, heads, rows, seed = case
    rng = nc.rng_stream(seed)
    params = AttentionParams.create(WIDTH, nc.Init(rng), head_count=heads)
    tokens = nc.Tensor(rng.standard_normal((n, WIDTH)), requires_grad=True)
    weights = nc.Tensor(rng.standard_normal((rows, WIDTH)))
    if prune:
        out = self_attention([rows_of(tokens, 0, rows), rows_of(tokens, rows, n)], params,
                             key_chunk)
    else:
        out = rows_of(self_attention([tokens], params, key_chunk), 0, rows)
    nc.reduce_sum(nc.mul(out, weights)).backward()
    named = [("tokens", tokens)] + params.parameters("attention")
    return out.data, {name: t.grad for name, t in named}, tokens.data, params


class TestStreamingKernelProperties:
    @PROPERTY_SETTINGS
    @given(attention_cases())
    def test_streamed_matches_dense_and_unchunked_gradients(self, case):
        _, key_chunk, _, rows, _ = case
        out, grads, tokens, params = run(case, key_chunk)
        assert np.max(np.abs(out - dense_reference(tokens, params)[:rows])) <= 1e-10
        _, unchunked, _, _ = run(case, None)
        for name, grad in grads.items():
            assert np.max(np.abs(grad - unchunked[name])) <= 1e-10, name

    @PROPERTY_SETTINGS
    @given(attention_cases())
    def test_pruned_rows_equal_full_then_slice(self, case):
        # Roundoff, not bit identity: the pruned call projects and attends
        # only the kept query rows, a smaller product that BLAS may round
        # differently.
        key_chunk, rows = case[1], case[3]
        with kernel_query_rows() as queries:
            pruned, pruned_grads, _, _ = run(case, key_chunk)
        assert queries == [rows]
        sliced, sliced_grads, _, _ = run(case, key_chunk, prune=False)
        assert np.max(np.abs(pruned - sliced)) <= 1e-12
        for name, grad in pruned_grads.items():
            assert np.max(np.abs(grad - sliced_grads[name])) <= 1e-12, name

    @PROPERTY_SETTINGS
    @given(attention_cases())
    def test_raises_no_floating_point_exception(self, case):
        # The first key block of every tile rescales a running maximum of
        # -inf: exp(-inf - m) = 0 must trip neither invalid nor divide.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            run(case, case[1])
