import contextlib

import numpy as np
import pytest

import mome.attention as attention
import mome.numcore as nc
from mome.attention import (
    QUERY_TILE,
    AttentionParams,
    co_attention,
    cross_block_mask,
    scaled_dot_attention,
    self_attention,
    verify_ca_embedding,
)
from mome.errors import ConfigError, DataError, ShapeError


def make_params(d, seed, head_count=1):
    return AttentionParams.create(d, nc.Init(nc.rng_stream(seed)), head_count=head_count)


@contextlib.contextmanager
def kernel_query_rows():
    """Yield a list that collects the query row count of every kernel call."""
    kernel, rows = attention.scaled_dot_attention, []

    def counting_kernel(q, *args, **kwargs):
        rows.append(q.shape[0])
        return kernel(q, *args, **kwargs)

    attention.scaled_dot_attention = counting_kernel
    try:
        yield rows
    finally:
        attention.scaled_dot_attention = kernel


def rows_of(t, start, stop):
    """Rows ``start:stop`` of ``t`` as a graph node: the slice the reference
    sides of the query-bag tests take."""

    def backward(g):
        grad = np.zeros_like(t.data)
        grad[start:stop] = g
        nc.accumulate_grad(t, grad)

    return nc.graph_op(t.data[start:stop].copy(), (t,), backward, "rows_of")


def dense_reference(tokens, params):
    """Independent dense oracle: no streaming, plain numpy."""
    d = params.width
    dh = d // params.head_count
    xq = tokens @ params.query.data
    xk = tokens @ params.key.data
    xv = tokens @ params.value.data
    outs = []
    for h in range(params.head_count):
        sl = slice(h * dh, (h + 1) * dh)
        scores = xq[:, sl] @ xk[:, sl].T / np.sqrt(dh)
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        outs.append(e / e.sum(axis=1, keepdims=True) @ xv[:, sl])
    out = np.concatenate(outs, axis=1)
    if params.out_proj is not None:
        out = out @ params.out_proj.data
    return out


class TestSelfAttention:
    def test_single_token_passthrough(self):
        params = make_params(6, 1)
        token = nc.Tensor(nc.rng_stream(2).standard_normal((1, 6)))
        out = self_attention([token], params)
        assert np.allclose(out.data, token.data @ params.value.data, atol=1e-14)

    def test_zero_query_gives_uniform_attention(self):
        rng = nc.rng_stream(3)
        params = make_params(5, 4)
        params.query.data[:] = 0.0
        tokens = nc.Tensor(rng.standard_normal((7, 5)))
        out = self_attention([tokens], params)
        expected = np.tile((tokens.data @ params.value.data).mean(axis=0), (7, 1))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = nc.rng_stream(5)
        params = make_params(8, 6)
        tokens = nc.Tensor(rng.standard_normal((9, 8)))
        out = self_attention([tokens], params)
        assert np.allclose(out.data, dense_reference(tokens.data, params), atol=1e-12)

    def test_multihead_matches_dense_oracle(self):
        rng = nc.rng_stream(7)
        params = make_params(8, 8, head_count=2)
        tokens = nc.Tensor(rng.standard_normal((5, 8)))
        out = self_attention([tokens], params)
        assert np.allclose(out.data, dense_reference(tokens.data, params), atol=1e-12)

    @pytest.mark.parametrize("key_chunk", [3], ids=["chunked"])
    def test_multihead_streamed_or_masked_matches_dense_oracle(self, key_chunk):
        rng = nc.rng_stream(7)
        params = make_params(8, 8, head_count=2)
        tokens = nc.Tensor(rng.standard_normal((5, 8)))
        out = self_attention([tokens], params, key_chunk=key_chunk)
        expected = dense_reference(tokens.data, params)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_multihead_is_one_kernel_node(self):
        rng = nc.rng_stream(8)
        params = make_params(8, 9, head_count=2)
        tokens = nc.Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        out = self_attention([tokens], params)
        ops, stack = [], [out]
        while stack:
            node = stack.pop()
            if node._op != "leaf":
                ops.append(node._op)
            stack.extend(node._parents)
        assert sorted(ops) == ["matmul"] * 4 + ["scaled_dot_attention"]

    def test_head_count_must_split_widths(self):
        x = nc.Tensor(nc.rng_stream(10).standard_normal((4, 6)))
        with pytest.raises(ConfigError, match="heads"):
            scaled_dot_attention(x, x, x, 1.0, head_count=4)

    def test_key_permutation_invariance(self):
        rng = nc.rng_stream(11)
        params = make_params(6, 12)
        tokens = rng.standard_normal((8, 6))
        perm = nc.rng_stream(13).permutation(8)
        out = self_attention([nc.Tensor(tokens)], params).data
        xq = nc.matmul(nc.Tensor(tokens), params.query)
        kv = nc.Tensor(tokens[perm])
        permuted = scaled_dot_attention(
            xq, nc.matmul(kv, params.key), nc.matmul(kv, params.value), 1.0 / np.sqrt(6)
        ).data
        assert np.max(np.abs(out - permuted)) <= 1e-12

    def test_bad_chunk_rejected(self):
        params = make_params(4, 18)
        tokens = nc.Tensor(nc.rng_stream(19).standard_normal((3, 4)))
        with pytest.raises(ConfigError):
            self_attention([tokens], params, key_chunk=0)


class TestChunkedAttention:
    def test_chunked_equals_unchunked_37x16(self):
        rng = nc.rng_stream(21)
        params = make_params(16, 22)
        tokens = nc.Tensor(rng.standard_normal((37, 16)))
        full = self_attention([tokens], params).data
        chunked = self_attention([tokens], params, key_chunk=4).data
        assert np.max(np.abs(full - chunked)) <= 1e-10

    @pytest.mark.parametrize("chunk", [1, 2, 36, 37])
    def test_all_boundary_chunk_sizes(self, chunk):
        rng = nc.rng_stream(23)
        params = make_params(8, 24)
        tokens = nc.Tensor(rng.standard_normal((37, 8)))
        full = self_attention([tokens], params).data
        chunked = self_attention([tokens], params, key_chunk=chunk).data
        assert np.max(np.abs(full - chunked)) <= 1e-10

    def test_chunk_larger_than_bag_is_single_block(self):
        rng = nc.rng_stream(25)
        params = make_params(8, 26)
        tokens = nc.Tensor(rng.standard_normal((5, 8)))
        full = self_attention([tokens], params).data
        assert np.array_equal(full, self_attention([tokens], params, key_chunk=4096).data)

    def test_chunked_gradients_match_unchunked(self):
        rng = nc.rng_stream(27)
        tokens_data = rng.standard_normal((11, 6))

        grads = []
        for chunk in (None, 3):
            params = make_params(6, 28)
            tokens = nc.Tensor(tokens_data, requires_grad=True)
            nc.reduce_sum(self_attention([tokens], params, key_chunk=chunk)).backward()
            grads.append((tokens.grad, params.query.grad, params.key.grad, params.value.grad))
        for full, chunked in zip(*grads):
            assert np.max(np.abs(full - chunked)) <= 1e-10


class TestPrunedQueryRows:
    """A query bag of k rows hands the kernel exactly k query rows; the
    output and every gradient equal "attend every row, then slice" to
    roundoff (a k-row product may round differently from the same rows
    inside a larger one)."""

    @staticmethod
    def assert_pruned_equals_sliced(n, heads, key_chunk, kept):
        rng = nc.rng_stream(n)
        params = make_params(8, n + 1, head_count=heads)
        tokens = nc.Tensor(rng.standard_normal((n, 8)), requires_grad=True)
        named = [("tokens", tokens)] + params.parameters("attention")

        def outputs(build, weights):
            for _, t in named:
                t.grad = None
            out = build()
            nc.reduce_sum(nc.mul(out, nc.Tensor(weights))).backward()
            return [("output", out.data)] + [(name, t.grad) for name, t in named]

        for k in kept:
            weights = rng.standard_normal((k, 8))
            with kernel_query_rows() as queries:
                pruned = outputs(lambda: self_attention(
                    [rows_of(tokens, 0, k), rows_of(tokens, k, n)], params, key_chunk), weights)
            assert queries == [k]
            sliced = outputs(
                lambda: rows_of(self_attention([tokens], params, key_chunk), 0, k), weights)
            for (name, a), (_, b) in zip(pruned, sliced):
                assert np.max(np.abs(a - b)) <= 1e-12, f"rows={k}: {name}"

    @pytest.mark.parametrize("key_chunk", [None, 512], ids=["dense", "chunk512"])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 512, 513, 2589])
    def test_pruned_equals_full_then_slice(self, n, heads, key_chunk):
        kept = sorted({k for k in (1, 6, QUERY_TILE, QUERY_TILE + 1, n) if k <= n})
        self.assert_pruned_equals_sliced(n, heads, key_chunk, kept)

    def test_empty_query_bag_rejected(self):
        params = make_params(4, 50)
        tokens = nc.Tensor(nc.rng_stream(51).standard_normal((3, 4)))
        with pytest.raises(DataError, match="query row"):
            self_attention([nc.Tensor(np.zeros((0, 4))), tokens], params)
        with pytest.raises(DataError, match="query row"):
            self_attention([], params)

    def test_part_of_another_width_rejected(self):
        params = make_params(4, 50)
        tokens = nc.Tensor(nc.rng_stream(51).standard_normal((3, 4)))
        with pytest.raises(ShapeError, match="width"):
            self_attention([tokens, nc.Tensor(np.ones((2, 5)))], params)


class TestCoAttention:
    def test_single_reference_token(self):
        rng = nc.rng_stream(31)
        params = make_params(6, 32)
        f1 = nc.Tensor(rng.standard_normal((4, 6)))
        f2 = nc.Tensor(rng.standard_normal((1, 6)))
        out = co_attention(f1, f2, params)
        expected = np.tile(f2.data @ params.value.data, (4, 1))
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_zero_query_averages_reference_values(self):
        rng = nc.rng_stream(33)
        params = make_params(6, 34)
        params.query.data[:] = 0.0
        f1 = nc.Tensor(rng.standard_normal((3, 6)))
        f2 = nc.Tensor(rng.standard_normal((5, 6)))
        out = co_attention(f1, f2, params)
        expected = np.tile((f2.data @ params.value.data).mean(axis=0), (3, 1))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_shape_contract(self):
        rng = nc.rng_stream(35)
        params = make_params(8, 36)
        out = co_attention(
            nc.Tensor(rng.standard_normal((3, 8))), nc.Tensor(rng.standard_normal((5, 8))), params
        )
        assert out.shape == (3, 8)


class TestCaEmbedding:
    def test_random_bags_embed(self):
        rng = nc.rng_stream(41)
        params = make_params(8, 42)
        report = verify_ca_embedding(
            nc.Tensor(rng.standard_normal((4, 8))), nc.Tensor(rng.standard_normal((3, 8))), params
        )
        assert report.ok
        assert report.score_block_dev <= 1e-12
        assert report.output_dev <= 1e-10

    def test_single_token_each(self):
        rng = nc.rng_stream(43)
        params = make_params(5, 44)
        report = verify_ca_embedding(
            nc.Tensor(rng.standard_normal((1, 5))), nc.Tensor(rng.standard_normal((1, 5))), params
        )
        assert report.ok

    def test_different_key_matrix_detected(self):
        rng = nc.rng_stream(45)
        params = make_params(6, 46)
        other = make_params(6, 47)
        report = verify_ca_embedding(
            nc.Tensor(rng.standard_normal((4, 6))),
            nc.Tensor(rng.standard_normal((3, 6))),
            params,
            ca_params=other,
        )
        assert not report.ok

    def test_property_over_100_instances(self):
        for seed in range(100):
            rng = nc.rng_stream(1000 + seed)
            d = int(rng.integers(2, 10))
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            params = make_params(d, 2000 + seed)
            report = verify_ca_embedding(
                nc.Tensor(rng.standard_normal((n1, d))),
                nc.Tensor(rng.standard_normal((n2, d))),
                params,
            )
            assert report.ok, f"seed {seed}: {report}"

    def test_mask_helper_blocks_first_modality(self):
        mask = cross_block_mask(2, 3)
        assert np.all(np.isneginf(mask[:2, :2]))
        assert np.all(mask[:2, 2:] == 0.0)
        assert np.all(mask[2:, :] == 0.0)
