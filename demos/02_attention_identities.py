# Two executable facts about the attention kernels.
#
# First: co-attention (queries from one bag, keys/values from another)
# is literally embedded inside self-attention over the concatenated
# bags. The cross block of the concatenated score matrix IS the
# co-attention score matrix, and a dense softmax of it with the query
# bag's own block masked out reproduces the kernel's co-attention. This
# is why the fusion experts are built on self-attention: it contains
# co-attention as a special case.
#
# Second: the streaming key-chunked evaluation is exact, not an
# approximation. Any block size reproduces the dense result to
# accumulation roundoff, so bounding memory costs nothing in accuracy.

import numpy as np

import mome.numcore as nc
from mome.attention import AttentionParams, self_attention, verify_ca_embedding

rng = nc.rng_stream(7)
params = AttentionParams.create(16, nc.rng_stream(8))

pathology = nc.Tensor(rng.standard_normal((10, 16)))
genomics = nc.Tensor(rng.standard_normal((6, 16)))

report = verify_ca_embedding(pathology, genomics, params)
print("co-attention embedded in self-attention:", report.ok)
print(f"  pre-softmax cross-block deviation: {report.score_block_dev:.2e}")
print(f"  dense masked softmax vs kernel co-attention: {report.output_dev:.2e}")

# Negative control: different key projection on the co-attention side
# must break the identity.
other = AttentionParams.create(16, nc.rng_stream(99))
broken = verify_ca_embedding(pathology, genomics, params, ca_params=other)
print("identity with mismatched keys (expected False):", broken.ok)

# Streaming vs dense on a large bag.
tokens = nc.Tensor(rng.standard_normal((3000, 16)))
with nc.no_grad():
    dense = self_attention(tokens, params).data
    for chunk in (1, 64, 4096):
        streamed = self_attention(tokens, params, key_chunk=chunk).data
        print(f"key_chunk={chunk:5d}: max |dense - streamed| = "
              f"{np.max(np.abs(dense - streamed)):.2e}")
