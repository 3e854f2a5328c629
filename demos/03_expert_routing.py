# The four fusion experts and the gate that picks between them.
#
# Every layer routes each sample to exactly one expert. The experts use
# the reference modality to different degrees: full attention fusion,
# fusion through a few bottleneck tokens, a pooled self-normalizing
# correction, or nothing at all (a skip). The chosen expert's output is
# scaled by the gate's softmax probability, which is what lets the
# gate itself learn from the task loss despite the hard routing.

import numpy as np

import mome.numcore as nc
from mome.attention import self_attention
from mome.experts import (
    ExpertId,
    MoMELayer,
    bottleneck_transfusion,
    dropf2fusion,
    gate,
    mome_forward,
    snnfusion,
    transfusion,
)

rng = nc.rng_stream(3)
layer = MoMELayer.create(8, nc.Init(nc.rng_stream(4)), n_bottleneck=2, head_count=1,
                         enable_mask=(True, True, True, True), dropout_rate=0.25)

f1 = nc.Tensor(rng.standard_normal((5, 8)))  # encoded modality
f2 = nc.Tensor(rng.standard_normal((3, 8)))  # reference modality

# Each expert maps (5x8, 3x8) -> 5x8.
print("transfusion:", transfusion(f1, f2, layer.tf).shape)
print("bottleneck: ", bottleneck_transfusion(
    f1, f2, layer.bottleneck, layer.btf_inner, layer.btf_outer).shape)
print("snnfusion:  ", snnfusion(f1, f2, layer.snn, rng=None).shape)
print("dropf2:     ", dropf2fusion(f1, f2).shape, "(returns f1 unchanged)")

# Transfusion is self-attention over the stacked bags with f1 as the
# query bag: the kernel computes only f1's five rows.
print("transfusion is self_attention([f1, f2]):", np.array_equal(
    transfusion(f1, f2, layer.tf).data, self_attention([f1, f2], layer.tf).data))

# The gate scores all four slots from both bags.
decision = gate(f1, f2, layer.gate, layer.enable_mask)
print("\ngate logits:", np.round(decision.logits.data[0], 4))
print("chosen:", ExpertId(decision.expert).name,
      "with probability", round(decision.probability.item(), 4))

# Hard routing: one forward executes exactly one expert, and hands the
# gate's decision back through ``routes``.
routes = []
mome_forward(f1, f2, layer, routes=routes)
print("\ncall counts after one forward:", layer.call_counts)
print("routed to:", routes[0].expert.name, "logits", np.round(routes[0].logits.data[0], 4))

# Disabling experts renormalizes the probability over the survivors.
forced = gate(f1, f2, layer.gate, enable_mask=(False, False, True, False))
print("\nonly the SNN expert enabled ->", ExpertId(forced.expert).name,
      "probability", forced.probability.item())
