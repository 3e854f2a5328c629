"""Multimodal mixture-of-experts survival prediction at desk scale.

A pathology patch bag and six genomic feature groups are fused by
alternating expert layers (biased progressive encoding) where a gate
routes every sample, at every layer, to exactly one of four fusion
experts. The stack runs on a small self-contained float64 autodiff core,
predicts discrete-time hazards, and is evaluated by the concordance
index over censored survival data.

Subpackages:

* :mod:`mome.numcore` - tensors, reverse-mode autodiff, Adam,
* :mod:`mome.attention` - self/co-attention with streaming softmax,
* :mod:`mome.experts` - the gate and the four fusion experts,
* :mod:`mome.bpe` - the full model and its checkpoint format,
* :mod:`mome.survival` - hazards, censored likelihood, C-index,
* :mod:`mome.data` - file formats, genomic groups, folds, synthetic cohorts,
* :mod:`mome.training` - cross-validated training harness, routing records,
* :mod:`mome.gradcheck` - finite-difference verification suite,
* :mod:`mome.cli` - the ``mome`` command-line tool.
"""

from .attention import AttentionParams, co_attention, self_attention, verify_ca_embedding
from .bpe import ModelConfig, MoMEModel, load_checkpoint, save_checkpoint
from .data import GenomicGroups
from .experts import ExpertId, MoMELayer, mome_forward
from .numcore import Adam, Tensor, no_grad, rng_stream
from .survival import HazardCurve, SurvivalTarget, c_index, hazards_from_logits, nll_loss, risk_score
from .training import RoutingRecord, RunConfig, train_cohort

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AttentionParams",
    "ExpertId",
    "GenomicGroups",
    "HazardCurve",
    "ModelConfig",
    "MoMELayer",
    "MoMEModel",
    "RoutingRecord",
    "RunConfig",
    "SurvivalTarget",
    "Tensor",
    "c_index",
    "co_attention",
    "hazards_from_logits",
    "load_checkpoint",
    "mome_forward",
    "nll_loss",
    "no_grad",
    "rng_stream",
    "risk_score",
    "save_checkpoint",
    "self_attention",
    "train_cohort",
    "verify_ca_embedding",
]
