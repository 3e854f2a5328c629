"""Outside-in span tracer for the mome package.

The tracer wraps public entry points of the package modules from the
benchmark's side: nothing inside ``src/`` knows it is being traced. Each
wrapped call records one span (name, start, end, parent) in memory.
Self time is a span's duration minus the durations of its direct
children; summed over every span it equals the time covered by root
spans, so ``sum(layer self times) + unattributed == pass wall time``
holds by construction.

Layers are the package modules. A span name is ``<layer>.<entry>``.
"""

from __future__ import annotations

import gzip
import inspect
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("data", "numcore", "attention", "experts", "bpe", "survival", "training")

# numcore functions that are infrastructure rather than tensor ops:
# counted (graph_op) or not on the per-sample path.
_NUMCORE_SKIP = {"rng_stream", "no_grad", "graph_op", "accumulate_grad", "adam_step"}

_EXPERT_SPANS = {
    "transfusion": "experts.tf",
    "bottleneck_transfusion": "experts.btf",
    "snnfusion": "experts.snn",
    "dropf2fusion": "experts.df",
}
EXPERT_KEYS = ("tf", "btf", "snn", "df")

# Direct children of a loop span that end the current per-sample step.
_STEP_BREAKS = {
    "training.evaluate", "survival.c_index", "bpe.save_checkpoint", "bpe.model_init",
}


def _mome_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mome" or name.startswith("mome."))]


class Capture:
    """Records the models the program builds and the results of ``evaluate``.

    Used with tracing on and off: it wraps two calls made once per model
    and once per evaluation pass, so it adds nothing per sample.
    """

    def __init__(self):
        self.models = []
        self.evaluations = []  # (indices, (loss, c_index, risks))
        self._undo = []

    def __enter__(self):
        from mome import bpe, training

        capture = self
        original_init = bpe.MoMEModel.__init__

        def init(model, *args, **kwargs):
            original_init(model, *args, **kwargs)
            capture.models.append(model)

        original_evaluate = training.evaluate

        def evaluate(model, cohort, indices, *args, **kwargs):
            result = original_evaluate(model, cohort, indices, *args, **kwargs)
            capture.evaluations.append((list(indices), result))
            return result

        self._undo = [(bpe.MoMEModel, "__init__", original_init)]
        bpe.MoMEModel.__init__ = init
        self._undo += _rebind(original_evaluate, evaluate)
        return self

    def __exit__(self, *exc):
        _restore(self._undo)
        self._undo = []
        return False

    def reset(self):
        self.models.clear()
        self.evaluations.clear()


def _rebind(original, replacement):
    """Point every mome-module name bound to ``original`` at ``replacement``."""
    undo = []
    for module in _mome_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
    return undo


def _restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder with wrappers for the mome entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in call (pre-)order. Flat arrays rather than
        # tuples: hundreds of thousands of GC-tracked tuples would slow the
        # collector, and with it the traced program.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.paths_read: list[str] = []
        self.phase = "eval"
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``before(args, kwargs)`` and
        ``after(result)`` run inside the span and may record counts."""
        nid = self._name_id(name)
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def clear(self):
        for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del column[:]
        self.counts.clear()
        self.paths_read.clear()

    # -- instrumentation ---------------------------------------------------

    def __enter__(self):
        from mome import attention, bpe, data, experts, numcore, survival, training

        undo = []

        def function(module, attr, name, **hooks):
            original = getattr(module, attr)
            undo.extend(_rebind(original, self.wrap(name, original, **hooks)))

        def method(cls, attr, name, **hooks):
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, **hooks))

        # numcore: every public tensor op, the backward walk, Adam.
        for attr, value in list(vars(numcore).items()):
            if (inspect.isfunction(value) and value.__module__ == numcore.__name__
                    and not attr.startswith("_") and attr not in _NUMCORE_SKIP):
                function(numcore, attr, f"numcore.{attr}")
        method(numcore.Tensor, "backward", "numcore.backward")
        method(numcore.Adam, "step", "numcore.adam_step")
        original_graph_op = numcore.graph_op
        counts = self.counts

        def graph_op(*args, **kwargs):
            counts[f"nodes.{self.phase}"] += 1
            return original_graph_op(*args, **kwargs)

        undo.extend(_rebind(original_graph_op, graph_op))

        # attention: self-attention plus the streaming kernel, whose
        # backward closure gets its own span.
        function(attention, "self_attention", "attention.self_attention")

        def kernel_args(args, kwargs):
            q, k, v = args[:3]
            key_chunk = args[5] if len(args) > 5 else kwargs.get("key_chunk")
            n, m = q.shape[0], k.shape[0]
            block = m if key_chunk is None else min(key_chunk, m)
            counts["attention.key_blocks"] += math.ceil(m / block)
            counts["attention.score_flops"] += 2 * n * m * (q.shape[1] + v.shape[1])

        def kernel_result(out):
            if out._backward_fn is not None:
                out._backward_fn = self.wrap("attention.kernel_bwd", out._backward_fn)

        function(attention, "scaled_dot_attention", "attention.kernel_fwd",
                 before=kernel_args, after=kernel_result)

        # experts: the gate, each expert, the routed layer.
        function(experts, "gate", "experts.gate")
        for attr, name in _EXPERT_SPANS.items():
            function(experts, attr, name)
        function(experts, "mome_forward", "experts.mome_forward")

        # bpe: model build, forward pieces, readout attention, checkpoints.
        def forward_phase(args, kwargs):
            training_flag = kwargs.get("training", args[3] if len(args) > 3 else False)
            self.phase = "train" if training_flag else "eval"
            counts[f"samples.{self.phase}"] += 1

        method(bpe.MoMEModel, "__init__", "bpe.model_init")
        method(bpe.MoMEModel, "forward", "bpe.forward", before=forward_phase)
        method(bpe.MoMEModel, "embed_patches", "bpe.embed_patches")
        method(bpe.MoMEModel, "embed_genomics", "bpe.embed_genomics")
        # The model calls self_attention only for the readout; rebinding
        # the name inside bpe (after the attention wrap) nests the
        # attention span under bpe.readout.
        undo.append((bpe, "self_attention", bpe.self_attention))
        bpe.self_attention = self.wrap("bpe.readout", bpe.self_attention)

        def record_path(args, kwargs):
            self.paths_read.append(os.fspath(args[0]))

        function(bpe, "save_checkpoint", "bpe.save_checkpoint")
        function(bpe, "load_checkpoint", "bpe.load_checkpoint", before=record_path)

        # survival: the hazard head, the loss, the risk and the C-index.
        for attr in ("hazards_from_logits", "nll_loss", "risk_score"):
            function(survival, attr, f"survival.{attr}")

        def c_index_pairs(args, kwargs):
            n = len(args[0])
            counts["survival.c_index_pairs"] += n * (n - 1) // 2

        function(survival, "c_index", "survival.c_index", before=c_index_pairs)

        # data: file formats and the manifest.
        for attr in ("read_manifest", "read_feature_file", "read_genomic_file"):
            function(data, attr, f"data.{attr}", before=record_path)
        for attr in ("discretize_times", "resolve_path"):
            function(data, attr, f"data.{attr}")

        # training: the loops.
        for attr in ("load_cohort", "train_fold", "evaluate", "routing_statistics",
                     "model_config_for"):
            function(training, attr, f"training.{attr}")

        self._undo = undo
        return self

    def __exit__(self, *exc):
        _restore(self._undo)
        self._undo = []
        return False

    def columns(self):
        """The recorded spans as numpy arrays: name id, start, end, parent."""
        return (np.asarray(self.span_name), np.asarray(self.span_start),
                np.asarray(self.span_end), np.asarray(self.span_parent))

    def write(self, path, pass_index: int, wall: tuple[int, int]) -> None:
        """Append this pass's spans as CSV rows (gzip)."""
        with gzip.open(path, "at") as fh:
            if pass_index == 0:
                fh.write("pass,index,name,start_ns,end_ns,parent\n")
            fh.write(f"{pass_index},-1,trace.pass,{wall[0]},{wall[1]},-1\n")
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            for i, (nid, start, end, parent) in enumerate(rows):
                fh.write(f"{pass_index},{i},{self.names[nid]},{start},{end},{parent}\n")


def _steps(tracer: Tracer, parent_name: str, first_name: str) -> list[int]:
    """Per-sample step durations (ns) among the children of ``parent_name`` spans.

    A step starts at a ``first_name`` child and ends at the last child
    before the next step start or a break (evaluation, C-index, ...).
    """
    names = tracer.names
    if parent_name not in names:
        return []
    nid, start, end, parent = tracer.columns()
    loops = np.flatnonzero(nid == names.index(parent_name))
    steps, current = [], None
    for i in np.flatnonzero(np.isin(parent, loops)):
        name = names[nid[i]]
        if name == first_name or name in _STEP_BREAKS:
            if current is not None:
                steps.append(current[1] - current[0])
            current = [int(start[i]), int(end[i])] if name == first_name else None
        elif current is not None:
            current[1] = int(end[i])
    if current is not None:
        steps.append(current[1] - current[0])
    return steps


def summarize_pass(tracer: Tracer, wall_ns: int) -> dict:
    """Raw per-pass figures from one traced pass: times in ms, counts."""
    nid, start, end, parent = tracer.columns()
    duration = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(nid))
    n_names = len(tracer.names)
    inclusive = np.bincount(nid, weights=duration, minlength=n_names)
    self_ns = np.bincount(nid, weights=duration - children, minlength=n_names)
    calls = np.bincount(nid, minlength=n_names)
    root_ns = int(duration[~nested].sum())
    train_steps = _steps(tracer, "training.train_fold", "bpe.forward")
    eval_steps = _steps(tracer, "training.evaluate", "bpe.forward")
    return {
        "inclusive_ms": {k: v / 1e6 for k, v in zip(tracer.names, inclusive)},
        "self_ms": {k: v / 1e6 for k, v in zip(tracer.names, self_ns)},
        "calls": {k: int(v) for k, v in zip(tracer.names, calls)},
        "counts": dict(tracer.counts),
        "train_steps_ms": [s / 1e6 for s in train_steps],
        "eval_steps_ms": [s / 1e6 for s in eval_steps],
        "files_read": len(tracer.paths_read),
        "bytes_read": sum(os.path.getsize(p) for p in tracer.paths_read),
        "wall_ms": wall_ns / 1e6,
        "unattributed_ms": (wall_ns - root_ns) / 1e6,
    }


def per_layer_metrics(passes: list[dict], histograms: list, overhead_ratio: float) -> dict:
    """Average the per-pass figures into the per-layer metric set.

    ``histograms`` holds each pass's routing counts, [layer][expert].

    Times are ms per traced pass (one repetition of the workload's unit,
    set-up included); counts are per pass and exact, because every pass
    repeats the same work.
    """
    n = len(passes)

    def mean(get):
        return sum(get(p) for p in passes) / n

    def incl(name):
        return mean(lambda p: p["inclusive_ms"].get(name, 0.0))

    def selfms(name):
        return mean(lambda p: p["self_ms"].get(name, 0.0))

    def calls(name):
        return mean(lambda p: p["calls"].get(name, 0))

    def count(key):
        return mean(lambda p: p["counts"].get(key, 0))

    def layer_self(layer):
        return mean(lambda p: sum(v for k, v in p["self_ms"].items()
                                  if k.split(".", 1)[0] == layer))

    train_samples, eval_samples = count("samples.train"), count("samples.eval")
    if train_samples:
        nodes_per_sample = count("nodes.train") / train_samples
    else:
        nodes_per_sample = count("nodes.eval") / max(eval_samples, 1)
    steps = [s for p in passes for s in (p["train_steps_ms"] or p["eval_steps_ms"])]
    p50, p90 = (np.percentile(steps, [50, 90]) if steps else (0.0, 0.0))
    kernel_fwd = incl("attention.kernel_fwd")
    flops = count("attention.score_flops")

    m = {}
    # numcore and experts overhead
    m["numcore.graph_nodes_per_sample"] = (nodes_per_sample, "count")
    m["numcore.mean_rows_ms"] = (incl("numcore.mean_rows"), "ms")
    m["numcore.mean_rows_calls"] = (calls("numcore.mean_rows"), "count")
    m["numcore.backward_ms"] = (incl("numcore.backward"), "ms")
    m["numcore.adam_step_ms"] = (incl("numcore.adam_step"), "ms")
    m["experts.gate_ms"] = (incl("experts.gate"), "ms")
    m["experts.gate_calls"] = (calls("experts.gate"), "count")
    # experts and the attention kernel
    for key in EXPERT_KEYS:
        m[f"experts.{key}_ms"] = (incl(f"experts.{key}"), "ms")
    m["attention.self_attention_ms"] = (incl("attention.self_attention"), "ms")
    m["attention.self_attention_calls"] = (calls("attention.self_attention"), "count")
    m["attention.kernel_fwd_ms"] = (kernel_fwd, "ms")
    m["attention.kernel_bwd_ms"] = (incl("attention.kernel_bwd"), "ms")
    m["attention.key_blocks"] = (count("attention.key_blocks"), "count")
    m["attention.score_flops"] = (flops, "flop")
    m["attention.kernel_fwd_gflops"] = (flops / kernel_fwd / 1e6 if kernel_fwd else 0.0,
                                        "GFLOP/s")
    m["bpe.readout_ms"] = (incl("bpe.readout"), "ms")
    # routing counts, layer x expert
    for layer, row in enumerate(np.mean(histograms, axis=0)):
        for key, calls_per_pass in zip(EXPERT_KEYS, row):
            m[f"experts.L{layer}.{key}.calls"] = (float(calls_per_pass), "count")
    # embeddings and model glue
    m["bpe.embed_patches_ms"] = (incl("bpe.embed_patches"), "ms")
    m["bpe.embed_genomics_ms"] = (incl("bpe.embed_genomics"), "ms")
    m["bpe.forward_self_ms"] = (selfms("bpe.forward"), "ms")
    m["bpe.model_init_ms"] = (incl("bpe.model_init"), "ms")
    # checkpoints and data
    m["bpe.save_checkpoint_ms"] = (incl("bpe.save_checkpoint"), "ms")
    m["bpe.load_checkpoint_ms"] = (incl("bpe.load_checkpoint"), "ms")
    m["data.read_manifest_ms"] = (incl("data.read_manifest"), "ms")
    m["data.read_feature_file_ms"] = (incl("data.read_feature_file"), "ms")
    m["data.read_genomic_file_ms"] = (incl("data.read_genomic_file"), "ms")
    m["data.files_read"] = (mean(lambda p: p["files_read"]), "count")
    m["data.bytes_read"] = (mean(lambda p: p["bytes_read"]), "B")
    # survival
    m["survival.head_ms"] = (sum(incl(f"survival.{a}") for a in
                                 ("hazards_from_logits", "nll_loss", "risk_score")), "ms")
    m["survival.c_index_ms"] = (incl("survival.c_index"), "ms")
    m["survival.c_index_pairs"] = (count("survival.c_index_pairs"), "count")
    # training loop
    m["training.step_ms_p50"] = (float(p50), "ms")
    m["training.step_ms_p90"] = (float(p90), "ms")
    m["training.step_samples"] = (len(steps) / n, "count")
    m["training.loop_self_ms"] = (sum(selfms(f"training.{a}") for a in
                                      ("train_fold", "evaluate", "routing_statistics")), "ms")
    # layer self times and trace accounting
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (layer_self(layer), "ms")
    m["trace.wall_ms"] = (mean(lambda p: p["wall_ms"]), "ms")
    m["trace.unattributed_ms"] = (mean(lambda p: p["unattributed_ms"]), "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.samples"] = (train_samples + eval_samples, "count")
    m["trace.passes"] = (n, "count")
    return m
