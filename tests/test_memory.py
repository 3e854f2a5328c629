"""Memory per training step.

Backward releases the graph it walks, so a training loop holds one
sample's graph at a time, and the C allocator keeps the pages a step
frees for the next step instead of handing them back to the system.
"""

import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

import mome.numcore as nc
from mome.bpe import ModelConfig, MoMEModel
from mome.data import GenomicGroups, ManifestRow
from mome.survival import SurvivalTarget, hazards_from_logits, nll_loss
from mome.training import CohortData, RunConfig, model_config_for, train_fold

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TF_ONLY = (True, False, False, False)


def interior_arrays(root, held):
    """Weak references to the ``data`` of every node of ``root``'s graph
    that has a backward closure, except the tensors in ``held``."""
    refs, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward_fn is not None and all(node is not t for t in held):
            refs.append(weakref.ref(node.data))
        stack.extend(node._parents)
    return refs


def test_backward_frees_every_interior_array_the_caller_does_not_hold():
    """After ``loss.backward()`` on a default-width model over a 1,500-row
    bag, while the caller still holds the loss and the hazard curve (and
    so the logits), every other array of the graph is gone."""
    config = ModelConfig()
    model = MoMEModel(config)
    rng = nc.rng_stream(31)
    bag = rng.standard_normal((1500, config.d_in))
    groups = GenomicGroups(tuple(rng.standard_normal(s) for s in config.group_sizes))
    logits = model.forward(bag, groups, training=True, rng=nc.rng_stream(32), key_chunk=512)
    curve = hazards_from_logits(logits)
    loss = nll_loss(curve, SurvivalTarget(bin=1, censored=False, raw_time=2.0))
    refs = interior_arrays(loss, held=(curve.logits, loss))
    assert len(refs) > 20
    loss.backward()
    assert sum(ref() is not None for ref in refs) == 0
    assert [t._parents for t in (curve.logits, loss)] == [(), ()]
    assert model.patch_w.grad is not None and loss.grad.item() == 1.0


def ragged_cohort(sizes, d_in=64):
    """An in-memory cohort of uncensored bags of ``sizes`` rows, folds
    alternating 0, 1, ... and one time bin per sample."""
    rng = nc.rng_stream(5)
    n = len(sizes)
    return CohortData(
        rows=[ManifestRow(f"s{i}", "", "", float(i + 1), False, fold=i % 2) for i in range(n)],
        bags=[rng.standard_normal((size, d_in)).astype(np.float32) for size in sizes],
        genomics=[GenomicGroups(tuple(rng.standard_normal(16) for _ in range(6)))
                  for _ in sizes],
        targets=[SurvivalTarget(bin=i, censored=False, raw_time=float(i + 1))
                 for i in range(n)],
        bin_edges=np.arange(1.5, n),
    )


def test_train_fold_holds_one_sample_graph_at_a_time(tmp_path):
    """The traced peak of a one-epoch ``train_fold`` stays within 10% of
    a steady training step on its largest bag: a model, its optimizer
    state and one step's graph. Holding the previous sample's graph
    through the next forward would add most of a second one."""
    sizes = [1400, 1600, 1500, 1500]
    cohort = ragged_cohort(sizes)
    run = RunConfig(epochs=1, time_bins=len(sizes), enable_mask=TF_ONLY, key_chunk=512,
                    seed=3)
    largest = int(np.argmax(sizes))

    def step(model, optimizer):
        logits = model.forward(cohort.bags[largest], cohort.genomics[largest],
                               training=True, rng=nc.rng_stream(1), key_chunk=run.key_chunk)
        nll_loss(hazards_from_logits(logits), cohort.targets[largest]).backward()
        optimizer.step()
        optimizer.zero_grad()

    tracemalloc.start()
    try:
        model = MoMEModel(model_config_for(run, cohort, 0))
        optimizer = nc.Adam([t for _, t in model.parameters()], lr=run.lr,
                            weight_decay=run.weight_decay)
        step(model, optimizer)  # the first step allocates the optimizer's moments
        step(model, optimizer)
        step_peak = tracemalloc.get_traced_memory()[1]
        del model, optimizer
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        train_fold(run, cohort, 0, tmp_path)
        fold_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fold_peak <= 1.1 * step_peak, (fold_peak / 2**20, step_peak / 2**20)


FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    import mome.numcore as nc
    from mome.attention import own_process
    from mome.bpe import ModelConfig, MoMEModel
    from mome.data import GenomicGroups
    from mome.survival import SurvivalTarget, hazards_from_logits, nll_loss

    own_process()
    config = ModelConfig(enable_mask=(True, False, False, False))
    model = MoMEModel(config)
    optimizer = nc.Adam([t for _, t in model.parameters()], lr=1e-4, weight_decay=0.0)
    rng = nc.rng_stream(9)
    bag = rng.standard_normal((2000, config.d_in)).astype(np.float32)
    groups = GenomicGroups(tuple(rng.standard_normal(s) for s in config.group_sizes))
    target = SurvivalTarget(bin=1, censored=False, raw_time=2.0)

    def step():
        logits = model.forward(bag, groups, training=True, rng=nc.rng_stream(1),
                               key_chunk=512)
        nll_loss(hazards_from_logits(logits), target).backward()
        optimizer.step()
        optimizer.zero_grad()

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    for _ in range(2):
        step()
    counts = []
    for _ in range(3):
        before = faults()
        step()
        counts.append(faults() - before)
    print(max(counts))
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_steady_steps_reuse_the_pages_the_last_step_freed():
    """After ``own_process``, a steady training step on a 2,000-row bag
    takes its memory from pages the previous step freed: under 1,000
    minor page faults, where glibc's default thresholds give about 10k."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert int(done.stdout.split()[-1]) < 1000
