import numpy as np

import mome.gradcheck as gradcheck
from mome.experts import ExpertId, gate


def test_every_wiggled_tensor_is_differenced_over_the_suite_seeds(monkeypatch):
    """Run each component through ``run_suite`` with the differencing
    stubbed out, and record which entries of its wiggle list (the list
    handed to ``_rotate``, else the one handed to ``max_fd_error``) get
    differenced on some seed."""
    rotate = gradcheck._rotate
    offered = []

    def recording_rotate(wiggle, seed):
        offered.append(wiggle)
        return rotate(wiggle, seed)

    def recording_difference(build_loss, wiggle, fault=False):
        full = offered.pop() if offered else wiggle
        positions = [i for i, t in enumerate(full) if any(t is w for w in wiggle)]
        covered.setdefault(len(full), set()).update(positions)
        return 0.0

    monkeypatch.setattr(gradcheck, "_rotate", recording_rotate)
    monkeypatch.setattr(gradcheck, "max_fd_error", recording_difference)
    missed = {}
    for name in gradcheck.COMPONENTS:
        covered = {}
        gradcheck.run_suite(components=[name])
        if name == "dropf2":  # an exact identity check, nothing differenced
            assert not covered
            continue
        assert covered, name
        for length, positions in covered.items():
            if positions != set(range(length)):
                missed[name] = sorted(set(range(length)) - positions)
    assert not missed


def test_mome_layer_routes_to_every_expert_with_a_clear_margin():
    """Over the 100 suite seeds the routed-layer component sends some
    instance to each expert, and no instance sits so close to a routing
    tie that a difference step could flip the chosen expert."""
    chosen, margins = set(), []
    for s in range(100):
        layer, f1, f2, _ = gradcheck._mome_layer_instance(
            gradcheck._SEED_STRIDE * s + gradcheck._SEED_OFFSET
        )
        decision = gate(f1, f2, layer.gate, layer.enable_mask)
        chosen.add(decision.expert)
        enabled = np.sort(decision.logits.data[0][list(layer.enable_mask)])
        margins.append(enabled[1] - enabled[0])
    assert chosen == set(ExpertId)
    assert min(margins) > 100 * gradcheck.DEFAULT_STEP
