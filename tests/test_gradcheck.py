import mome.gradcheck as gradcheck


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
