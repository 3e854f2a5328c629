"""Property tests of the fused survival loss against the product formula.

Kept apart from test_survival.py because they need hypothesis (the ``dev``
extra); without it only this module fails to collect.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mome.numcore as nc
from mome.survival import SurvivalTarget, hazards_from_logits, nll_loss


def product_formula_loss(z, target):
    """-log likelihood from s(t) = prod_{u<=t} (1 - h(u)), with 1 - h written
    as 1 / (1 + e^z) so it does not cancel; works on complex logits."""
    h = 1.0 / (1.0 + np.exp(-z))
    s = np.cumprod(1.0 / (1.0 + np.exp(z)))
    t = target.bin
    if target.censored:
        return -np.log(s[t])
    return -np.log(h[t]) - (np.log(s[t - 1]) if t else 0.0)


def product_formula_grad(z, target, step=1e-30):
    """Complex-step derivative of the product-formula loss, exact to rounding."""
    grad = np.zeros(z.size)
    for u in range(z.size):
        shifted = z.astype(complex)
        shifted[u] += 1j * step
        grad[u] = product_formula_loss(shifted, target).imag / step
    return grad


def deviation(actual, expected):
    """|actual - expected| / max(1, |expected|), read as in the gradient suite."""
    return np.max(np.abs(actual - expected) / np.maximum(1.0, np.abs(expected)))


@st.composite
def logits_and_targets(draw):
    t_bins = draw(st.integers(2, 8))
    z = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=t_bins, max_size=t_bins)))
    target = SurvivalTarget(bin=draw(st.integers(0, t_bins - 1)), censored=draw(st.booleans()),
                            raw_time=1.0)
    return z, target


class TestFusedLossProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(logits_and_targets())
    def test_matches_product_formula_where_probabilities_are_representable(self, case):
        z, target = case
        h = 1.0 / (1.0 + np.exp(-z))
        s = np.cumprod(1.0 / (1.0 + np.exp(z)))
        assume(s[target.bin] >= 1e-12 and h[target.bin] >= 1e-12)
        logits = nc.Tensor(z, requires_grad=True)
        loss = nll_loss(hazards_from_logits(logits), target)
        loss.backward()
        assert deviation(loss.item(), product_formula_loss(z, target)) <= 1e-9
        assert deviation(logits.grad, product_formula_grad(z, target)) <= 1e-9
