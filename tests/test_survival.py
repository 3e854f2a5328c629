import numpy as np
import pytest

import mome.numcore as nc
from mome.errors import DataError, MetricError
from mome.survival import (
    SurvivalTarget,
    c_index,
    hazards_from_logits,
    nll_loss,
    risk_score,
)


def curve_from(logit_values):
    return hazards_from_logits(nc.Tensor(np.asarray(logit_values, dtype=np.float64)))


def brute_force_c_index(risks, targets):
    """Independent oracle: enumerate every ordered pair."""
    concordant = 0.0
    total = 0
    n = len(risks)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ti, tj = targets[i].raw_time, targets[j].raw_time
            ei, ej = not targets[i].censored, not targets[j].censored
            if not ei:
                continue
            if not (ti < tj or (ti == tj and not ej)):
                continue
            total += 1
            if risks[i] > risks[j]:
                concordant += 1.0
            elif risks[i] == risks[j]:
                concordant += 0.5
    if total == 0:
        raise MetricError("no comparable pairs")
    return concordant / total


class TestHazardsFromLogits:
    def test_no_hazard_limit(self):
        curve = curve_from([-50.0] * 4)
        assert np.all(curve.hazard_values < 1e-20)
        assert np.allclose(curve.survival_values, 1.0, atol=1e-12)

    def test_half_half(self):
        curve = curve_from([0.0, 0.0])
        assert np.allclose(curve.hazard_values, [0.5, 0.5], atol=1e-15)
        assert np.allclose(curve.survival_values, [0.5, 0.25], atol=1e-15)

    def test_survival_non_increasing_for_random_logits(self):
        rng = nc.rng_stream(50)
        for _ in range(1000):
            curve = curve_from(rng.standard_normal(4) * 5)
            s = curve.survival_values
            assert np.all(np.diff(s) <= 0)
            assert np.all((s >= 0) & (s <= 1))
            assert np.all((curve.hazard_values >= 0) & (curve.hazard_values <= 1))

    def test_product_identity(self):
        rng = nc.rng_stream(51)
        for _ in range(100):
            curve = curve_from(rng.standard_normal(5) * 3)
            expected = np.cumprod(1.0 - curve.hazard_values)
            assert np.max(np.abs(curve.survival_values - expected)) <= 1e-12

    def test_single_bin_rejected(self):
        with pytest.raises(DataError):
            curve_from([0.0])


class TestNllLoss:
    def test_censored_certain_survival_is_zero_loss(self):
        curve = curve_from([-50.0] * 4)
        loss = nll_loss(curve, SurvivalTarget(bin=2, censored=True, raw_time=10.0))
        assert abs(loss.item()) < 1e-9

    def test_uncensored_bin_zero_oracle(self):
        curve = curve_from([0.0, 0.0])
        loss = nll_loss(curve, SurvivalTarget(bin=0, censored=False, raw_time=1.0))
        assert abs(loss.item() - 0.6931471805599453) < 1e-12

    def test_loss_decreases_in_event_bin_hazard(self):
        losses = []
        for logit in [-1.0, 0.0, 1.0, 2.0]:
            curve = curve_from([0.3, logit, 0.1])
            losses.append(
                nll_loss(curve, SurvivalTarget(bin=1, censored=False, raw_time=5.0)).item()
            )
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = nc.rng_stream(52)
        logits = nc.Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        target = SurvivalTarget(bin=2, censored=False, raw_time=3.0)

        def loss_value():
            return nll_loss(hazards_from_logits(logits), target)

        loss_value().backward()
        analytic = logits.grad.copy()
        h = 1e-5
        numeric = np.zeros_like(analytic)
        for i in range(4):
            orig = logits.data[0, i]
            logits.data[0, i] = orig + h
            hi = loss_value().item()
            logits.data[0, i] = orig - h
            lo = loss_value().item()
            logits.data[0, i] = orig
            numeric[0, i] = (hi - lo) / (2 * h)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-6

    def test_censored_gradient_matches_finite_differences(self):
        logits = nc.Tensor([[0.2, -0.4, 0.6]], requires_grad=True)
        target = SurvivalTarget(bin=1, censored=True, raw_time=3.0)

        def loss_value():
            return nll_loss(hazards_from_logits(logits), target)

        loss_value().backward()
        h = 1e-5
        for i in range(3):
            orig = logits.data[0, i]
            logits.data[0, i] = orig + h
            hi = loss_value().item()
            logits.data[0, i] = orig - h
            lo = loss_value().item()
            logits.data[0, i] = orig
            assert abs(logits.grad[0, i] - (hi - lo) / (2 * h)) <= 1e-6


class TestFusedLoss:
    @pytest.mark.parametrize("logits, target, slope", [
        ([40.0, 0.0, 0.0, 0.0], SurvivalTarget(bin=0, censored=True, raw_time=1.0), 1.0),
        ([-40.0, 0.0, 0.0], SurvivalTarget(bin=0, censored=False, raw_time=1.0), -1.0),
        ([0.0, 0.0, 800.0], SurvivalTarget(bin=2, censored=True, raw_time=1.0), 1.0),
        ([0.0, -800.0], SurvivalTarget(bin=1, censored=False, raw_time=1.0), -1.0),
    ])
    def test_saturated_wrong_prediction_keeps_its_gradient(self, logits, target, slope):
        z = nc.Tensor(logits, requires_grad=True)
        loss = nll_loss(hazards_from_logits(z), target)
        loss.backward()
        saturated = abs(logits[target.bin])
        assert np.isfinite(loss.item()) and abs(loss.item() - saturated) <= 2.0
        assert abs(z.grad[target.bin] - slope) <= 1e-12

    def test_head_and_loss_build_one_graph_node(self):
        logits = nc.Tensor(nc.rng_stream(57).standard_normal((1, 4)), requires_grad=True)
        first = next(nc._node_ids)
        loss = nll_loss(hazards_from_logits(logits),
                        SurvivalTarget(bin=2, censored=False, raw_time=1.0))
        assert next(nc._node_ids) - first == 2  # the loss node and this probe
        assert loss._parents == (logits,)


class TestRiskScore:
    def test_minimum_risk(self):
        assert abs(risk_score(curve_from([-50.0] * 4)) - (-4.0)) < 1e-9

    def test_maximum_risk(self):
        curve = curve_from([50.0, 0.0, 0.0])
        assert abs(risk_score(curve)) < 1e-9

    def test_single_hazard_increase_raises_risk(self):
        base_logits = np.array([-0.5, 0.2, -0.1, 0.4])
        base = risk_score(curve_from(base_logits))
        for i in range(4):
            bumped = base_logits.copy()
            bumped[i] += 0.05
            assert risk_score(curve_from(bumped)) > base


class TestCIndex:
    def test_perfect_concordance(self):
        targets = [SurvivalTarget(0, False, t) for t in (1.0, 2.0, 3.0)]
        assert c_index([3.0, 2.0, 1.0], targets) == 1.0

    def test_perfect_discordance(self):
        targets = [SurvivalTarget(0, False, t) for t in (1.0, 2.0, 3.0)]
        assert c_index([1.0, 2.0, 3.0], targets) == 0.0

    def test_censored_pair_exclusion(self):
        targets = [
            SurvivalTarget(0, False, 2.0),
            SurvivalTarget(0, True, 4.0),
            SurvivalTarget(0, False, 6.0),
        ]
        assert c_index([0.9, 0.5, 0.1], targets) == 1.0

    def test_no_comparable_pairs_rejected(self):
        targets = [SurvivalTarget(0, True, 1.0), SurvivalTarget(0, True, 2.0)]
        with pytest.raises(MetricError):
            c_index([0.5, 0.4], targets)

    def test_matches_brute_force_oracle(self):
        rng = nc.rng_stream(53)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            times = rng.exponential(100.0, size=n) + 1.0
            if rng.random() < 0.3:  # inject ties in time and risk
                times = np.round(times, -1) + 1.0
            censored = rng.random(n) < 0.35
            if censored.all():
                censored[0] = False
            risks = np.round(rng.standard_normal(n), 1)
            targets = [SurvivalTarget(0, bool(c), float(t)) for c, t in zip(censored, times)]
            try:
                expected = brute_force_c_index(risks, targets)
            except MetricError:
                with pytest.raises(MetricError):
                    c_index(risks, targets)
                continue
            assert c_index(risks, targets) == expected

    def test_complement_identity_without_ties(self):
        rng = nc.rng_stream(54)
        times = rng.exponential(50.0, size=20) + 1.0
        censored = rng.random(20) < 0.3
        censored[0] = False
        risks = rng.standard_normal(20)
        targets = [SurvivalTarget(0, bool(c), float(t)) for c, t in zip(censored, times)]
        assert abs(c_index(risks, targets) + c_index(-risks, targets) - 1.0) < 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = nc.rng_stream(55)
        times = rng.exponential(50.0, size=25) + 1.0
        censored = rng.random(25) < 0.3
        risks = rng.standard_normal(25)
        targets = [SurvivalTarget(0, bool(c), float(t)) for c, t in zip(censored, times)]
        base = c_index(risks, targets)
        assert c_index(np.exp(risks), targets) == base
        assert c_index(3.0 * risks + 7.0, targets) == base

    def test_random_risks_center_near_half(self):
        rng = nc.rng_stream(56)
        values = []
        for _ in range(1000):
            n = 30
            times = rng.exponential(100.0, size=n) + 1.0
            censored = rng.random(n) < 0.3
            risks = rng.standard_normal(n)
            targets = [SurvivalTarget(0, bool(c), float(t)) for c, t in zip(censored, times)]
            values.append(c_index(risks, targets))
        assert 0.47 <= float(np.mean(values)) <= 0.53
