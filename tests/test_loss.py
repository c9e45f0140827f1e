"""Tests for inverse-frequency class weights and weighted cross-entropy."""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens.losses import (
    LOG_EPS,
    WEIGHT_MAX,
    WEIGHT_MIN,
    ClassWeights,
    WeightError,
    compute_class_weights,
    cross_entropy,
    dynamic_weight_adjust,
    softmax,
    weighted_ce_from_logits,
    weighted_cross_entropy,
)
from biaslens.manifest import ClassDistribution, compute_distribution

from conftest import make_manifest


def one_hot(indices, k):
    out = np.zeros((len(indices), k))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def prob_rows(n, k, rng):
    raw = rng.random((n, k)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


class TestComputeClassWeights:
    def test_study_scale_weights(self):
        # shares 21.61% / 2.46% / 2.42% -> raw 4.6275 / 40.6504 / 41.3223
        dist = ClassDistribution(
            counts={"car": 0, "ped": 0, "cyc": 0},
            percentages={"car": 21.61, "ped": 2.46, "cyc": 2.42},
            per_condition={},
            total=693757,
        )
        weights = compute_class_weights(dist)
        npt.assert_allclose(weights.raw["car"], 4.6275, atol=1e-4)
        npt.assert_allclose(weights.raw["ped"], 40.6504, atol=1e-4)
        npt.assert_allclose(weights.raw["cyc"], 41.3223, atol=1e-4)
        npt.assert_allclose(weights.normalized["car"], 0.1603, atol=1e-4)
        npt.assert_allclose(weights.normalized["ped"], 1.4082, atol=1e-4)
        npt.assert_allclose(weights.normalized["cyc"], 1.4315, atol=1e-4)

    def test_study_scale_weights_from_raw_counts(self):
        # The same shares carried at full precision from instance counts;
        # the background's share counts in the total but gets no weight.
        manifest = make_manifest({"car": 149921, "ped": 17060, "cyc": 16779, "bg": 509997})
        dist = compute_distribution(manifest)
        shares = {c: dist.percentages[c] for c in ("car", "ped", "cyc")}
        weights = compute_class_weights(replace(dist, percentages=shares))
        npt.assert_allclose(weights.raw["car"], 4.6275, atol=0.05)
        npt.assert_allclose(weights.raw["ped"], 40.6504, atol=0.05)
        npt.assert_allclose(weights.raw["cyc"], 41.3223, atol=0.05)
        npt.assert_allclose(weights.normalized["ped"], 1.4082, atol=2e-3)
        npt.assert_allclose(sum(weights.normalized.values()), 3.0, atol=1e-12)

    def test_normalized_weights_sum_to_class_count(self):
        manifest = make_manifest({"a": 10, "b": 30, "c": 60})
        weights = compute_class_weights(compute_distribution(manifest))
        npt.assert_allclose(sum(weights.normalized.values()), 3.0, atol=1e-12)

    def test_balanced_classes_get_unit_weights(self):
        manifest = make_manifest({"a": 20, "b": 20, "c": 20})
        weights = compute_class_weights(compute_distribution(manifest))
        for c in "abc":
            npt.assert_allclose(weights.normalized[c], 1.0, atol=1e-12)

    def test_rarer_class_weighs_more(self):
        manifest = make_manifest({"common": 90, "rare": 10})
        weights = compute_class_weights(compute_distribution(manifest))
        assert weights.normalized["rare"] > weights.normalized["common"]

    @given(counts=st.lists(st.integers(1, 10_000), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, counts):
        names = [f"c{i}" for i in range(len(counts))]
        small = compute_distribution(make_manifest(dict(zip(names, counts))))
        big = compute_distribution(make_manifest(dict(zip(names, [3 * n for n in counts]))))
        w_small = compute_class_weights(small)
        w_big = compute_class_weights(big)
        for c in names:
            npt.assert_allclose(w_big.normalized[c], w_small.normalized[c], rtol=1e-9)

    @given(counts=st.lists(st.integers(1, 10_000), min_size=2, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_weight_order_inverts_count_order(self, counts):
        names = [f"c{i}" for i in range(len(counts))]
        weights = compute_class_weights(
            compute_distribution(make_manifest(dict(zip(names, counts))))
        )
        by_count = sorted(names, key=lambda c: counts[names.index(c)])
        by_weight = sorted(names, key=lambda c: -weights.normalized[c])
        assert by_count == by_weight

    def test_vector_follows_class_order(self):
        manifest = make_manifest({"a": 10, "b": 40})
        weights = compute_class_weights(compute_distribution(manifest))
        vec = weights.as_vector(["b", "a"])
        npt.assert_allclose(vec, [weights.normalized["b"], weights.normalized["a"]])

    def test_vector_missing_class_rejected(self):
        manifest = make_manifest({"a": 10, "b": 40})
        weights = compute_class_weights(compute_distribution(manifest))
        with pytest.raises(WeightError, match="ghost"):
            weights.as_vector(["a", "ghost"])


class TestWeightedCrossEntropy:
    def test_hand_case_weight_two_half_prob(self):
        # -2 * log(0.5) = 1.38629...
        probs = np.array([[0.5, 0.5]])
        labels = one_hot([0], 2)
        loss, _ = weighted_cross_entropy(probs, labels, np.array([2.0, 1.0]))
        npt.assert_allclose(loss, 2.0 * np.log(2.0), atol=1e-5)
        npt.assert_allclose(loss, 1.38629, atol=1e-5)

    def test_unit_weights_reduce_to_plain_ce(self, rng):
        probs = prob_rows(8, 3, rng)
        labels = one_hot(rng.integers(0, 3, size=8), 3)
        w_loss, w_grad = weighted_cross_entropy(probs, labels, np.ones(3))
        loss, grad = cross_entropy(probs, labels)
        npt.assert_allclose(w_loss, loss, atol=1e-12)
        npt.assert_array_equal(w_grad, grad)

    def test_none_weights_match_unit_weights(self, rng):
        probs = prob_rows(5, 4, rng)
        labels = one_hot(rng.integers(0, 4, size=5), 4)
        loss_none, grad_none = weighted_cross_entropy(probs, labels, None)
        loss_unit, grad_unit = weighted_cross_entropy(probs, labels, np.ones(4))
        assert loss_none == loss_unit
        npt.assert_array_equal(grad_none, grad_unit)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(6, 3))
        labels = one_hot(rng.integers(0, 3, size=6), 3)
        weights = np.array([0.2, 1.4, 1.4])
        _, grad = weighted_ce_from_logits(logits, labels, weights)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                bumped = logits.copy()
                bumped[i, j] += eps
                up, _ = weighted_ce_from_logits(bumped, labels, weights)
                bumped[i, j] -= 2 * eps
                down, _ = weighted_ce_from_logits(bumped, labels, weights)
                numeric[i, j] = (up - down) / (2 * eps)
        npt.assert_allclose(grad, numeric, atol=1e-6)

    def test_gradient_is_weighted_residual_over_batch(self, rng):
        probs = prob_rows(4, 3, rng)
        labels = one_hot([0, 1, 2, 0], 3)
        weights = np.array([0.5, 2.0, 1.0])
        _, grad = weighted_cross_entropy(probs, labels, weights)
        w_true = labels @ weights
        npt.assert_allclose(grad, w_true[:, None] * (probs - labels) / 4.0, atol=1e-15)

    def test_clamp_keeps_loss_finite_and_logs(self, caplog):
        probs = np.array([[1.0, 0.0]])
        labels = one_hot([1], 2)
        with caplog.at_level(logging.WARNING, logger="biaslens.losses"):
            loss, _ = weighted_cross_entropy(probs, labels)
        assert np.isfinite(loss)
        npt.assert_allclose(loss, -np.log(LOG_EPS))
        assert any("clamp" in rec.message for rec in caplog.records)

    def test_no_clamp_log_for_healthy_probs(self, caplog, rng):
        probs = prob_rows(4, 3, rng)
        labels = one_hot([0, 1, 2, 1], 3)
        with caplog.at_level(logging.WARNING, logger="biaslens.losses"):
            weighted_cross_entropy(probs, labels)
        assert not caplog.records

    def test_shape_mismatch_rejected(self):
        with pytest.raises(WeightError, match="match"):
            weighted_cross_entropy(np.ones((2, 3)) / 3.0, np.ones((2, 2)))

    def test_unnormalized_rows_rejected(self):
        probs = np.array([[0.9, 0.3]])
        with pytest.raises(WeightError, match="sum to 1"):
            weighted_cross_entropy(probs, one_hot([0], 2))

    def test_wrong_weight_length_rejected(self, rng):
        probs = prob_rows(2, 3, rng)
        with pytest.raises(WeightError, match="weights shape"):
            weighted_cross_entropy(probs, one_hot([0, 1], 3), np.ones(4))

    @given(
        scale=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_loss_scales_linearly_with_weights(self, scale, seed):
        rng = np.random.default_rng(seed)
        probs = prob_rows(5, 3, rng)
        labels = one_hot(rng.integers(0, 3, size=5), 3)
        weights = rng.random(3) + 0.1
        base, base_grad = weighted_cross_entropy(probs, labels, weights)
        scaled, scaled_grad = weighted_cross_entropy(probs, labels, scale * weights)
        npt.assert_allclose(scaled, scale * base, rtol=1e-9)
        npt.assert_allclose(scaled_grad, scale * base_grad, rtol=1e-9)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_raising_true_class_weight_raises_loss(self, seed):
        rng = np.random.default_rng(seed)
        probs = prob_rows(4, 3, rng)
        labels = one_hot(rng.integers(0, 3, size=4), 3)
        low, _ = weighted_cross_entropy(probs, labels, np.array([1.0, 1.0, 1.0]))
        high, _ = weighted_cross_entropy(probs, labels, np.array([2.0, 2.0, 2.0]))
        assert high >= low  # loss is monotone in every class weight


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = softmax(rng.normal(size=(7, 5)))
        npt.assert_allclose(out.sum(axis=1), np.ones(7), atol=1e-12)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(4, 3))
        npt.assert_allclose(softmax(logits + 123.4), softmax(logits), atol=1e-12)

    def test_hand_case(self):
        npt.assert_allclose(softmax(np.array([[0.0, np.log(3.0)]])), [[0.25, 0.75]], atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        out = softmax(np.array([[1000.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out[0, 0], 1.0)


class TestDynamicWeightAdjust:
    @staticmethod
    def _weights(values: dict[str, float]) -> ClassWeights:
        target = sum(values.values())
        return ClassWeights(raw=dict(values), normalized=dict(values), normalization_target=target)

    def test_hand_case_pre_normalization_factor(self):
        # w=1, target 0.9, recall 0.5, eta 0.5 -> 1 * (1 + 0.5 * 0.4) = 1.2
        weights = self._weights({"a": 1.0, "b": 1.0})
        adjusted = dynamic_weight_adjust(weights, {"a": 0.5, "b": 0.9}, target=0.9, eta=0.5)
        npt.assert_allclose(adjusted.raw["a"], 1.2, atol=1e-12)
        npt.assert_allclose(adjusted.raw["b"], 1.0, atol=1e-12)

    def test_renormalizes_to_original_target(self):
        weights = self._weights({"a": 0.5, "b": 1.5, "c": 1.0})
        adjusted = dynamic_weight_adjust(weights, {"a": 0.1, "b": 0.9, "c": 0.5}, target=0.8)
        npt.assert_allclose(sum(adjusted.normalized.values()), 3.0, atol=1e-9)

    def test_recall_at_target_is_fixed_point(self):
        weights = self._weights({"a": 1.3, "b": 0.7})
        adjusted = dynamic_weight_adjust(weights, {"a": 0.8, "b": 0.8}, target=0.8)
        npt.assert_allclose(adjusted.normalized["a"], 1.3, atol=1e-12)
        npt.assert_allclose(adjusted.normalized["b"], 0.7, atol=1e-12)

    def test_recall_above_target_sheds_weight(self):
        weights = self._weights({"a": 1.0, "b": 1.0})
        adjusted = dynamic_weight_adjust(weights, {"a": 1.0, "b": 0.2}, target=0.6)
        assert adjusted.normalized["a"] < adjusted.normalized["b"]
        assert adjusted.raw["a"] < 1.0 < adjusted.raw["b"]

    def test_clamps_apply_before_renormalization(self):
        weights = self._weights({"a": 90.0, "b": 0.06})
        adjusted = dynamic_weight_adjust(weights, {"a": 0.0, "b": 1.0}, target=0.5, eta=10.0)
        assert adjusted.raw["a"] == WEIGHT_MAX  # 90 * 6 clamped down
        assert adjusted.raw["b"] == WEIGHT_MIN  # 0.06 * -4 clamped up

    def test_negative_eta_rejected(self):
        weights = self._weights({"a": 1.0})
        with pytest.raises(WeightError, match="eta"):
            dynamic_weight_adjust(weights, {"a": 0.5}, target=0.9, eta=-0.1)

    def test_recall_out_of_range_rejected(self):
        weights = self._weights({"a": 1.0})
        with pytest.raises(WeightError, match="recall"):
            dynamic_weight_adjust(weights, {"a": 1.5}, target=0.9)

    def test_missing_recall_rejected(self):
        weights = self._weights({"a": 1.0, "b": 1.0})
        with pytest.raises(WeightError, match="no recall"):
            dynamic_weight_adjust(weights, {"a": 0.5}, target=0.9)

    @given(
        recalls=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
        target=st.floats(0.1, 1.0),
        eta=st.floats(0.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_preserved_and_bounds_respected(self, recalls, target, eta):
        names = [f"c{i}" for i in range(len(recalls))]
        weights = self._weights({c: 1.0 for c in names})
        adjusted = dynamic_weight_adjust(
            weights, dict(zip(names, recalls)), target=target, eta=eta
        )
        npt.assert_allclose(
            sum(adjusted.normalized.values()), weights.normalization_target, atol=1e-9
        )
        for c in names:
            assert WEIGHT_MIN <= adjusted.raw[c] <= WEIGHT_MAX
