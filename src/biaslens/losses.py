"""Cost-sensitive learning: inverse-frequency class weights, weighted
multi-class cross-entropy with exact softmax-fused gradient, and
recall-gap dynamic weight adjustment."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .manifest import ClassDistribution

LOG_EPS = 1e-12  # probability clamp before log; part of the numeric contract
WEIGHT_MIN = 0.05
WEIGHT_MAX = 100.0

_log = logging.getLogger(__name__)


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss weights: raw inverse-frequency values and a
    normalized map scaled to sum to ``normalization_target`` (default K,
    so the mean weight is 1 and loss magnitude stays comparable to
    unweighted cross-entropy)."""

    raw: dict[str, float]
    normalized: dict[str, float]
    normalization_target: float

    def __post_init__(self) -> None:
        if set(self.raw) != set(self.normalized):
            raise WeightError("raw and normalized weight maps must share classes")
        total = sum(self.normalized.values())
        if abs(total - self.normalization_target) > 1e-9:
            raise WeightError(
                f"normalized weights sum to {total}, expected {self.normalization_target}"
            )

    def as_vector(self, class_order: Sequence[str]) -> np.ndarray:
        """Normalized weights in the given class-column order."""
        try:
            return np.array([self.normalized[c] for c in class_order], dtype=np.float64)
        except KeyError as exc:
            raise WeightError(f"no weight for class {exc.args[0]!r}") from None

    def to_json_dict(self) -> dict:
        return {
            c: {"raw": self.raw[c], "normalized": self.normalized[c]}
            for c in sorted(self.raw)
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping[str, Mapping[str, float]]) -> "ClassWeights":
        raw = {c: float(v["raw"]) for c, v in obj.items()}
        normalized = {c: float(v["normalized"]) for c, v in obj.items()}
        return cls(raw=raw, normalized=normalized, normalization_target=sum(normalized.values()))


def _normalize(raw: Mapping[str, float], target: float) -> dict[str, float]:
    total = sum(raw.values())
    return {c: v * target / total for c, v in raw.items()}


def compute_class_weights(
    dist: ClassDistribution, classes: Sequence[str] | None = None
) -> ClassWeights:
    """Inverse-frequency weights: raw(c) = 1 / (percentage(c) / 100),
    then scaled so the normalized weights sum to the number of classes."""
    if classes is None:
        classes = sorted(dist.percentages)
    raw: dict[str, float] = {}
    for c in classes:
        pct = dist.percentages.get(c, 0.0)
        if pct <= 0.0:
            raise WeightError(
                f"class {c!r} has zero share; weight would be infinite "
                "(oversample that class first)"
            )
        raw[c] = 100.0 / pct
    k = float(len(classes))
    return ClassWeights(raw=raw, normalized=_normalize(raw, k), normalization_target=k)


def weighted_cross_entropy(
    probs: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean weighted cross-entropy and its gradient w.r.t. the logits.

    ``probs`` rows must sum to 1 (softmax outputs); ``labels`` is one-hot
    with the same shape; ``weights`` is a per-class vector aligned with
    the columns (None = unit weights). Per instance the loss is
    -sum_x w_x y_x log(p_x) and the softmax-fused gradient is
    w_true * (p - y); both are averaged over the batch. Probabilities at
    the true class are clamped to 1e-12 before the log so the loss is
    never infinite (clamping is logged).
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape or probs.ndim != 2:
        raise WeightError(f"probs {probs.shape} and labels {labels.shape} must match (N, K)")
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
        raise WeightError("probability rows must sum to 1")
    n, k = probs.shape
    if weights is None:
        weights = np.ones(k, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (k,):
        raise WeightError(f"weights shape {weights.shape} does not match {k} classes")

    p_true = (probs * labels).sum(axis=1)
    if np.any(p_true < LOG_EPS):
        _log.warning(
            "clamped %d true-class probabilities below %.0e", int((p_true < LOG_EPS).sum()), LOG_EPS
        )
    w_true = labels @ weights
    loss = float(np.mean(-w_true * np.log(np.maximum(p_true, LOG_EPS))))
    grad = w_true[:, None] * (probs - labels) / n
    return loss, grad


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Unweighted cross-entropy: the unit-weight reduction of the weighted form."""
    return weighted_cross_entropy(probs, labels, None)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, computed in one fresh array.

    ``logits`` is never written: the shifted copy is exponentiated and
    normalized in place.
    """
    x = np.asarray(logits, dtype=np.float64)
    z = x - x.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def weighted_ce_from_logits(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Softmax + weighted cross-entropy in one step (training entry point)."""
    return weighted_cross_entropy(softmax(logits), labels, weights)


def dynamic_weight_adjust(
    weights: ClassWeights,
    per_class_recall: Mapping[str, float],
    target: float,
    eta: float = 0.5,
) -> ClassWeights:
    """Recall-gap update: w'(c) = w(c) * (1 + eta * (target - recall(c))),
    clamped to [0.05, 100] and renormalized to the original target sum.

    Classes below target recall gain weight; classes above lose it.
    """
    if eta < 0:
        raise WeightError(f"adjustment rate eta must be >= 0, got {eta}")
    for c, r in per_class_recall.items():
        if not (0.0 <= r <= 1.0) or not math.isfinite(r):
            raise WeightError(f"recall for class {c!r} outside [0, 1]: {r}")
    adjusted: dict[str, float] = {}
    for c, w in weights.normalized.items():
        recall = per_class_recall.get(c)
        if recall is None:
            raise WeightError(f"no recall reported for class {c!r}")
        new = w * (1.0 + eta * (target - recall))
        adjusted[c] = min(max(new, WEIGHT_MIN), WEIGHT_MAX)
    return ClassWeights(
        raw=adjusted,
        normalized=_normalize(adjusted, weights.normalization_target),
        normalization_target=weights.normalization_target,
    )
