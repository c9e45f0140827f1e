"""Label-exact image augmentation and behavior-driven augmentation plans.

Geometric ops transform box coordinates in closed form (right-angle
rotations and flips only, so labels stay exact); photometric ops leave
boxes alone and clamp pixels to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .manifest import AnnotationRecord, ClassDistribution, Condition


class AugmentKind(Enum):
    ROT90CW = "Rot90CW"
    ROT180 = "Rot180"
    ROT270CW = "Rot270CW"
    FLIP_H = "FlipH"
    FLIP_V = "FlipV"
    BRIGHTNESS = "Brightness"
    CONTRAST = "Contrast"
    ZOOM = "Zoom"


_GEOMETRIC = {
    AugmentKind.ROT90CW,
    AugmentKind.ROT180,
    AugmentKind.ROT270CW,
    AugmentKind.FLIP_H,
    AugmentKind.FLIP_V,
    AugmentKind.ZOOM,
}


@dataclass(frozen=True)
class AugmentOp:
    kind: AugmentKind
    delta: float = 0.0     # Brightness shift
    factor: float = 1.0    # Contrast / Zoom factor

    def __post_init__(self) -> None:
        if self.kind in (AugmentKind.ZOOM, AugmentKind.CONTRAST) and self.factor <= 0:
            raise ValueError(f"{self.kind.value} factor must be positive, got {self.factor}")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.kind is AugmentKind.BRIGHTNESS:
            out["delta"] = self.delta
        elif self.kind in (AugmentKind.CONTRAST, AugmentKind.ZOOM):
            out["factor"] = self.factor
        return out


def inverse_op(op: AugmentOp) -> AugmentOp:
    """Inverse of a geometric op (flips/Rot180 are involutions)."""
    if op.kind is AugmentKind.ROT90CW:
        return AugmentOp(AugmentKind.ROT270CW)
    if op.kind is AugmentKind.ROT270CW:
        return AugmentOp(AugmentKind.ROT90CW)
    if op.kind is AugmentKind.ZOOM:
        return AugmentOp(AugmentKind.ZOOM, factor=1.0 / op.factor)
    if op.kind in _GEOMETRIC:
        return op
    raise ValueError(f"{op.kind.value} is photometric; it has no box inverse")


def transform_bbox(
    op: AugmentOp,
    bbox: tuple[float, float, float, float],
    image_size: tuple[int, int],
) -> tuple[tuple[float, float, float, float], tuple[int, int]]:
    """Map a box through an op; returns the new box and (possibly transposed) frame."""
    x1, y1, x2, y2 = bbox
    w, h = image_size
    kind = op.kind
    if kind is AugmentKind.FLIP_H:
        return (w - x2, y1, w - x1, y2), (w, h)
    if kind is AugmentKind.FLIP_V:
        return (x1, h - y2, x2, h - y1), (w, h)
    if kind is AugmentKind.ROT90CW:
        return (h - y2, x1, h - y1, x2), (h, w)
    if kind is AugmentKind.ROT180:
        return (w - x2, h - y2, w - x1, h - y1), (w, h)
    if kind is AugmentKind.ROT270CW:
        return (y1, w - x2, y2, w - x1), (h, w)
    if kind is AugmentKind.ZOOM:
        f = op.factor
        new_size = (max(1, math.ceil(w * f)), max(1, math.ceil(h * f)))
        return (x1 * f, y1 * f, x2 * f, y2 * f), new_size
    # photometric
    return bbox, (w, h)


def transform_image(op: AugmentOp, image: np.ndarray) -> np.ndarray:
    """Apply an op to an (H, W) float image in [0, 1]."""
    image = np.asarray(image, dtype=np.float64)
    kind = op.kind
    if kind is AugmentKind.FLIP_H:
        return image[:, ::-1].copy()
    if kind is AugmentKind.FLIP_V:
        return image[::-1, :].copy()
    if kind is AugmentKind.ROT90CW:
        return np.rot90(image, k=-1).copy()
    if kind is AugmentKind.ROT180:
        return image[::-1, ::-1].copy()
    if kind is AugmentKind.ROT270CW:
        return np.rot90(image, k=1).copy()
    if kind is AugmentKind.ZOOM:
        f = op.factor
        h, w = image.shape
        new_h = max(1, math.ceil(h * f))
        new_w = max(1, math.ceil(w * f))
        rows = np.minimum((np.arange(new_h) / f).astype(int), h - 1)
        cols = np.minimum((np.arange(new_w) / f).astype(int), w - 1)
        return image[np.ix_(rows, cols)].copy()
    if kind is AugmentKind.BRIGHTNESS:
        return np.clip(image + op.delta, 0.0, 1.0)
    if kind is AugmentKind.CONTRAST:
        return np.clip((image - 0.5) * op.factor + 0.5, 0.0, 1.0)
    raise ValueError(f"unhandled op kind {kind}")


def apply_augment(
    record: AnnotationRecord,
    op: AugmentOp,
    image: np.ndarray | None = None,
) -> tuple[AnnotationRecord, np.ndarray | None]:
    """Transform a record (and its image, when given) through one op.

    The returned record keeps the same sample_id and image_ref; callers
    appending augmented samples to a manifest assign fresh ids.
    """
    bbox, size = transform_bbox(op, record.bbox, record.image_size)
    new_image = transform_image(op, image) if image is not None else None
    return replace(record, bbox=bbox, image_size=size), new_image


# Fixed deficit->op table: what to emphasize per underattended condition.
# All entries preserve the image frame so augmented samples can join the
# original training tensor stack.
CONDITION_OPS: dict[Condition, AugmentOp] = {
    Condition.NORMAL: AugmentOp(AugmentKind.FLIP_H),
    Condition.NIGHT: AugmentOp(AugmentKind.BRIGHTNESS, delta=0.2),
    Condition.WEATHER: AugmentOp(AugmentKind.CONTRAST, factor=1.25),
    Condition.ROTATED: AugmentOp(AugmentKind.ROT90CW),
    Condition.MIXED: AugmentOp(AugmentKind.ROT180),
}

DEFAULT_TAU_ATT = 0.3
DEFAULT_KAPPA = 1.0
DEFAULT_TAU_REL = 0.5


@dataclass(frozen=True)
class AugmentRequest:
    class_label: str
    condition: Condition
    op: AugmentOp
    count: int

    def to_json_dict(self) -> dict:
        return {
            "class_label": self.class_label,
            "condition": self.condition.value,
            "op": self.op.to_json_dict(),
            "count": self.count,
        }


def attention_guided_augment_plan(
    masses: Mapping,
    dist: ClassDistribution,
    tau_att: float = DEFAULT_TAU_ATT,
    kappa: float = DEFAULT_KAPPA,
) -> list[AugmentRequest]:
    """Augmentation requests for (class, condition) cells the model underattends.

    ``masses`` maps (class_label, Condition) to the cell's mean attention
    mass on ground-truth regions, in [0, 1]. For each cell below tau_att,
    request ceil(kappa * (tau_att - mass) / tau_att * n) new samples,
    where n is the cell's current count. Cells at or above threshold
    contribute nothing, so a well-attended model yields an empty plan.
    """
    requests: list[AugmentRequest] = []
    for (class_label, condition), mass in sorted(
        masses.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        if mass >= tau_att:
            continue
        current = dist.per_condition.get(condition, {}).get(class_label, 0)
        count = math.ceil(kappa * (tau_att - mass) / tau_att * current)
        if count > 0:
            requests.append(
                AugmentRequest(class_label, condition, CONDITION_OPS[condition], count)
            )
    return requests


def materialize_plan(
    plan: Iterable[AugmentRequest],
    records: Sequence[AnnotationRecord],
    images: np.ndarray,
) -> tuple[list[AnnotationRecord], list[np.ndarray]]:
    """New samples for a plan: each request's op applied round-robin over
    the records of its (class, condition) cell, the j-th new sample of a
    request named ``<source id>-aug<j>``. ``images`` holds one
    (1, H, W) image per record; the new records carry no image_ref."""
    cells: dict[tuple[str, Condition], list[int]] = {}
    for i, record in enumerate(records):
        cells.setdefault((record.class_label, record.condition), []).append(i)
    new_records: list[AnnotationRecord] = []
    new_images: list[np.ndarray] = []
    for request in plan:
        sources = cells.get((request.class_label, request.condition), [])
        for j in range(request.count if sources else 0):
            src = sources[j % len(sources)]
            record, image = apply_augment(records[src], request.op, images[src, 0])
            sid = f"{records[src].sample_id}-aug{j}"
            new_records.append(replace(record, sample_id=sid, image_ref=None))
            new_images.append(image)
    return new_records, new_images


@dataclass(frozen=True)
class SampleRelevanceStat:
    """Per-sample relevance summary from a validation pass."""

    in_box_fraction: float
    loss: float


def rank_off_box(
    stats: Sequence[SampleRelevanceStat], tau_rel: float = DEFAULT_TAU_REL
) -> list[int]:
    """Samples to duplicate because their relevance mostly misses the
    ground-truth box: positions in ``stats`` whose in-box relevance fraction
    is below tau_rel, by descending loss; ties keep position order."""
    keep = [i for i, s in enumerate(stats) if s.in_box_fraction < tau_rel]
    return sorted(keep, key=lambda i: -stats[i].loss)
