"""Detection evaluation: IoU, greedy matching, AP/mAP, the composite
detection score, and per-class FP/FN error analysis."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .manifest import AnnotationRecord

DEFAULT_IOU_THRESHOLD = 0.5

# Composite-score TP error names, in report order. At desk scale only the
# first two are measured from 2-D boxes; the rest default to 1.0 (clamped
# away) unless supplied.
TP_ERROR_NAMES = ("trans_err", "scale_err", "orient_err", "vel_err", "attr_err")


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class Detection:
    sample_id: str
    class_label: str
    bbox: tuple[float, float, float, float]
    score: float

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.bbox
        if not (x1 < x2 and y1 < y2 and all(map(math.isfinite, self.bbox))):
            raise MetricError(
                f"detection {self.sample_id!r}: degenerate or non-finite bbox {self.bbox}"
            )
        if not math.isfinite(self.score) or not (0.0 <= self.score <= 1.0):
            raise MetricError(f"detection {self.sample_id!r}: score {self.score} outside [0,1]")


@dataclass(frozen=True)
class MatchResult:
    """Per-class TP/FP flags in descending-score order, plus FN tallies."""

    flags: dict[str, tuple[bool, ...]]
    fn: dict[str, int]
    n_gt: dict[str, int]
    iou_threshold: float
    matched_pairs: dict[str, tuple[tuple[Detection, AnnotationRecord], ...]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class TPErrorSet:
    """Ordered (name, value) true-positive error terms for the composite score."""

    values: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for name, v in self.values:
            if not math.isfinite(v):
                raise MetricError(f"TP error {name!r} is not finite: {v}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "TPErrorSet":
        return cls(tuple((n, float(mapping.get(n, 1.0))) for n in TP_ERROR_NAMES))


def iou(
    box_a: Sequence[float], box_b: Sequence[float]
) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 when disjoint."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    if area_a <= 0 or area_b <= 0:
        raise MetricError(f"degenerate zero-area box: {box_a if area_a <= 0 else box_b}")
    ix = min(ax2, bx2) - max(ax1, bx1)
    iy = min(ay2, by2) - max(ay1, by1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (area_a + area_b - inter)


def match_detections(
    detections: Sequence[Detection],
    ground_truths: Sequence[AnnotationRecord],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> MatchResult:
    """Greedy score-ordered matching within each (sample, class).

    Detections are visited by descending score (ties keep insertion
    order); each claims the highest-IoU still-unmatched ground truth of
    its class with IoU >= threshold, else counts as FP. Ground truths
    left unmatched are FN.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise MetricError(f"iou_threshold must be in (0, 1], got {iou_threshold}")

    gts_by_key: dict[tuple[str, str], list[AnnotationRecord]] = {}
    for gt in ground_truths:
        gts_by_key.setdefault((gt.sample_id, gt.class_label), []).append(gt)
    matched: dict[tuple[str, str], list[bool]] = {
        key: [False] * len(v) for key, v in gts_by_key.items()
    }

    classes = sorted(
        {d.class_label for d in detections} | {g.class_label for g in ground_truths}
    )
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)

    flags: dict[str, list[bool]] = {c: [] for c in classes}
    pairs: dict[str, list[tuple[Detection, AnnotationRecord]]] = {c: [] for c in classes}
    for i in order:
        det = detections[i]
        key = (det.sample_id, det.class_label)
        candidates = gts_by_key.get(key, [])
        best_j, best_iou = -1, 0.0
        for j, gt in enumerate(candidates):
            if matched[key][j]:
                continue
            overlap = iou(det.bbox, gt.bbox)
            if overlap >= iou_threshold and overlap > best_iou:
                best_j, best_iou = j, overlap
        if best_j >= 0:
            matched[key][best_j] = True
            flags[det.class_label].append(True)
            pairs[det.class_label].append((det, candidates[best_j]))
        else:
            flags[det.class_label].append(False)

    n_gt = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for (sample_id, class_label), gts in gts_by_key.items():
        n_gt[class_label] += len(gts)
        fn[class_label] += matched[(sample_id, class_label)].count(False)

    return MatchResult(
        flags={c: tuple(v) for c, v in flags.items()},
        fn=fn,
        n_gt=n_gt,
        iou_threshold=iou_threshold,
        matched_pairs={c: tuple(v) for c, v in pairs.items()},
    )


def average_precision(flags: Sequence[bool], n_gt: int) -> float:
    """Area under the precision-recall sweep with right-max interpolation.

    ``flags`` are TP/FP indicators in descending-score order.
    """
    if n_gt < 1:
        raise MetricError(f"average precision needs n_gt >= 1, got {n_gt}")
    if not flags:
        return 0.0
    precisions = []
    recalls = []
    tp = 0
    for k, is_tp in enumerate(flags, start=1):
        tp += int(is_tp)
        precisions.append(tp / k)
        recalls.append(tp / n_gt)
    # right-max: interpolated precision at step k is max precision from k on
    interp = list(precisions)
    for k in range(len(interp) - 2, -1, -1):
        interp[k] = max(interp[k], interp[k + 1])
    ap = 0.0
    prev_recall = 0.0
    for k in range(len(flags)):
        ap += (recalls[k] - prev_recall) * interp[k]
        prev_recall = recalls[k]
    return ap


def per_class_ap(match: MatchResult) -> dict[str, float]:
    """AP per class; classes with zero ground truths are skipped."""
    return {
        c: average_precision(match.flags.get(c, ()), n)
        for c, n in match.n_gt.items()
        if n >= 1
    }


def mean_ap(per_class: Mapping[str, float]) -> float:
    """Unweighted mean AP across evaluated classes."""
    if not per_class:
        raise MetricError("mean AP of an empty class map is undefined")
    return sum(per_class.values()) / len(per_class)


def nds(map_value: float, tp_errors: TPErrorSet) -> float:
    """Composite detection score in [0, 1]:
    (5 * mAP + sum over TP errors of (1 - min(1, err))) / 10.
    """
    if not (0.0 <= map_value <= 1.0):
        raise MetricError(f"mAP must be in [0, 1], got {map_value}")
    acc = 5.0 * map_value
    for name, err in tp_errors.values:
        if err < 0:
            raise MetricError(f"TP error {name!r} is negative: {err}")
        acc += 1.0 - min(1.0, err)
    return acc / 10.0


def center_distance(
    box_a: Sequence[float], box_b: Sequence[float]
) -> float:
    ax = (box_a[0] + box_a[2]) / 2.0
    ay = (box_a[1] + box_a[3]) / 2.0
    bx = (box_b[0] + box_b[2]) / 2.0
    by = (box_b[1] + box_b[3]) / 2.0
    return math.hypot(ax - bx, ay - by)


def center_aligned_iou(
    box_a: Sequence[float], box_b: Sequence[float]
) -> float:
    """IoU after translating box_a's center onto box_b's: pure shape/scale error."""
    wa, ha = box_a[2] - box_a[0], box_a[3] - box_a[1]
    wb, hb = box_b[2] - box_b[0], box_b[3] - box_b[1]
    if wa <= 0 or ha <= 0 or wb <= 0 or hb <= 0:
        raise MetricError("degenerate zero-area box")
    inter = min(wa, wb) * min(ha, hb)
    return inter / (wa * ha + wb * hb - inter)


def tp_errors_from_matches(
    pairs: Iterable[tuple[Detection, AnnotationRecord]]
) -> TPErrorSet:
    """Measured translation/scale errors from matched TP pairs.

    Translation = center distance normalized by the ground-truth box
    diagonal; scale = 1 - center-aligned IoU. Orientation, velocity and
    attribute errors are not measurable from 2-D boxes and default to
    1.0 (no score contribution). No pairs at all also yields 1.0s.
    """
    trans, scales = [], []
    for det, gt in pairs:
        diag = math.hypot(gt.bbox[2] - gt.bbox[0], gt.bbox[3] - gt.bbox[1])
        trans.append(center_distance(det.bbox, gt.bbox) / diag)
        scales.append(1.0 - center_aligned_iou(det.bbox, gt.bbox))
    values = {
        "trans_err": sum(trans) / len(trans) if trans else 1.0,
        "scale_err": sum(scales) / len(scales) if scales else 1.0,
    }
    return TPErrorSet.from_mapping(values)


@dataclass(frozen=True)
class PerClassErrors:
    fp: int
    fn: int
    tp: int
    n_detections: int
    n_gt: int
    fp_rate: float  # FP per detection
    fn_rate: float  # FN per ground truth


def per_class_errors(match: MatchResult) -> dict[str, PerClassErrors]:
    """FP/FN counts and rates per class from a match result."""
    out: dict[str, PerClassErrors] = {}
    for c in sorted(set(match.flags) | set(match.n_gt)):
        flags = match.flags.get(c, ())
        tp = sum(flags)
        fp = len(flags) - tp
        fn = match.fn.get(c, 0)
        n_det = len(flags)
        n_gt = match.n_gt.get(c, 0)
        out[c] = PerClassErrors(
            fp=fp,
            fn=fn,
            tp=tp,
            n_detections=n_det,
            n_gt=n_gt,
            fp_rate=fp / n_det if n_det else 0.0,
            fn_rate=fn / n_gt if n_gt else 0.0,
        )
    return out


def write_metrics_csv(
    rows: Sequence[Mapping[str, object]],
    class_names: Sequence[str],
    metric_name: str,
    path: str | Path,
) -> None:
    """Condition-by-class metric table: one row per condition, per-class
    columns, an aggregate column, last column the condition tag."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{metric_name}_{c}" for c in class_names] + ["total", "condition"])
        for row in rows:
            writer.writerow(
                [row.get(c, "") for c in class_names]
                + [row.get("total", ""), row.get("condition", "")]
            )
