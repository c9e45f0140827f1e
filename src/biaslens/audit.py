"""Audit pipeline: dataset analysis -> baseline training -> bias impact
assessment -> mitigation -> reassessment, emitting a reproducible
BiasReport (canonical JSON + text summary) and run-directory artifacts."""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .augment import (
    DEFAULT_KAPPA,
    DEFAULT_TAU_ATT,
    DEFAULT_TAU_REL,
    AugmentRequest,
    SampleRelevanceStat,
    attention_guided_augment_plan,
    materialize_plan,
    rank_off_box,
)
from .behavior import (
    BehaviorTracker,
    balanced_probe,
    class_rows,
    lrp_propagate,
    mass_by_cell,
    relevance_mass_in_box,
    selectivity_score,
    sensitivity_scores,
    unit_class_activations,
)
from .detmetrics import (
    Detection,
    iou,
    match_detections,
    mean_ap,
    nds,
    per_class_ap,
    per_class_errors,
    tp_errors_from_matches,
    write_metrics_csv,
)
from .losses import ClassWeights, compute_class_weights, dynamic_weight_adjust, weighted_ce_from_logits
from .manifest import DatasetManifest, class_counts, compute_distribution
from .nn.models import build_model
from .nn.snapshot import ModelSnapshot
from .nn.train import (
    ArrayDataset, MetricTrace, TrainConfig, evaluate, forward_pass, reject_non_finite, stratified_split, train
)
from .sampling import ResampleMode, default_plan, resample_rows
from .synthetic import SyntheticData

MIN_BOX_EXTENT = 1e-3  # fraction of the frame; keeps decoded boxes non-degenerate
# Fewest classes an audit's FN-rate/selectivity rank correlation can read.
MIN_CLASSES = 3
AUGMENT_NEEDS_VIT = "Augment strategy needs attention data: train with model_kind='tiny_vit'"


class AuditError(ValueError):
    pass


class Strategy(Enum):
    COST_SENSITIVE = "CostSensitive"
    RESAMPLE = "Resample"
    AUGMENT = "Augment"
    COMBINED = "Combined"


@dataclass(frozen=True)
class AuditOptions:
    """Fully-resolved knobs for one audit run. ``seed`` drives the split,
    model initialization, batching and probe selection."""

    model_kind: str = "tiny_cnn"
    train: TrainConfig = TrainConfig()
    seed: int = 0
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    iou_threshold: float = 0.5
    probe_per_class: int = 32
    sensitivity_samples: int = 16
    tau_att: float = DEFAULT_TAU_ATT
    kappa: float = DEFAULT_KAPPA
    tau_rel: float = DEFAULT_TAU_REL
    eta: float = 0.5
    target_recall: float | None = None
    max_recal_iterations: int = 10
    epsilon_gap: float = 0.05
    fn_delta_threshold: float = -0.02
    ap_delta_threshold: float = 0.01
    arch: dict = field(default_factory=dict)
    track_sensitivity: bool = False

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if not (0.0 < self.iou_threshold <= 1.0):
            raise AuditError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        for name, low in (
            ("probe_per_class", 1), ("sensitivity_samples", 1), ("eta", 0), ("max_recal_iterations", 0),
            ("epsilon_gap", 0),
        ):
            if getattr(self, name) < low:
                raise AuditError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.target_recall is not None and not (0.0 <= self.target_recall <= 1.0):
            raise AuditError(f"target_recall must be in [0, 1], got {self.target_recall}")

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            train=self.train.to_json_dict(),
            split=list(self.split),
            arch=dict(sorted(self.arch.items())),
        )
        return out

    def config_hash(self) -> str:
        blob = canonical_json(self.to_json_dict()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class BiasReport:
    """Pre (and optionally post) bias metrics plus the mitigation record."""

    dataset: dict
    options: dict
    seed: int
    config_hash: str
    pre: dict
    correlation: dict
    post: dict | None = None
    mitigation: dict | None = None
    deltas: dict | None = None
    verdicts: dict | None = None

    def to_json_dict(self) -> dict:
        """Every field; the post-mitigation ones only once they are set."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.default is MISSING or getattr(self, f.name) is not None
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "BiasReport":
        """The report of ``to_json_dict``; a missing required field is a
        KeyError, and a key that names no field is ignored."""
        return cls(
            **{f.name: obj[f.name] if f.default is MISSING else obj.get(f.name) for f in fields(cls)}
        )

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict()) + "\n"

    def text_summary(self) -> str:
        lines = [
            "bias audit report",
            f"  seed {self.seed}  config {self.config_hash}",
            f"  samples {self.dataset['total']}",
        ]
        for c in sorted(self.dataset["counts"]):
            lines.append(
                f"  {c}: {self.dataset['counts'][c]} ({self.dataset['percentages'][c]:.2f}%)"
            )
        for name, side in (("pre", self.pre), ("post", self.post)):
            if side is None:
                continue
            lines.append(
                f"{name}-mitigation: accuracy {side['accuracy']:.4f}  mAP {side['map']:.4f}"
                f"  NDS {side['nds']:.4f}  macro-IoU {side['macro_iou']:.4f}"
            )
            for c in sorted(side["per_class"]):
                m = side["per_class"][c]
                lines.append(
                    f"  {c}: AP {m['ap']:.4f} recall {m['recall']:.4f} IoU {m['mean_iou']:.4f}"
                    f" FN-rate {m['fn_rate']:.4f} selectivity {m['selectivity']:.4f}"
                )
        if self.correlation.get("undefined"):
            lines.append("correlation (FN rate vs selectivity): undefined (constant series)")
        else:
            lines.append(
                f"correlation (FN rate vs selectivity): {self.correlation['coefficient']:.4f}"
            )
        if self.verdicts is not None:
            lines.append("verdicts: " + ", ".join(f"{c}={v}" for c, v in sorted(self.verdicts.items())))
        if self.mitigation is not None:
            lines.append(f"mitigation: {self.mitigation['strategy']}")
        return "\n".join(lines) + "\n"


@dataclass
class AuditRun:
    """A report plus everything needed to extend or reproduce it."""

    data: SyntheticData
    options: AuditOptions
    report: BiasReport
    model: object
    snapshot: ModelSnapshot
    trace: object
    behavior: object
    splits: tuple[np.ndarray, np.ndarray, np.ndarray]
    run_dir: Path | None = None


# ---------------------------------------------------------------------------
# detection decoding and evaluation of one model


def decode_center_box(
    box: Sequence[float], image_size: tuple[int, int]
) -> tuple[float, float, float, float]:
    """Normalized (cx, cy, w, h) -> clipped pixel corners, never degenerate."""
    w, h = image_size
    cx, cy, bw, bh = box
    eps_x, eps_y = MIN_BOX_EXTENT * w, MIN_BOX_EXTENT * h
    x1 = max(0.0, cx * w - bw * w / 2)
    x2 = min(float(w), cx * w + bw * w / 2)
    y1 = max(0.0, cy * h - bh * h / 2)
    y2 = min(float(h), cy * h + bh * h / 2)
    if x2 - x1 < eps_x:
        mid = min(max(cx * w, eps_x / 2), w - eps_x / 2)
        x1, x2 = mid - eps_x / 2, mid + eps_x / 2
    if y2 - y1 < eps_y:
        mid = min(max(cy * h, eps_y / 2), h - eps_y / 2)
        y1, y2 = mid - eps_y / 2, mid + eps_y / 2
    return (x1, y1, x2, y2)


def model_detections(model, data: SyntheticData) -> list[Detection]:
    """One detection per sample: argmax class, decoded box, max-prob score."""
    return _detections(evaluate(model, data.dataset), data)


def _detections(stats: dict, data: SyntheticData) -> list[Detection]:
    """Detections read from an ``evaluate`` result over ``data``."""
    if stats["boxes"] is None:
        raise AuditError("model has no box head; detection metrics unavailable")
    dets = []
    for i, record in enumerate(data.manifest.records):
        k = int(stats["preds"][i])
        dets.append(
            Detection(
                sample_id=record.sample_id,
                class_label=data.dataset.class_order[k],
                bbox=decode_center_box(stats["boxes"][i], record.image_size),
                score=float(stats["probs"][i, k]),
            )
        )
    return dets


def _per_class_mean_iou(match) -> dict[str, float]:
    """Matched-detection IoU averaged over ground truths: each missed
    ground truth contributes zero, so the score reflects localization
    quality and coverage together."""
    out: dict[str, float] = {}
    for c, total in sorted(match.n_gt.items()):
        if total == 0:
            continue
        pairs = match.matched_pairs.get(c, ())
        out[c] = float(sum(iou(d.bbox, g.bbox) for d, g in pairs) / total)
    return out


def evaluate_side(model, test: SyntheticData, options: AuditOptions) -> dict:
    """All report metrics for one trained model on the held-out split."""
    class_order = test.dataset.class_order
    stats = evaluate(model, test.dataset)
    detections = _detections(stats, test)
    match = match_detections(detections, test.manifest.records, options.iou_threshold)
    ap = per_class_ap(match)
    errors = per_class_errors(match)
    mean_iou = _per_class_mean_iou(match)
    skipped = sorted(set(match.n_gt) - set(ap))

    all_pairs = [p for pairs in match.matched_pairs.values() for p in pairs]
    overall_nds = nds(mean_ap(ap), tp_errors_from_matches(all_pairs))

    rows = balanced_probe(test.dataset, options.probe_per_class, seed=options.seed)
    sel_sums: dict[str, list[float]] = {c: [] for c in class_order}
    for units in unit_class_activations(stats["unit_means"], test.dataset, rows).values():
        for acts in units.values():
            for c, s in selectivity_score(acts).items():
                sel_sums[c].append(s)
    selectivity = {c: float(np.mean(v)) for c, v in sel_sums.items()}

    last_tap = model.trunk_taps[-1]
    sensitivity: dict[str, float] = {}
    for c, idx in class_rows(test.dataset, rows).items():
        imgs = test.dataset.images[idx[: options.sensitivity_samples]]
        sensitivity[c] = float(np.mean(sensitivity_scores(model, imgs, last_tap)))

    per_class: dict[str, dict] = {}
    for c in class_order:
        err = errors.get(c)
        pairs = match.matched_pairs.get(c, ())
        class_nds = nds(ap[c], tp_errors_from_matches(pairs)) if c in ap else None
        per_class[c] = {
            "ap": ap.get(c),
            "recall": stats["recalls"][c],
            "mean_iou": mean_iou.get(c),
            "fp": err.fp if err else 0,
            "fn": err.fn if err else 0,
            "fp_rate": err.fp_rate if err else 0.0,
            "fn_rate": err.fn_rate if err else 0.0,
            "nds": class_nds,
            "sensitivity": sensitivity[c],
            "selectivity": selectivity[c],
        }

    records = test.manifest.records
    by_condition: dict[str, dict] = {}
    for cond in sorted({r.condition.value for r in records}):
        idx = [i for i, r in enumerate(records) if r.condition.value == cond]
        sub_match = match_detections(
            [detections[i] for i in idx], [records[i] for i in idx], options.iou_threshold
        )
        sub_ap = per_class_ap(sub_match)
        row: dict = {c: sub_ap.get(c) for c in class_order}
        row["total"] = mean_ap(sub_ap) if sub_ap else None
        by_condition[cond] = row

    return {
        "accuracy": stats["accuracy"],
        "map": mean_ap(ap),
        "nds": overall_nds,
        "macro_iou": float(np.mean(list(mean_iou.values()))),
        "per_class": per_class,
        "by_condition": by_condition,
        "skipped_classes": skipped,
    }


# ---------------------------------------------------------------------------
# correlation


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def correlate_errors(
    fn_rates: Mapping[str, float], selectivity: Mapping[str, float]
) -> dict:
    """Rank correlation (ties averaged) between per-class FN rate and
    mean selectivity. Constant series leave the coefficient undefined."""
    classes = sorted(set(fn_rates) & set(selectivity))
    if len(classes) < MIN_CLASSES:
        raise AuditError(f"correlation needs >= {MIN_CLASSES} classes, got {len(classes)}")
    x = [fn_rates[c] for c in classes]
    y = [selectivity[c] for c in classes]
    if len(set(x)) == 1 or len(set(y)) == 1:
        return {"coefficient": None, "undefined": True, "classes": classes}
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    rho = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    return {"coefficient": rho, "undefined": False, "classes": classes}


# ---------------------------------------------------------------------------
# pipeline stages


def _split_data(data: SyntheticData, options: AuditOptions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train, val and test rows of ``data``; each split holds every class."""
    idx = stratified_split(data.dataset.labels, options.split, seed=options.seed)
    for split_name, part in zip(("train", "val", "test"), idx):
        present = set(data.dataset.labels[part].tolist())
        for k, c in enumerate(data.dataset.class_order):
            if k not in present:
                raise AuditError(f"class {c!r} absent from {split_name} split")
    return idx


def build_audit_model(options: AuditOptions, n_classes: int):
    arch = {"kind": options.model_kind, "n_classes": n_classes, **options.arch}
    if options.model_kind == "tiny_vit":
        arch.setdefault("dropout", options.train.dropout)
    return build_model(arch, seed=options.seed)


def fit(
    options: AuditOptions,
    train_set: ArrayDataset,
    weights: ClassWeights | None = None,
    val_set: ArrayDataset | None = None,
    epoch_hook: Callable | None = None,
) -> tuple[object, ModelSnapshot, MetricTrace]:
    """The options' model trained on ``train_set`` with the options' seed,
    by cross-entropy weighted per class by ``weights`` when given, else
    unweighted. ``val_set`` and ``epoch_hook`` are ``train``'s. Returns the
    model, its snapshot and the metric trace."""
    class_order = train_set.class_order
    model = build_audit_model(options, len(class_order))
    loss_fn = None
    if weights is not None:
        loss_fn = partial(weighted_ce_from_logits, weights=weights.as_vector(class_order))
    snapshot, trace = train(
        model, train_set, replace(options.train, seed=options.seed),
        loss_fn=loss_fn, val_set=val_set, epoch_hook=epoch_hook,
    )
    return model, snapshot, trace


def _train_and_report(
    data: SyntheticData,
    options: AuditOptions,
    splits: tuple[np.ndarray, np.ndarray, np.ndarray],
    train_d: SyntheticData,
    weights: ClassWeights | None,
    report_of: Callable[[dict], BiasReport],
    out_dir: str | Path | None,
    suffix: str = "",
) -> AuditRun:
    """Train on ``train_d`` with the val split's probe, evaluate on the test
    split, make the report of those metrics and write the run's artifacts."""
    val_d, test_d = (data.subset(rows) for rows in splits[1:])
    tracker = BehaviorTracker(
        val_d.dataset,
        balanced_probe(val_d.dataset, options.probe_per_class, seed=options.seed),
        with_sensitivity=options.track_sensitivity,
        sensitivity_samples=options.sensitivity_samples,
    )
    model, snapshot, trace = fit(options, train_d.dataset, weights, val_d.dataset, tracker.observe)
    report = report_of(evaluate_side(model, test_d, options))
    run = AuditRun(data, options, report, model, snapshot, trace, tracker.scores, splits)
    if out_dir is not None:
        run.run_dir = write_run_artifacts(run, out_dir, suffix)
    return run


def run_audit(
    data: SyntheticData, options: AuditOptions, out_dir: str | Path | None = None
) -> AuditRun:
    """Train the unweighted baseline and assemble the pre-mitigation report."""
    n_classes = len(data.dataset.class_order)
    if n_classes < MIN_CLASSES:
        raise AuditError(
            f"an audit needs >= {MIN_CLASSES} classes, got {n_classes}: its report "
            "rank-correlates per-class FN rate with selectivity"
        )
    dist = compute_distribution(data.manifest)
    splits = _split_data(data, options)

    def report_of(pre: dict) -> BiasReport:
        return BiasReport(
            dataset=dist.to_json_dict(),
            options=options.to_json_dict(),
            seed=options.seed,
            config_hash=options.config_hash(),
            pre=pre,
            correlation=correlate_errors(
                {c: m["fn_rate"] for c, m in pre["per_class"].items()},
                {c: m["selectivity"] for c, m in pre["per_class"].items()},
            ),
        )

    return _train_and_report(data, options, splits, data.subset(splits[0]), None, report_of, out_dir)


def attention_augmentation(model, data: SyntheticData, tau_att: float, kappa: float):
    """The attention-guided augmentation of ``data`` by a ViT: one light
    pass over its images, their patch mass by (class, condition) cell, the
    plan of the underattended cells, and that plan's new samples. Returns
    the plan, the new records and images, and the pass."""
    if getattr(model, "kind", None) != "tiny_vit":
        raise AuditError(AUGMENT_NEEDS_VIT)
    records = data.manifest.records
    inference = forward_pass(model, data.dataset.images)
    masses = mass_by_cell(model, inference.patch_mass, records)
    plan = attention_guided_augment_plan(masses, compute_distribution(data.manifest), tau_att, kappa)
    new_records, new_images = materialize_plan(plan, records, data.dataset.images)
    return plan, new_records, new_images, inference


def _lrp_informed_rows(model, train_d: SyntheticData, probs: np.ndarray, tau_rel: float) -> list[int]:
    """Rows of misclassified training samples whose relevance misses the
    box. ``probs`` are the training split's; only the misclassified rows
    are forwarded again, keeping their per-layer attention."""
    preds = probs.argmax(axis=1)
    rows = np.flatnonzero(preds != train_d.dataset.labels)
    if not len(rows):
        return []
    attention = forward_pass(model, train_d.dataset.images[rows], attention=True).attention
    stats = []
    for j, i in enumerate(rows):
        record = train_d.manifest.records[i]
        rmap = lrp_propagate(attention, sample=j, grid=model.grid)
        stats.append(
            SampleRelevanceStat(
                in_box_fraction=relevance_mass_in_box(rmap, model.patch, record.bbox),
                loss=float(-np.log(max(probs[i, train_d.dataset.labels[i]], 1e-12))),
            )
        )
    return [int(rows[j]) for j in rank_off_box(stats, tau_rel)]


def _augment_training(
    run: AuditRun, train_d: SyntheticData
) -> tuple[SyntheticData, list[AugmentRequest], list[str]]:
    """Attention-guided augmentation + LRP-informed duplication (ViT only).
    The relevance ranking reads the probabilities of the augmentation's
    pass and forwards the misclassified rows again for their per-layer
    attention."""
    options = run.options
    ds = train_d.dataset
    records = train_d.manifest.records
    plan, new_records, new_images, inference = attention_augmentation(
        run.model, train_d, options.tau_att, options.kappa
    )
    dup_rows = _lrp_informed_rows(run.model, train_d, inference.probs, options.tau_rel)
    for n, i in enumerate(dup_rows):
        new_records.append(
            replace(records[i], sample_id=f"{records[i].sample_id}-rel{n}", image_ref=None)
        )
        new_images.append(ds.images[i, 0])

    augmented = SyntheticData.from_records(
        DatasetManifest(
            records=(*records, *new_records),
            taxonomy=train_d.manifest.taxonomy,
            seed=train_d.manifest.seed,
        ),
        np.concatenate([ds.images, np.reshape(new_images, (-1, *ds.images.shape[1:]))]),
        ds.class_order,
    )
    return augmented, plan, [records[i].sample_id for i in dup_rows]


def run_mitigation(
    run: AuditRun, strategy: Strategy, out_dir: str | Path | None = None
) -> AuditRun:
    """Apply a mitigation strategy, retrain with the same seed/config,
    and extend the report with post metrics, deltas, and verdicts.
    Combined is Resample followed by CostSensitive weights of the
    resampled set."""
    options = run.options
    train_d = run.data.subset(run.splits[0])
    weights: ClassWeights | None = None
    mitigation: dict = {"strategy": strategy.value}
    if strategy in (Strategy.RESAMPLE, Strategy.COMBINED):
        plan = default_plan(class_counts(train_d.manifest), ResampleMode.COMBINED, options.seed)
        train_d = train_d.subset(resample_rows(train_d.manifest, plan))
        mitigation["resample_plan"] = plan.to_json_dict()
    if strategy in (Strategy.COST_SENSITIVE, Strategy.COMBINED):
        weights = compute_class_weights(compute_distribution(train_d.manifest))
        mitigation["weights_history"] = [weights.to_json_dict()]
    if strategy is Strategy.AUGMENT:
        augmented, plan_requests, dup_ids = _augment_training(run, train_d)
        mitigation["augment_plan"] = [r.to_json_dict() for r in plan_requests]
        mitigation["relevance_duplicated"] = dup_ids
        mitigation["added_samples"] = len(augmented.dataset) - len(train_d.dataset)
        train_d = augmented

    def report_of(post: dict) -> BiasReport:
        deltas: dict[str, dict] = {}
        verdicts: dict[str, str] = {}
        for c, pre_m in run.report.pre["per_class"].items():
            post_m = post["per_class"][c]
            d_fn = post_m["fn_rate"] - pre_m["fn_rate"]
            d_ap = (post_m["ap"] or 0.0) - (pre_m["ap"] or 0.0)
            deltas[c] = {
                "fn_rate": d_fn,
                "ap": d_ap,
                "recall": post_m["recall"] - pre_m["recall"],
                "mean_iou": (post_m["mean_iou"] or 0.0) - (pre_m["mean_iou"] or 0.0),
            }
            if d_fn <= options.fn_delta_threshold and d_ap >= options.ap_delta_threshold:
                verdicts[c] = "improved"
            elif d_fn >= -options.fn_delta_threshold or d_ap <= -options.ap_delta_threshold:
                verdicts[c] = "regressed"
            else:
                verdicts[c] = "unchanged"
        return replace(run.report, post=post, mitigation=mitigation, deltas=deltas, verdicts=verdicts)

    return _train_and_report(
        run.data, options, run.splits, train_d, weights, report_of, out_dir, strategy.value.lower()
    )


# ---------------------------------------------------------------------------
# recalibration


def recalibration_loop(
    data: SyntheticData, options: AuditOptions
) -> tuple[list[ClassWeights], list[dict]]:
    """Retrain with class weights adjusted toward the recall target until
    a training's validation recall gap is below ``epsilon_gap`` or the
    ``max_recal_iterations``-th adjustment has been trained. Returns the
    weight history, which starts at the training split's class weights and
    ends at the last trained weights, and one {iteration, gap, recalls}
    row per training: row i trained ``history[i]``."""
    train_d, val_d = (data.subset(rows) for rows in _split_data(data, options)[:2])
    history = [compute_class_weights(compute_distribution(train_d.manifest))]
    rows: list[dict] = []
    while True:
        _model, _snapshot, trace = fit(options, train_d.dataset, history[-1], val_d.dataset)
        recalls = trace.final_recalls()
        for c, v in recalls.items():
            if not np.isfinite(v):
                raise AuditError(f"non-finite validation metric for class {c!r}: {v}")
        gap = max(recalls.values()) - min(recalls.values())
        rows.append({"iteration": len(history) - 1, "gap": gap, "recalls": recalls})
        if gap < options.epsilon_gap or len(history) > options.max_recal_iterations:
            return history, rows
        target = options.target_recall if options.target_recall is not None else max(recalls.values())
        history.append(dynamic_weight_adjust(history[-1], recalls, target, options.eta))


# ---------------------------------------------------------------------------
# artifacts


def write_run_artifacts(run: AuditRun, out_dir: str | Path, suffix: str = "") -> Path:
    """Write report JSON/text, traces, behavior CSV, snapshot, and the
    per-condition AP table under a seed+config-hash run directory."""
    tag = f"run-s{run.options.seed}-{run.options.config_hash()}"
    if suffix:
        tag += f"-{suffix}"
    run_dir = Path(out_dir) / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.json").write_text(run.report.to_json(), encoding="utf-8")
    (run_dir / "report.txt").write_text(run.report.text_summary(), encoding="utf-8")
    (run_dir / "config.json").write_text(
        canonical_json(run.options.to_json_dict()) + "\n", encoding="utf-8"
    )
    run.trace.write_csv(run_dir / "trace.csv")
    run.behavior.write_csv(run_dir / "behavior.csv")
    run.snapshot.save(run_dir / "model.snapshot")
    side = run.report.post if run.report.post is not None else run.report.pre
    class_names = list(run.data.dataset.class_order)
    rows = [
        {**{c: v for c, v in row.items() if c != "total"}, "total": row["total"], "condition": cond}
        for cond, row in sorted(side["by_condition"].items())
    ]
    write_metrics_csv(rows, class_names, "ap", run_dir / "condition_ap.csv")
    return run_dir
