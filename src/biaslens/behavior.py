"""Model-behavior bias metrics: neuron sensitivity and selectivity,
per-epoch tracking, attention extraction and aggregation, and relevance
propagation through self-attention."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .manifest import AnnotationRecord
from .nn.snapshot import ModelSnapshot, model_from_snapshot
from .nn.train import INFERENCE_CHUNK, ArrayDataset, forward_pass
from .pgm import write_pgm

_log = logging.getLogger(__name__)


class BehaviorError(ValueError):
    pass


class UnsupportedArchitectureError(BehaviorError):
    pass


# ---------------------------------------------------------------------------
# sensitivity / selectivity


def unit_activation_matrix(
    model, images: np.ndarray, batch_size: int = INFERENCE_CHUNK
) -> dict[str, np.ndarray]:
    """Per-sample mean activation of every unit at every trunk tap, from
    one batched pass.

    Units are conv channels (spatial mean) or embedding dims (patch
    mean); each tap maps to shape (n_samples, n_units).
    """
    return forward_pass(model, images, batch_size).unit_means


def sensitivity_scores(model, images: np.ndarray, tap: str) -> np.ndarray:
    """Per unit of ``tap``: mean over samples of mean |d activation / d
    input pixel|.

    The probed activation is the unit's spatial (or patch) mean. One
    forward fills the layer caches, and ``model.unit_input_grads`` yields
    every live unit's input gradient from them: TinyCNN by an exact
    one-channel kernel, TinyViT by one ``backward_from_tap`` per unit. The
    caches are released at the end. A dead unit scores 0; one warning per
    call lists the dead units. When the model's taps are rectified, a unit
    that reads 0 on every sample is dead without a backward.
    """
    if images.shape[0] == 0:
        raise BehaviorError("sensitivity needs a non-empty sample set")
    act = dict(model.forward(images, train=False).trunk)[tap]
    units = np.moveaxis(act, 2 if act.ndim == 3 else 1, 0)
    # NaN counts as live.
    live = [u for u, a in enumerate(units) if not model.rectified_taps or a.any()]
    scores = np.zeros(len(units))
    for unit, grad in zip(live, model.unit_input_grads(tap, live)):
        scores[unit] = np.abs(grad.reshape(grad.shape[0], -1)).mean(axis=1).mean()
    model.release()
    dead = np.flatnonzero(scores == 0.0).tolist()
    if dead:
        _log.warning("units %s at tap %r are dead (zero gradient path)", dead, tap)
    return scores


def sensitivity_score(model, images: np.ndarray, tap: str, unit: int) -> float:
    """One unit's entry of :func:`sensitivity_scores`."""
    return float(sensitivity_scores(model, images, tap)[unit])


def selectivity_score(activations: Mapping[str, float]) -> dict[str, float]:
    """Per class: (a_c - a_avg) / max(a_c, a_avg); the average includes
    the target class. When the max is not positive the score is 0.

    Scores are clipped to [-1, 1]: the ratio stays inside that interval
    for non-negative activations (ReLU features) but can escape it when
    activations go negative (e.g. transformer embedding means).
    """
    if len(activations) < 2:
        raise BehaviorError("selectivity needs at least two classes")
    a_avg = sum(activations.values()) / len(activations)
    out: dict[str, float] = {}
    for c, a_c in activations.items():
        m = max(a_c, a_avg)
        s = 0.0 if m <= 0 else (a_c - a_avg) / m
        out[c] = min(1.0, max(-1.0, s))
    return out


def class_rows(dataset: ArrayDataset, rows: np.ndarray) -> dict[str, np.ndarray]:
    """Class -> the probe ``rows`` of ``dataset`` that hold it; none may be empty."""
    out = {name: rows[dataset.labels[rows] == k] for k, name in enumerate(dataset.class_order)}
    for name, idx in out.items():
        if not idx.size:
            raise BehaviorError(f"probe set has no samples of class {name!r}")
    return out


def unit_class_activations(
    unit_means: Mapping[str, np.ndarray], dataset: ArrayDataset, rows: np.ndarray
) -> dict[str, dict[int, dict[str, float]]]:
    """tap -> unit -> class -> mean activation over the probe ``rows`` of
    ``dataset``, read from the per-tap (N, units) means of a pass over it."""
    by_class = class_rows(dataset, rows)
    if any(len(acts) != len(dataset) for acts in unit_means.values()):
        raise BehaviorError(f"the pass does not hold the dataset's {len(dataset)} rows")
    return {
        tap: {
            unit: {name: float(acts[idx, unit].mean()) for name, idx in by_class.items()}
            for unit in range(acts.shape[1])
        }
        for tap, acts in unit_means.items()
    }


# ---------------------------------------------------------------------------
# per-epoch tracking


@dataclass(frozen=True)
class BehaviorRecord:
    epoch: int
    layer: str
    neuron: int
    class_label: str
    sensitivity: float
    selectivity: float


@dataclass
class BehaviorScores:
    """Time series of per-(layer, neuron, class) scores across epochs."""

    records: list[BehaviorRecord] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "layer", "neuron", "class", "sensitivity", "selectivity"])
            for r in self.records:
                writer.writerow(
                    [r.epoch, r.layer, r.neuron, r.class_label, r.sensitivity, r.selectivity]
                )


class BehaviorTracker:
    """Collects selectivity (and optionally sensitivity) per epoch on the
    fixed probe ``rows`` of ``dataset``. ``observe`` is the epoch hook of a
    ``train`` that evaluates ``dataset``, and reads that pass's unit means."""

    def __init__(
        self,
        dataset: ArrayDataset,
        rows: np.ndarray,
        with_sensitivity: bool = False,
        sensitivity_samples: int = 16,
    ) -> None:
        self.dataset, self.rows = dataset, rows
        self.by_class = class_rows(dataset, rows)  # rejects a class the probe lacks
        self.with_sensitivity = with_sensitivity
        self.sensitivity_samples = sensitivity_samples
        self.scores = BehaviorScores()

    def observe(self, model, epoch: int, stats: dict) -> dict[str, float]:
        class_means: dict[str, list[float]] = {c: [] for c in self.by_class}
        per_tap = unit_class_activations(stats["unit_means"], self.dataset, self.rows)
        for tap, units in per_tap.items():
            sens = {c: np.full(len(units), np.nan) for c in class_means}
            if self.with_sensitivity:
                for c, idx in self.by_class.items():
                    imgs = self.dataset.images[idx[: self.sensitivity_samples]]
                    sens[c] = sensitivity_scores(model, imgs, tap)
            for unit, acts in units.items():
                for c, s in selectivity_score(acts).items():
                    self.scores.records.append(
                        BehaviorRecord(epoch, tap, unit, c, float(sens[c][unit]), s)
                    )
                    class_means[c].append(s)
        return {f"selectivity_{c}": sum(v) / len(v) for c, v in class_means.items() if v}


# ---------------------------------------------------------------------------
# attention extraction


@dataclass
class AttentionSummary:
    """Cached attention for a batch: per-layer (N, heads, P, P) weights,
    final-layer mean-query mass per sample, and per-class/condition mean
    maps (entrywise means of row-stochastic matrices)."""

    patch: int
    grid: tuple[int, int]
    per_layer: tuple[np.ndarray, ...]
    mean_by_class: dict[str, np.ndarray]
    mean_by_condition: dict[str, np.ndarray]
    patch_mass: np.ndarray  # (N, P): head-averaged mean-query distribution


def _mass_in_box(vit, mass: np.ndarray, record: AnnotationRecord) -> float:
    """Share of one sample's patch mass (P,) on patches centered in the
    record's box. ``vit`` is the model or its summary: anything with its
    patch ``grid`` and ``patch`` side, which tile the image."""
    (gh, gw), patch = vit.grid, vit.patch
    if tuple(record.image_size) != (gw * patch, gh * patch):
        raise BehaviorError(
            f"record frame {record.image_size} does not match summary "
            f"image {(gw * patch, gh * patch)}"
        )
    mask = patch_centers_in_box(vit.grid, patch, record.bbox)
    return float(mass[mask].sum())


def patch_centers_in_box(
    grid: tuple[int, int], patch: int, bbox: Sequence[float]
) -> np.ndarray:
    """Boolean mask (row-major over the patch grid) of patches whose
    centers fall inside the box."""
    gh, gw = grid
    x1, y1, x2, y2 = bbox
    rows, cols = np.mgrid[0:gh, 0:gw]
    cx = (cols + 0.5) * patch
    cy = (rows + 0.5) * patch
    return ((cx >= x1) & (cx <= x2) & (cy >= y1) & (cy <= y2)).reshape(-1)


def extract_attention(
    model_or_snapshot,
    dataset: ArrayDataset,
    conditions: Sequence[str] | None = None,
) -> AttentionSummary:
    """Run the batch through a ViT and collect per-layer/head attention
    plus class- and condition-mean maps from the final layer."""
    model = (
        model_from_snapshot(model_or_snapshot)
        if isinstance(model_or_snapshot, ModelSnapshot)
        else model_or_snapshot
    )
    if getattr(model, "kind", None) != "tiny_vit":
        raise UnsupportedArchitectureError(
            f"attention extraction needs a tiny_vit model, got {getattr(model, 'kind', type(model).__name__)!r}"
        )
    inference = forward_pass(model, dataset.images, attention=True)
    if inference.attention is None:
        raise BehaviorError("model forward produced no attention caches")
    class_labels = tuple(dataset.class_order[k] for k in dataset.labels)
    final_mean_heads = inference.attention[-1].mean(axis=1)  # (N, P, P)

    def _group_mean(key: Sequence[str]) -> dict[str, np.ndarray]:
        out = {}
        for g in sorted(set(key)):
            idx = [i for i, v in enumerate(key) if v == g]
            out[g] = final_mean_heads[idx].mean(axis=0)
        return out

    return AttentionSummary(
        patch=model.patch,
        grid=model.grid,
        per_layer=inference.attention,
        mean_by_class=_group_mean(class_labels),
        mean_by_condition=_group_mean(tuple(conditions)) if conditions is not None else {},
        patch_mass=inference.patch_mass,
    )


def mass_by_cell(
    vit, patch_mass: np.ndarray, records: Iterable[AnnotationRecord]
) -> dict[tuple[str, object], float]:
    """Mean attention-on-ground-truth per (class_label, condition) cell,
    in the shape the augmentation planner consumes: the share of each
    sample's (P,) row of ``patch_mass`` (an inference pass's or a
    summary's) on patches centered in its box. Record i is row i;
    ``vit`` as in ``_mass_in_box``."""
    records = tuple(records)
    if len(records) != len(patch_mass):
        raise BehaviorError(f"{len(records)} records for {len(patch_mass)} summarized samples")
    sums: dict[tuple[str, object], list[float]] = {}
    for mass, record in zip(patch_mass, records):
        key = (record.class_label, record.condition)
        sums.setdefault(key, []).append(_mass_in_box(vit, mass, record))
    return {k: sum(v) / len(v) for k, v in sums.items()}


# ---------------------------------------------------------------------------
# relevance propagation


@dataclass(frozen=True)
class RelevanceMap:
    """Relevance over patches per propagation step, outermost first:
    index 0 is the pooled-output initialization, the last entry is the
    input-level patch relevance."""

    class_index: int
    per_layer: tuple[np.ndarray, ...]
    grid: tuple[int, int]

    @property
    def final(self) -> np.ndarray:
        return self.per_layer[-1]

    def as_grid(self) -> np.ndarray:
        return self.final.reshape(self.grid)


def lrp_step(attention: np.ndarray, relevance: np.ndarray) -> np.ndarray:
    """One propagation step: R_j = sum_i A_ij R_i for a row-stochastic A."""
    a = np.asarray(attention, dtype=np.float64)
    r = np.asarray(relevance, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != r.shape[0]:
        raise BehaviorError(f"attention {a.shape} and relevance {r.shape} disagree")
    return a.T @ r


def lrp_propagate(
    attention_layers: Sequence[np.ndarray] | None,
    class_index: int,
    sample: int = 0,
    grid: tuple[int, int] | None = None,
) -> RelevanceMap:
    """Propagate relevance for one sample from the pooled output down
    through every attention layer (heads averaged uniformly).

    ``attention_layers`` is the per-layer cache from a forward pass:
    each entry (N, heads, P, P) or (heads, P, P). The classifier's unit
    relevance reaches patches uniformly through mean pooling, then each
    layer redistributes it with R_j = sum_i A_ij R_i; the total is
    conserved at every step.
    """
    if attention_layers is None or len(attention_layers) == 0:
        raise BehaviorError("no attention caches: run a ViT forward pass first")
    mats = []
    for a in attention_layers:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 4:
            a = a[sample]
        if a.ndim != 3:
            raise BehaviorError(f"expected (heads, P, P) attention, got shape {a.shape}")
        mats.append(a.mean(axis=0))
    p = mats[0].shape[0]
    if grid is None:
        side = int(round(p**0.5))
        grid = (side, p // side)
    relevance = np.full(p, 1.0 / p)
    per_layer = [relevance]
    for a in reversed(mats):
        relevance = lrp_step(a, relevance)
        per_layer.append(relevance)
    return RelevanceMap(class_index=class_index, per_layer=tuple(per_layer), grid=grid)


def relevance_mass_in_box(
    rmap: RelevanceMap, patch: int, bbox: Sequence[float]
) -> float:
    """Fraction of input-level relevance on patches centered in the box."""
    mask = patch_centers_in_box(rmap.grid, patch, bbox)
    total = float(rmap.final.sum())
    if total <= 0:
        return 0.0
    return float(rmap.final[mask].sum() / total)


# ---------------------------------------------------------------------------
# heatmap export


def export_heatmap(heatmap: np.ndarray, path: str | Path) -> tuple[Path, Path]:
    """Min-max normalize a matrix to 0..255 and write `<path>.pgm` plus
    `<path>.csv`; a constant map maps to uniform 128."""
    m = np.asarray(heatmap, dtype=np.float64)
    if m.ndim != 2:
        raise BehaviorError(f"heatmap must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise BehaviorError("heatmap contains non-finite entries")
    lo, hi = m.min(), m.max()
    if hi > lo:
        levels = np.rint((m - lo) / (hi - lo) * 255.0).astype(np.int64)
    else:
        levels = np.full(m.shape, 128, dtype=np.int64)

    base = Path(path)
    if base.suffix in {".pgm", ".csv"}:
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    pgm_path = base.with_suffix(".pgm")
    csv_path = base.with_suffix(".csv")
    write_pgm(levels / 255.0, pgm_path)
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in levels:
            writer.writerow([int(v) for v in row])
    return pgm_path, csv_path


def balanced_probe(dataset: ArrayDataset, per_class: int, seed: int = 0) -> np.ndarray:
    """Sorted rows of a seeded probe with ``per_class`` samples per class."""
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for k, name in enumerate(dataset.class_order):
        idx = np.flatnonzero(dataset.labels == k)
        if idx.size == 0:
            raise BehaviorError(f"dataset has no samples of class {name!r}")
        take = min(per_class, idx.size)
        chosen.extend(rng.choice(idx, size=take, replace=False))
    return np.array(sorted(chosen), dtype=np.int64)
