"""Seeded desk-scale detection dataset: one class-distinct shape (disk,
bar, or cross) per noise-background grayscale image, with exact boxes
and capture-condition corruptions (darkening, blur/speckle, rotation)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .augment import AugmentKind, AugmentOp, transform_bbox
from .manifest import AnnotationRecord, Condition, DatasetManifest, ManifestError, write_manifest
from .nn.train import ArrayDataset
from .pgm import read_pgm, write_pgm

DEFAULT_CLASSES = ("disk", "bar", "cross")
DEFAULT_CONDITION_MIX: dict[Condition, float] = {
    Condition.NORMAL: 0.6,
    Condition.NIGHT: 0.1,
    Condition.WEATHER: 0.1,
    Condition.ROTATED: 0.1,
    Condition.MIXED: 0.1,
}


class SyntheticError(ValueError):
    pass


MIN_IMAGE_SIDE = 12  # smallest frame where every shape keeps a visible interior


def normalize_box_to_center_form(
    bbox: Sequence[float], image_size: tuple[int, int]
) -> np.ndarray:
    """(x1, y1, x2, y2) pixels -> (cx, cy, w, h) fractions of the frame.

    This is the box-head target parameterization: every component lies
    in (0, 1), so a sigmoid regressor can always produce a valid box.
    """
    x1, y1, x2, y2 = bbox
    w, h = image_size
    return np.array(
        [(x1 + x2) / 2 / w, (y1 + y2) / 2 / h, (x2 - x1) / w, (y2 - y1) / h]
    )


@dataclass(frozen=True)
class SyntheticConfig:
    n_samples: int = 600
    shares: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
    image_hw: tuple[int, int] = (32, 32)
    seed: int = 0
    condition_mix: Mapping[Condition, float] = field(
        default_factory=lambda: dict(DEFAULT_CONDITION_MIX)
    )
    class_names: tuple[str, ...] = DEFAULT_CLASSES

    def __post_init__(self) -> None:
        if len(self.shares) != len(self.class_names):
            raise SyntheticError(
                f"{len(self.shares)} shares for {len(self.class_names)} classes"
            )
        if any(s <= 0 for s in self.shares) or abs(sum(self.shares) - 1.0) > 1e-9:
            raise SyntheticError(f"shares must be positive and sum to 1, got {self.shares}")
        if self.n_samples < len(self.class_names):
            raise SyntheticError("need at least one sample per class")
        if min(self.image_hw) < MIN_IMAGE_SIDE:
            raise SyntheticError(
                f"image_hw {self.image_hw} too small; shapes need at least "
                f"{MIN_IMAGE_SIDE}px per side"
            )
        mix_total = sum(self.condition_mix.values())
        if abs(mix_total - 1.0) > 1e-9:
            raise SyntheticError(f"condition mix sums to {mix_total}, expected 1")


@dataclass(frozen=True)
class SyntheticData:
    """An in-memory dataset plus its manifest: record i is row i."""

    manifest: DatasetManifest
    dataset: ArrayDataset

    @classmethod
    def from_records(
        cls, manifest: DatasetManifest, images: np.ndarray, class_order: Sequence[str]
    ) -> "SyntheticData":
        """Pair each record with its image row; labels, center-form boxes
        and sample ids are read from the records."""
        index = {c: k for k, c in enumerate(class_order)}
        records = manifest.records
        dataset = ArrayDataset(
            images=images,
            labels=np.array([index[r.class_label] for r in records], dtype=np.int64),
            class_order=tuple(class_order),
            boxes=np.reshape(
                [normalize_box_to_center_form(r.bbox, r.image_size) for r in records], (-1, 4)
            ),
            sample_ids=tuple(r.sample_id for r in records),
        )
        return cls(manifest=manifest, dataset=dataset)

    def subset(self, indices: np.ndarray) -> "SyntheticData":
        return SyntheticData(
            manifest=self.manifest.subset(indices), dataset=self.dataset.subset(indices)
        )


def parse_share_spec(spec: str, n_classes: int = 3) -> tuple[float, ...]:
    """Parse a share string: "balanced" or e.g. "imbalanced-90-5-5"."""
    spec = spec.strip().lower()
    if spec == "balanced":
        return tuple(1.0 / n_classes for _ in range(n_classes))
    parts = spec.split("-")
    if parts and parts[0] in {"imbalanced", "shares"}:
        parts = parts[1:]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise SyntheticError(f"cannot parse share spec {spec!r}") from None
    if len(values) != n_classes:
        raise SyntheticError(f"share spec {spec!r} has {len(values)} parts, need {n_classes}")
    total = sum(values)
    if total <= 0:
        raise SyntheticError(f"share spec {spec!r} sums to {total}")
    return tuple(v / total for v in values)


def class_counts(n: int, shares: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of n over shares; every class
    gets at least one sample."""
    raw = [n * s for s in shares]
    counts = [int(math.floor(r)) for r in raw]
    remainders = sorted(
        range(len(shares)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in range(n - sum(counts)):
        counts[remainders[i % len(shares)]] += 1
    for i, c in enumerate(counts):
        if c == 0:
            counts[i] = 1
            counts[counts.index(max(counts))] -= 1
    return counts


def _render_shape(
    rng: np.random.Generator, class_name: str, hw: tuple[int, int]
) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    h, w = hw
    m = float(min(h, w))
    img = rng.uniform(0.05, 0.25, size=(h, w))
    ys, xs = np.mgrid[0:h, 0:w]
    cx_grid = xs + 0.5
    cy_grid = ys + 0.5
    bright = rng.uniform(0.85, 1.0)

    # Size ranges scale with the frame; half-widths stay above 0.55px so
    # every shape intersects at least one pixel-center row and column.
    if class_name == "disk":
        r = rng.uniform(m / 10.0, m / 5.0)
        cx = rng.uniform(r + 1.0, w - r - 1.0)
        cy = rng.uniform(r + 1.0, h - r - 1.0)
        mask = (cx_grid - cx) ** 2 + (cy_grid - cy) ** 2 <= r * r
        bbox = (cx - r, cy - r, cx + r, cy + r)
    elif class_name == "bar":
        hx = rng.uniform(max(0.6, m / 32.0), max(1.2, m / 16.0))
        hy = rng.uniform(m / 8.0, m / 4.0)
        cx = rng.uniform(hx + 1.0, w - hx - 1.0)
        cy = rng.uniform(hy + 1.0, h - hy - 1.0)
        mask = (np.abs(cx_grid - cx) <= hx) & (np.abs(cy_grid - cy) <= hy)
        bbox = (cx - hx, cy - hy, cx + hx, cy + hy)
    elif class_name == "cross":
        a = rng.uniform(m / 8.0, m / 5.0)
        t = rng.uniform(0.6, max(0.9, m / 24.0))
        cx = rng.uniform(a + 1.0, w - a - 1.0)
        cy = rng.uniform(a + 1.0, h - a - 1.0)
        mask = ((np.abs(cx_grid - cx) <= a) & (np.abs(cy_grid - cy) <= t)) | (
            (np.abs(cx_grid - cx) <= t) & (np.abs(cy_grid - cy) <= a)
        )
        bbox = (cx - a, cy - a, cx + a, cy + a)
    else:
        raise SyntheticError(f"no shape defined for class {class_name!r}")
    img = np.where(mask, bright, img)
    return img, bbox


def _box_blur3(img: np.ndarray) -> np.ndarray:
    """3-wide mean along each axis in turn, edges replicated: bit for bit
    ``scipy.ndimage.uniform_filter(img, size=3, mode="nearest")``.

    Each axis is a running sum (the first window from 0.0, then add the
    sample entering and subtract the one leaving) divided by 3 afterwards,
    which is the order of operations that makes the bits agree.
    """
    out = img
    for axis in range(img.ndim):
        pad = [(1, 1) if a == axis else (0, 0) for a in range(img.ndim)]
        p = np.moveaxis(np.pad(out, pad, mode="edge"), axis, -1)
        steps = np.empty(p.shape[:-1] + (p.shape[-1] - 2,))
        steps[..., 0] = 0.0 + p[..., 0] + p[..., 1] + p[..., 2]
        steps[..., 1:] = p[..., 3:] - p[..., :-3]
        out = np.moveaxis(np.cumsum(steps, axis=-1) / 3.0, -1, axis)
    return out


def _apply_condition(
    rng: np.random.Generator,
    condition: Condition,
    img: np.ndarray,
    bbox: tuple[float, float, float, float],
    hw: tuple[int, int],
) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    h, w = hw
    if condition is Condition.NORMAL:
        return img, bbox
    if condition is Condition.NIGHT:
        out = img * 0.35 + rng.normal(0.0, 0.02, size=img.shape)
        return np.clip(out, 0.0, 1.0), bbox
    if condition is Condition.WEATHER:
        out = _box_blur3(img)
        out = out + rng.normal(0.0, 0.08, size=img.shape)
        return np.clip(out, 0.0, 1.0), bbox
    if condition in (Condition.ROTATED, Condition.MIXED):
        if h != w:
            raise SyntheticError("rotated conditions need square images")
        out = np.rot90(img, k=-1)
        new_bbox, _size = transform_bbox(AugmentOp(AugmentKind.ROT90CW), bbox, (w, h))
        if condition is Condition.MIXED:
            out = np.clip(out * 0.5 + rng.normal(0.0, 0.05, size=out.shape), 0.0, 1.0)
        return np.ascontiguousarray(out), new_bbox
    raise SyntheticError(f"unhandled condition {condition}")


def generate_synthetic(config: SyntheticConfig) -> SyntheticData:
    """Deterministic dataset of single-shape images with exact boxes."""
    rng = np.random.default_rng(config.seed)
    h, w = config.image_hw
    counts = class_counts(config.n_samples, config.shares)
    label_seq = np.repeat(np.arange(len(config.class_names)), counts)
    rng.shuffle(label_seq)

    cond_names = sorted(config.condition_mix, key=lambda c: c.value)
    cond_probs = np.array([config.condition_mix[c] for c in cond_names])

    images = np.empty((config.n_samples, 1, h, w))
    records = []
    for i, k in enumerate(label_seq):
        class_name = config.class_names[int(k)]
        condition = cond_names[int(rng.choice(len(cond_names), p=cond_probs))]
        img, bbox = _render_shape(rng, class_name, (h, w))
        img, bbox = _apply_condition(rng, condition, img, bbox, (h, w))
        records.append(
            AnnotationRecord(
                sample_id=f"syn-{config.seed}-{i:05d}",
                class_label=class_name,
                bbox=bbox,
                condition=condition,
                image_size=(w, h),
            )
        )
        images[i, 0] = img

    manifest = DatasetManifest(
        records=tuple(records), taxonomy=frozenset(config.class_names), seed=config.seed
    )
    return SyntheticData.from_records(manifest, images, config.class_names)


def write_dataset(
    manifest: DatasetManifest,
    images: Sequence[np.ndarray],
    out_dir: str | Path,
    name: str = "manifest.jsonl",
) -> Path:
    """Write one (H, W) image per record as ``images/<sample id>.pgm`` and
    the manifest of the records pointing at them as ``name``; returns the
    manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    refs = []
    for record, image in zip(manifest.records, images, strict=True):
        ref = f"images/{record.sample_id}.pgm"
        write_pgm(image, out_dir / ref)
        refs.append(replace(record, image_ref=ref))
    path = out_dir / name
    write_manifest(replace(manifest, records=tuple(refs)), path)
    return path


def dataset_from_manifest(
    manifest: DatasetManifest,
    root: str | Path,
    class_order: Sequence[str] | None = None,
) -> SyntheticData:
    """Reload images referenced by a manifest into an in-memory dataset."""
    root = Path(root)
    if class_order is None:
        class_order = sorted(manifest.taxonomy)
    images = []
    for record in manifest.records:
        if record.image_ref is None:
            raise ManifestError(f"record {record.sample_id!r} has no image_ref")
        path = root / record.image_ref
        if not path.exists():
            raise ManifestError(f"image file missing: {path}")
        img = read_pgm(path)
        w, h = record.image_size
        if img.shape != (h, w):
            raise ManifestError(
                f"record {record.sample_id!r}: image {img.shape} does not "
                f"match declared size {h}x{w}"
            )
        images.append(img[None, :, :])
    return SyntheticData.from_records(manifest, np.stack(images), class_order)
