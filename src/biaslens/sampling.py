"""Random over/under-sampling and the dominant-share subset schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .manifest import DatasetManifest

# Guard added before floor() so decimal shares (0.67, 1/3) floor to their
# exact-rational value despite binary float noise.
_FLOOR_EPS = 1e-9


class ResampleMode(Enum):
    OVERSAMPLE = "Oversample"
    UNDERSAMPLE = "Undersample"
    COMBINED = "Combined"


class ResampleError(ValueError):
    """Plan targets incompatible with the manifest's current counts."""


@dataclass(frozen=True)
class ResamplePlan:
    target_counts: dict[str, int]
    mode: ResampleMode
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {
            "target_counts": dict(sorted(self.target_counts.items())),
            "mode": self.mode.value,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SubsetStep:
    dominant_class: str
    dominant_share: float
    budget: int
    allocation: dict[str, int]


@dataclass(frozen=True)
class SubsetSchedule:
    steps: tuple[SubsetStep, ...] = field(default_factory=tuple)


def _rows_by_class(manifest: DatasetManifest) -> dict[str, list[int]]:
    rows: dict[str, list[int]] = {}
    for i, record in enumerate(manifest.records):
        rows.setdefault(record.class_label, []).append(i)
    return rows


def _checked_rows_by_class(
    manifest: DatasetManifest, plan: ResamplePlan, mode: ResampleMode
) -> dict[str, list[int]]:
    """The manifest's rows by class, once the plan is known to be a ``mode``
    plan whose every target is a count that mode can reach for a class
    the manifest holds."""
    if plan.mode is not mode:
        raise ResampleError(f"plan mode is {plan.mode.value}, expected {mode.value}")
    by_class = _rows_by_class(manifest)
    for cls, target in plan.target_counts.items():
        if cls not in by_class:
            raise ResampleError(f"target for class {cls!r}, which the manifest does not hold")
        if target < 0:
            raise ResampleError(f"negative target {target} for class {cls!r}")
        current, over = len(by_class[cls]), mode is ResampleMode.OVERSAMPLE
        if (target < current) if over else (target > current):
            side = "below" if over else "above"
            raise ResampleError(
                f"{mode.value.lower()} target {target} {side} current count {current} "
                f"for class {cls!r}"
            )
    return by_class


def _oversample_rows(manifest: DatasetManifest, plan: ResamplePlan) -> list[int]:
    """Every row, then duplicates of minority-class rows up to the plan's
    exact targets, drawn uniformly with replacement in sorted class order."""
    by_class = _checked_rows_by_class(manifest, plan, ResampleMode.OVERSAMPLE)
    rng = np.random.default_rng(plan.seed)
    rows = list(range(len(manifest)))
    for cls in sorted(plan.target_counts):
        pool = by_class[cls]
        n_extra = plan.target_counts[cls] - len(pool)
        if n_extra <= 0:
            continue
        picks = rng.integers(0, len(pool), size=n_extra)
        rows.extend(pool[i] for i in picks)
    return rows


def _undersample_rows(manifest: DatasetManifest, plan: ResamplePlan) -> list[int]:
    """Ascending rows of a uniform without-replacement subset of each class
    at the plan's exact target; classes without a target keep every row."""
    by_class = _checked_rows_by_class(manifest, plan, ResampleMode.UNDERSAMPLE)
    rng = np.random.default_rng(plan.seed)
    kept: list[int] = []
    for cls in sorted(by_class):
        rows = by_class[cls]
        target = plan.target_counts.get(cls, len(rows))
        if target == len(rows):
            kept.extend(rows)
        else:
            kept.extend(rows[i] for i in rng.choice(len(rows), size=target, replace=False))
    return sorted(kept)


def combined_rows(
    manifest: DatasetManifest, seed: int = 0
) -> tuple[list[int], ResamplePlan]:
    """Rows that equalize all per-class counts at the median: undersample
    above it, then oversample below it."""
    counts = {c: len(rows) for c, rows in _rows_by_class(manifest).items()}
    median = int(np.median(sorted(counts.values())))
    under_targets = {c: min(n, median) for c, n in counts.items()}
    over_targets = {c: median for c in counts}
    kept = _undersample_rows(
        manifest, ResamplePlan(under_targets, ResampleMode.UNDERSAMPLE, seed=seed)
    )
    picks = _oversample_rows(
        manifest.subset(kept), ResamplePlan(over_targets, ResampleMode.OVERSAMPLE, seed=seed)
    )
    plan = ResamplePlan(target_counts=over_targets, mode=ResampleMode.COMBINED, seed=seed)
    return [kept[i] for i in picks], plan


def random_oversample(manifest: DatasetManifest, plan: ResamplePlan) -> DatasetManifest:
    """Duplicate minority-class records up to the plan's exact targets.

    Originals are always retained; duplicates are drawn uniformly with
    replacement, appended after the originals in sorted class order.
    """
    return manifest.subset(_oversample_rows(manifest, plan))


def random_undersample(manifest: DatasetManifest, plan: ResamplePlan) -> DatasetManifest:
    """Keep a uniform without-replacement subset of each class at the exact target.

    Kept records stay in the manifest's canonical order.
    """
    return manifest.subset(_undersample_rows(manifest, plan))


def combined_resample(
    manifest: DatasetManifest, seed: int = 0
) -> tuple[DatasetManifest, ResamplePlan]:
    """Equalize all per-class counts at the median: undersample above, then oversample below."""
    rows, plan = combined_rows(manifest, seed)
    return manifest.subset(rows), plan


def apply_resample(manifest: DatasetManifest, plan: ResamplePlan) -> DatasetManifest:
    if plan.mode is ResampleMode.OVERSAMPLE:
        return random_oversample(manifest, plan)
    if plan.mode is ResampleMode.UNDERSAMPLE:
        return random_undersample(manifest, plan)
    balanced, _ = combined_resample(manifest, seed=plan.seed)
    return balanced


def _step_allocation(
    classes: tuple[str, str, str], share: float, budget: int
) -> dict[str, int]:
    dominant = classes[0]
    dominant_n = int(math.floor(share * budget + _FLOOR_EPS))
    remainder = budget - dominant_n
    minority_n = remainder // 2
    leftover = remainder - 2 * minority_n
    allocation = {
        dominant: dominant_n + leftover,
        classes[1]: minority_n,
        classes[2]: minority_n,
    }
    assert sum(allocation.values()) == budget
    return allocation


def build_subset_schedule(
    classes: tuple[str, str, str] | list[str],
    budget: int,
    start_share: float,
    end_share: float,
    n_steps: int,
) -> SubsetSchedule:
    """Schedule of evaluation subsets where the first class dominates.

    The dominant share interpolates linearly from start_share to
    end_share over n_steps. Per step: dominant gets floor(share*budget),
    the two minority classes split the remainder equally (floor), and
    leftover units go back to the dominant class, so each allocation
    sums to budget exactly.
    """
    classes = tuple(classes)
    if len(classes) != 3:
        raise ValueError(f"schedule needs exactly 3 classes, got {len(classes)}")
    if budget < 3:
        raise ValueError(f"budget must be at least 3, got {budget}")
    if not (0.0 < end_share <= start_share <= 1.0):
        raise ValueError(
            f"need 0 < end_share <= start_share <= 1, got "
            f"start={start_share} end={end_share}"
        )
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    steps = []
    for i in range(n_steps):
        if n_steps == 1:
            share = start_share
        else:
            share = start_share + (end_share - start_share) * i / (n_steps - 1)
        steps.append(
            SubsetStep(
                dominant_class=classes[0],
                dominant_share=share,
                budget=budget,
                allocation=_step_allocation(classes, share, budget),
            )
        )
    return SubsetSchedule(steps=tuple(steps))
