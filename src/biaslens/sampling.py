"""Random over/under-sampling and the dominant-share subset schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .manifest import DatasetManifest, class_counts

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


def resample_rows(manifest: DatasetManifest, plan: ResamplePlan) -> list[int]:
    """The manifest rows of ``plan`` applied, in any mode: the ascending rows
    of a uniform without-replacement subset of ``min(target, count)`` rows
    per class, then duplicates of each class's kept rows up to its target,
    drawn with replacement. Each of the two draws walks the classes in sorted
    order with a fresh ``default_rng(seed)``; a class without a target keeps
    every row.

    Raises ResampleError for a class the manifest does not hold, a negative
    target, an Oversample target below the current count or an Undersample
    target above it.
    """
    by_class: dict[str, list[int]] = {}
    for i, record in enumerate(manifest.records):
        by_class.setdefault(record.class_label, []).append(i)
    for cls, target in plan.target_counts.items():
        if cls not in by_class:
            raise ResampleError(f"target for class {cls!r}, which the manifest does not hold")
        if target < 0:
            raise ResampleError(f"negative target {target} for class {cls!r}")
        current = len(by_class[cls])
        if (plan.mode is ResampleMode.OVERSAMPLE and target < current) or (
            plan.mode is ResampleMode.UNDERSAMPLE and target > current
        ):
            side = "below" if target < current else "above"
            raise ResampleError(
                f"{plan.mode.value.lower()} target {target} {side} current count {current} "
                f"for class {cls!r}"
            )
    targets = {cls: plan.target_counts.get(cls, len(rows)) for cls, rows in by_class.items()}
    rng = np.random.default_rng(plan.seed)
    for cls in sorted(by_class):
        rows = by_class[cls]
        if targets[cls] < len(rows):
            picked = rng.choice(len(rows), size=targets[cls], replace=False).tolist()
            by_class[cls] = sorted(rows[i] for i in picked)
    kept = sorted(chain.from_iterable(by_class.values()))
    rng = np.random.default_rng(plan.seed)
    for cls in sorted(by_class):
        pool = by_class[cls]
        n_extra = targets[cls] - len(pool)
        if n_extra > 0:
            kept.extend(pool[i] for i in rng.integers(0, len(pool), size=n_extra).tolist())
    return kept


def default_plan(counts: dict[str, int], mode: ResampleMode, seed: int = 0) -> ResamplePlan:
    """The plan that equalizes every class of ``counts`` (records per class,
    as ``manifest.class_counts`` gives them) at the mode's default target:
    the largest count for Oversample, the smallest for Undersample and the
    median for Combined."""
    pick = {
        ResampleMode.OVERSAMPLE: max,
        ResampleMode.UNDERSAMPLE: min,
        ResampleMode.COMBINED: lambda sizes: int(np.median(sizes)),
    }[mode]
    return ResamplePlan(dict.fromkeys(counts, pick(list(counts.values()))), mode, seed)


def apply_resample(manifest: DatasetManifest, plan: ResamplePlan) -> DatasetManifest:
    return manifest.subset(resample_rows(manifest, plan))


def combined_resample(
    manifest: DatasetManifest, seed: int = 0
) -> tuple[DatasetManifest, ResamplePlan]:
    """Equalize all per-class counts at the median: undersample above, then oversample below."""
    plan = default_plan(class_counts(manifest), ResampleMode.COMBINED, seed)
    return apply_resample(manifest, plan), plan


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
