"""Shared builders for compact test fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from biaslens.manifest import AnnotationRecord, Condition, DatasetManifest


# Any JSON value, for fuzzing the line-oriented readers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=12,
)


def make_record(
    sample_id: str = "s0",
    class_label: str = "disk",
    bbox: tuple[float, float, float, float] = (2.0, 3.0, 10.0, 12.0),
    condition: Condition = Condition.NORMAL,
    image_size: tuple[int, int] = (32, 32),
    image_ref: str | None = None,
) -> AnnotationRecord:
    return AnnotationRecord(
        sample_id=sample_id,
        class_label=class_label,
        bbox=bbox,
        condition=condition,
        image_size=image_size,
        image_ref=image_ref,
    )


def make_manifest(class_counts: dict[str, int], **record_kwargs) -> DatasetManifest:
    """One record per instance, ids classname-i, all other fields defaulted."""
    records = []
    for name in sorted(class_counts):
        for i in range(class_counts[name]):
            records.append(
                make_record(sample_id=f"{name}-{i}", class_label=name, **record_kwargs)
            )
    return DatasetManifest(records=tuple(records))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
