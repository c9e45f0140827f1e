"""Shared builders for compact test fixtures."""

from __future__ import annotations

import ctypes
import glob
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import strategies as st

import biaslens.audit as audit_mod
import biaslens.behavior as behavior_mod
from biaslens.manifest import AnnotationRecord, Condition, DatasetManifest
from biaslens.nn.train import INFERENCE_CHUNK


def _openblas_threads() -> str:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def pytest_report_header(config) -> str:
    """The BLAS the bit-identity tests ran under."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return (
        f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
        f"OpenBLAS threads {_openblas_threads()}"
    )


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


@pytest.fixture
def call_counts(monkeypatch) -> Counter:
    """Counts of the calls to ``train`` through ``biaslens.audit``, to
    ``BehaviorTracker.observe`` and to ``sensitivity_scores``; each call
    still runs."""
    counts: Counter = Counter()

    def counted(name, fn):
        def spy(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return spy

    monkeypatch.setattr(audit_mod, "train", counted("train", audit_mod.train))
    monkeypatch.setattr(
        behavior_mod.BehaviorTracker, "observe", counted("observe", behavior_mod.BehaviorTracker.observe)
    )
    for module in (behavior_mod, audit_mod):
        monkeypatch.setattr(
            module, "sensitivity_scores", counted("sensitivity_scores", behavior_mod.sensitivity_scores)
        )
    return counts


class ForwardRecorder:
    """Stands in for ``model.forward``: records every inference call's
    input, and fills the outputs of padding rows (all-zero images) with
    NaN, so that a reader that kept a padding row shows it. Training
    forwards pass through unrecorded."""

    def __init__(self, model) -> None:
        self.calls: list[np.ndarray] = []
        self._forward = model.forward
        model.forward = self

    def __call__(self, x, train=False):
        x = np.asarray(x)
        res = self._forward(x, train)
        if train:
            return res
        self.calls.append(x.copy())
        pad = ~x.reshape(len(x), -1).any(axis=1)
        if pad.any():
            outs = [res.logits, res.probs, res.box, *(a for _, a in res.trunk)]
            for out in [*outs, *(res.attention or ())]:
                if out is not None:
                    out[pad] = np.nan
        return res

    def assert_each_row_once(self, *passes: np.ndarray) -> None:
        """The calls forwarded the rows of ``passes`` in order, each row
        exactly once, in calls of at most ``INFERENCE_CHUNK`` rows; every
        other row forwarded was padding."""
        assert all(len(x) <= INFERENCE_CHUNK for x in self.calls), [len(x) for x in self.calls]
        rows = np.concatenate(self.calls)
        real = rows[rows.reshape(len(rows), -1).any(axis=1)]
        npt.assert_array_equal(real, np.concatenate(passes))
