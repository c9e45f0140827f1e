"""Resampling exactness, determinism, and subset schedule arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens.manifest import DatasetManifest, compute_distribution
from biaslens.sampling import (
    ResampleError,
    ResampleMode,
    ResamplePlan,
    build_subset_schedule,
    combined_resample,
    combined_rows,
    random_oversample,
    random_undersample,
)

from conftest import make_manifest, make_record


def class_counts(manifest):
    return compute_distribution(manifest).counts


class TestRandomOversample:
    def test_reaches_max_target_exactly(self):
        manifest = make_manifest({"ped": 100, "cyc": 10, "moto": 12})
        plan = ResamplePlan(
            {"ped": 100, "cyc": 100, "moto": 100}, ResampleMode.OVERSAMPLE, seed=0
        )
        out = random_oversample(manifest, plan)
        assert class_counts(out) == {"ped": 100, "cyc": 100, "moto": 100}

    def test_target_equals_current_is_identity(self):
        manifest = make_manifest({"a": 5, "b": 7})
        plan = ResamplePlan({"a": 5, "b": 7}, ResampleMode.OVERSAMPLE)
        assert random_oversample(manifest, plan).records == manifest.records

    def test_same_seed_duplicates_same_records(self):
        manifest = make_manifest({"a": 3, "b": 9})
        plan = ResamplePlan({"a": 9}, ResampleMode.OVERSAMPLE, seed=11)
        first = random_oversample(manifest, plan)
        second = random_oversample(manifest, plan)
        assert first.records == second.records

    def test_originals_are_retained(self):
        manifest = make_manifest({"a": 3, "b": 9})
        plan = ResamplePlan({"a": 9}, ResampleMode.OVERSAMPLE, seed=1)
        out = random_oversample(manifest, plan)
        assert out.records[: len(manifest.records)] == manifest.records

    def test_target_below_current_rejected(self):
        manifest = make_manifest({"a": 5})
        plan = ResamplePlan({"a": 3}, ResampleMode.OVERSAMPLE)
        with pytest.raises(ResampleError, match="below current"):
            random_oversample(manifest, plan)

    def test_wrong_mode_rejected(self):
        manifest = make_manifest({"a": 5})
        plan = ResamplePlan({"a": 3}, ResampleMode.UNDERSAMPLE)
        with pytest.raises(ResampleError, match="mode"):
            random_oversample(manifest, plan)


class TestRandomUndersample:
    def test_reaches_min_target_exactly(self):
        manifest = make_manifest({"ped": 100, "cyc": 10, "moto": 12})
        plan = ResamplePlan(
            {"ped": 10, "cyc": 10, "moto": 10}, ResampleMode.UNDERSAMPLE, seed=0
        )
        out = random_undersample(manifest, plan)
        assert class_counts(out) == {"ped": 10, "cyc": 10, "moto": 10}

    def test_target_equals_current_is_identity(self):
        manifest = make_manifest({"a": 4, "b": 2})
        plan = ResamplePlan({"a": 4, "b": 2}, ResampleMode.UNDERSAMPLE)
        assert random_undersample(manifest, plan).records == manifest.records

    def test_kept_subset_is_seed_determined(self):
        manifest = make_manifest({"a": 4, "b": 2})
        plan = ResamplePlan({"a": 2, "b": 2}, ResampleMode.UNDERSAMPLE, seed=3)
        first = random_undersample(manifest, plan)
        second = random_undersample(manifest, plan)
        assert class_counts(first) == {"a": 2, "b": 2}
        assert first.records == second.records

    def test_canonical_order_preserved(self):
        manifest = make_manifest({"a": 10})
        plan = ResamplePlan({"a": 4}, ResampleMode.UNDERSAMPLE, seed=5)
        kept = random_undersample(manifest, plan).records
        original_order = {r.sample_id: i for i, r in enumerate(manifest.records)}
        positions = [original_order[r.sample_id] for r in kept]
        assert positions == sorted(positions)

    def test_target_above_current_rejected(self):
        manifest = make_manifest({"a": 2})
        plan = ResamplePlan({"a": 5}, ResampleMode.UNDERSAMPLE)
        with pytest.raises(ResampleError, match="above current"):
            random_undersample(manifest, plan)


class TestTargetCheck:
    """Both resamplers check a plan's targets alike: every target is reached
    exactly, or ResampleError names the first class whose target the mode
    cannot reach: one the manifest does not hold, a negative count, or a
    count on the wrong side of the current one."""

    @settings(max_examples=80, deadline=None)
    @given(
        counts=st.dictionaries(st.sampled_from("abc"), st.integers(1, 6), min_size=1),
        targets=st.dictionaries(st.sampled_from("abcd"), st.integers(-3, 9)),
        over=st.booleans(),
    )
    def test_targets_reached_or_class_named(self, counts, targets, over):
        manifest = make_manifest(counts)
        mode, resample = (
            (ResampleMode.OVERSAMPLE, random_oversample) if over
            else (ResampleMode.UNDERSAMPLE, random_undersample)
        )
        plan = ResamplePlan(targets, mode, seed=0)
        bad = [
            c for c, t in targets.items()
            if c not in counts or t < 0 or (t < counts[c] if over else t > counts[c])
        ]
        if bad:
            with pytest.raises(ResampleError, match=f"class {bad[0]!r}"):
                resample(manifest, plan)
        else:
            got = class_counts(resample(manifest, plan))
            want = {**counts, **targets}
            assert {c: n for c, n in got.items() if n} == {c: n for c, n in want.items() if n}


class TestCombinedResample:
    def test_equalizes_all_classes_at_median(self):
        manifest = make_manifest({"ped": 100, "cyc": 10, "moto": 12})
        balanced, plan = combined_resample(manifest, seed=0)
        assert class_counts(balanced) == {"ped": 12, "cyc": 12, "moto": 12}
        assert plan.mode is ResampleMode.COMBINED
        assert plan.target_counts == {"ped": 12, "cyc": 12, "moto": 12}

    def test_already_balanced_manifest_is_fixed_point(self):
        manifest = make_manifest({"a": 6, "b": 6, "c": 6})
        once, _ = combined_resample(manifest, seed=1)
        twice, _ = combined_resample(once, seed=1)
        assert once.records == manifest.records
        assert twice.records == once.records

    @given(
        counts=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=1, max_value=60),
            min_size=2,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_classes_equal_after_combined(self, counts, seed):
        balanced, plan = combined_resample(make_manifest(counts), seed=seed)
        out = class_counts(balanced)
        assert len(set(out.values())) == 1
        assert all(out.get(c, 0) == n for c, n in plan.target_counts.items())

    @given(
        labels=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=80),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_take_the_resampled_manifest(self, labels, seed):
        manifest = DatasetManifest(
            records=tuple(make_record(sample_id=f"r{i}", class_label=c) for i, c in enumerate(labels))
        )
        rows, plan = combined_rows(manifest, seed)
        assert (manifest.subset(rows), plan) == combined_resample(manifest, seed)

    @given(
        targets=st.fixed_dictionaries(
            {
                "a": st.integers(min_value=5, max_value=40),
                "b": st.integers(min_value=5, max_value=40),
            }
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_oversample_hits_arbitrary_targets_exactly(self, targets, seed):
        manifest = make_manifest({"a": 5, "b": 5})
        plan = ResamplePlan(targets, ResampleMode.OVERSAMPLE, seed=seed)
        out = random_oversample(manifest, plan)
        assert class_counts(out) == targets


class TestSubsetSchedule:
    def test_dominant_67_percent_allocation(self):
        schedule = build_subset_schedule(
            ("ped", "cyc", "moto"), budget=300, start_share=0.67, end_share=0.67, n_steps=1
        )
        assert schedule.steps[0].allocation == {"ped": 202, "cyc": 49, "moto": 49}

    def test_equal_share_endpoint(self):
        schedule = build_subset_schedule(
            ("ped", "cyc", "moto"), budget=300, start_share=1 / 3, end_share=1 / 3, n_steps=1
        )
        assert schedule.steps[0].allocation == {"ped": 100, "cyc": 100, "moto": 100}

    def test_single_step_uses_start_share(self):
        schedule = build_subset_schedule(("a", "b", "c"), 90, 0.8, 0.4, n_steps=1)
        assert len(schedule.steps) == 1
        assert schedule.steps[0].dominant_share == 0.8

    def test_shares_interpolate_linearly(self):
        schedule = build_subset_schedule(("a", "b", "c"), 90, 0.9, 0.5, n_steps=5)
        shares = [s.dominant_share for s in schedule.steps]
        assert shares == pytest.approx([0.9, 0.8, 0.7, 0.6, 0.5])

    @given(
        budget=st.integers(min_value=3, max_value=5000),
        share=st.floats(min_value=0.01, max_value=1.0),
        n_steps=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_allocations_always_sum_to_budget(self, budget, share, n_steps):
        schedule = build_subset_schedule(("a", "b", "c"), budget, 1.0, share, n_steps)
        for step in schedule.steps:
            assert sum(step.allocation.values()) == step.budget == budget

    def test_invalid_share_order_rejected(self):
        with pytest.raises(ValueError, match="end_share"):
            build_subset_schedule(("a", "b", "c"), 30, 0.4, 0.8, 1)
