"""Manifest parsing, validation, and class-distribution statistics."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens.manifest import (
    AnnotationRecord,
    Condition,
    DatasetManifest,
    ManifestError,
    compute_distribution,
    condition_breakdown,
    labels_with_prefix,
    load_manifest,
    records_from_iter,
    write_manifest,
)

from conftest import JSON_VALUES, make_manifest, make_record


class TestAnnotationRecord:
    def test_valid_record_roundtrips_through_json(self):
        rec = make_record(bbox=(1.5, 2.25, 30.0, 31.0), image_ref="img/x.pgm")
        again = AnnotationRecord.from_json_dict(rec.to_json_dict())
        assert again == rec

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ManifestError, match="degenerate"):
            make_record(bbox=(10.0, 3.0, 10.0, 12.0))
        with pytest.raises(ManifestError, match="degenerate"):
            make_record(bbox=(2.0, 12.0, 10.0, 3.0))

    def test_bbox_outside_frame_rejected(self):
        with pytest.raises(ManifestError, match="outside"):
            make_record(bbox=(-1.0, 0.0, 5.0, 5.0))
        with pytest.raises(ManifestError, match="outside"):
            make_record(bbox=(0.0, 0.0, 33.0, 5.0))

    def test_unknown_condition_rejected(self):
        payload = make_record().to_json_dict()
        payload["condition"] = "Foggy"
        with pytest.raises(ManifestError, match="Foggy"):
            AnnotationRecord.from_json_dict(payload)

    def test_empty_class_label_rejected(self):
        with pytest.raises(ManifestError, match="class_label"):
            make_record(class_label="")


class TestLoadManifest:
    def test_empty_file_gives_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        manifest = load_manifest(path)
        assert len(manifest) == 0
        assert manifest.taxonomy == frozenset()

    def test_three_lines_keep_file_order(self, tmp_path):
        records = [make_record(sample_id=f"s{i}") for i in range(3)]
        path = tmp_path / "m.jsonl"
        path.write_text(
            "".join(json.dumps(r.to_json_dict()) + "\n" for r in records),
            encoding="utf-8",
        )
        manifest = load_manifest(path)
        assert [r.sample_id for r in manifest.records] == ["s0", "s1", "s2"]

    def test_invalid_bbox_names_line(self, tmp_path):
        good = make_record().to_json_dict()
        bad = dict(good, sample_id="s-bad", bbox=[10.0, 3.0, 4.0, 12.0])
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8"
        )
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    def test_roundtrip_preserves_content_and_order(self, tmp_path):
        manifest = make_manifest({"disk": 3, "bar": 2})
        path = tmp_path / "m.jsonl"
        write_manifest(manifest, path)
        again = load_manifest(path)
        assert again.records == manifest.records
        assert again.taxonomy == manifest.taxonomy
        assert again.seed == manifest.seed

    def test_header_line_declares_taxonomy_and_seed(self, tmp_path):
        path = tmp_path / "m.jsonl"
        header = {"taxonomy": ["vehicle.truck"], "seed": 9}
        rec = make_record()
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(rec.to_json_dict()) + "\n",
            encoding="utf-8",
        )
        manifest = load_manifest(path)
        assert manifest.seed == 9
        assert "vehicle.truck" in manifest.taxonomy
        assert "disk" in manifest.taxonomy  # observed labels always union in


# Objects shaped like a record whose fields hold any JSON value.
RECORD_LIKE = st.fixed_dictionaries(
    {},
    optional={
        key: JSON_VALUES | value
        for key, value in {
            "sample_id": st.just("s0"),
            "class_label": st.just("disk"),
            "bbox": st.lists(st.floats() | st.integers() | st.text(max_size=3), max_size=5),
            "condition": st.sampled_from([c.value for c in Condition]),
            "image_size": st.lists(st.floats() | st.integers(), max_size=3),
            "image_ref": st.just("a.pgm"),
            "taxonomy": st.lists(st.text(max_size=3), max_size=3),
            "seed": st.integers() | st.floats(),
        }.items()
    },
)


def _load_or_manifest_error(path, data: bytes):
    path.write_bytes(data)
    try:
        assert isinstance(load_manifest(path), DatasetManifest)
    except ManifestError as exc:
        assert str(path) in str(exc)


class TestLoadManifestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_any_bytes_load_or_raise_manifest_error(self, tmp_path_factory, data):
        _load_or_manifest_error(tmp_path_factory.getbasetemp() / "fuzz.jsonl", data)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(JSON_VALUES | RECORD_LIKE, min_size=1, max_size=3))
    def test_any_json_lines_load_or_raise_manifest_error(self, tmp_path_factory, values):
        lines = "".join(json.dumps(v) + "\n" for v in values).encode("utf-8")
        _load_or_manifest_error(tmp_path_factory.getbasetemp() / "fuzz.jsonl", lines)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", ":1: expected a JSON object, got list"),
            ('{"sample_id": "s0", "class_label": "disk", "bbox": ["a", 0, 4, 4], '
             '"condition": "Normal", "image_size": [8, 8]}', ":1: bbox and image_size"),
            ('{"taxonomy": 3}', ":1: header taxonomy"),
            ("\udcff", ":1: malformed JSON"),
        ],
    )
    def test_typed_error_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_bytes(line.encode("utf-8", "surrogateescape") + b"\n")
        with pytest.raises(ManifestError, match=message) as info:
            load_manifest(path)
        assert str(info.value).startswith(f"{path}:1:")


class TestComputeDistribution:
    def test_single_class_is_100_percent(self):
        dist = compute_distribution(make_manifest({"a": 1}))
        assert dist.percentages == {"a": 100.0}

    def test_two_equal_classes_split_50_50(self):
        dist = compute_distribution(make_manifest({"a": 2, "b": 2}))
        assert dist.percentages == {"a": 50.0, "b": 50.0}

    def test_study_scale_counts_match_published_shares(self):
        counts = {"ped": 149921, "cyc": 17060, "moto": 16779, "other": 509997}
        dist = compute_distribution(make_manifest(counts))
        assert abs(dist.percentages["ped"] - 21.61) < 0.01
        assert abs(dist.percentages["cyc"] - 2.46) < 0.01
        assert abs(dist.percentages["moto"] - 2.42) < 0.01
        assert dist.total == 693757

    def test_empty_manifest_rejected(self):
        with pytest.raises(ManifestError, match="empty"):
            compute_distribution(DatasetManifest(records=()))

    def test_permutation_invariant(self, rng):
        manifest = make_manifest({"a": 5, "b" * 1: 3, "c": 2})
        perm = rng.permutation(len(manifest.records))
        shuffled = DatasetManifest(
            records=tuple(manifest.records[i] for i in perm)
        )
        d1 = compute_distribution(manifest)
        d2 = compute_distribution(shuffled)
        assert d1.counts == d2.counts
        assert d1.percentages == d2.percentages

    @given(
        counts=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.integers(min_value=1, max_value=200),
            min_size=1,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_percentages_sum_to_100(self, counts):
        dist = compute_distribution(make_manifest(counts))
        np.testing.assert_allclose(sum(dist.percentages.values()), 100.0, atol=1e-6)


class TestConditionBreakdown:
    def test_all_normal_is_100(self):
        manifest = make_manifest({"a": 4}, condition=Condition.NORMAL)
        dist = compute_distribution(manifest)
        assert condition_breakdown(dist, "a") == {Condition.NORMAL: 100.0}

    def test_even_split_between_two_conditions(self):
        records = [
            make_record(sample_id=f"n{i}", condition=Condition.NORMAL) for i in range(10)
        ] + [
            make_record(sample_id=f"d{i}", condition=Condition.NIGHT) for i in range(10)
        ]
        dist = compute_distribution(records_from_iter(records))
        breakdown = condition_breakdown(dist, "disk")
        assert breakdown == {Condition.NORMAL: 50.0, Condition.NIGHT: 50.0}

    def test_three_to_one_split(self):
        records = [
            make_record(sample_id=f"n{i}", condition=Condition.NORMAL) for i in range(3)
        ] + [make_record(sample_id="w0", condition=Condition.WEATHER)]
        dist = compute_distribution(records_from_iter(records))
        breakdown = condition_breakdown(dist, "disk")
        assert breakdown == {Condition.NORMAL: 75.0, Condition.WEATHER: 25.0}

    def test_unknown_class_rejected(self):
        dist = compute_distribution(make_manifest({"a": 1}))
        with pytest.raises(ManifestError, match="ghost"):
            condition_breakdown(dist, "ghost")


class TestTaxonomyQueries:
    def test_prefix_matches_dotted_hierarchy_only(self):
        manifest = DatasetManifest(
            records=(),
            taxonomy=frozenset(
                {"vehicle", "vehicle.car", "vehicle.truck", "vehicleish", "human"}
            ),
        )
        assert labels_with_prefix(manifest, "vehicle") == [
            "vehicle",
            "vehicle.car",
            "vehicle.truck",
        ]
