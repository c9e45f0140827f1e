"""Manifest parsing, validation, and class-distribution statistics."""

from __future__ import annotations

import json
import tracemalloc

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
    load_manifest,
    write_manifest,
)
from biaslens.synthetic import SyntheticConfig, dataset_from_manifest, generate_synthetic, write_dataset

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

    def test_header_is_the_first_non_blank_line(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        header = {"taxonomy": ["a"], "seed": 3}
        path.write_text(
            "\n  \n" + json.dumps(header) + "\n" + json.dumps(make_record().to_json_dict()) + "\n",
            encoding="utf-8",
        )
        manifest = load_manifest(path)
        assert manifest.seed == 3
        assert manifest.taxonomy == {"a", "disk"}
        assert manifest.records == (make_record(),)

    def test_header_after_a_record_is_a_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        lines = [make_record().to_json_dict(), {"taxonomy": ["a"], "seed": 3}]
        path.write_text("".join(json.dumps(v) + "\n" for v in lines), encoding="utf-8")
        with pytest.raises(ManifestError, match=":2: missing key 'condition'"):
            load_manifest(path)

    def test_integer_bbox_loads_as_floats(self, tmp_path):
        path = tmp_path / "m.jsonl"
        record = dict(make_record().to_json_dict(), bbox=[0, 0, 10, 10], image_size=[32.0, 32])
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (loaded,) = load_manifest(path).records
        assert loaded.bbox == (0.0, 0.0, 10.0, 10.0)
        assert all(type(v) is float for v in loaded.bbox)
        assert loaded.image_size == (32, 32)
        assert all(type(v) is int for v in loaded.image_size)

    @pytest.mark.parametrize(
        "field, value",
        [("image_size", [4.9, 4]), ("image_size", [True, "8"]), ("bbox", ["1e0", 0, 4, 4]),
         ("bbox", "1234"), ("bbox", [0, 0, 4, 2**53 + 1])],
    )
    def test_number_that_coercion_would_change_is_rejected(self, tmp_path, field, value):
        path = tmp_path / "m.jsonl"
        record = dict(make_record().to_json_dict(), **{field: value})
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=":1: bbox and image_size must be lists of numbers"):
            load_manifest(path)


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


def _reference_record(obj) -> AnnotationRecord:
    """The record builder before the fast path, plus the exact-number rule."""
    try:
        condition = Condition(obj["condition"])
    except ValueError:
        raise ManifestError(f"unknown condition {obj.get('condition')!r}") from None
    except KeyError:
        raise ManifestError("missing key 'condition'") from None
    try:
        bbox = tuple(float(v) for v in obj["bbox"])
        size = tuple(int(v) for v in obj["image_size"])
    except KeyError as exc:
        raise ManifestError(f"missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError):
        bbox = None
    if bbox is None or bbox != tuple(obj["bbox"]) or size != tuple(obj["image_size"]):
        raise ManifestError(
            f"bbox and image_size must be lists of numbers, got "
            f"{obj.get('bbox')!r} and {obj.get('image_size')!r}"
        )
    image_ref = obj.get("image_ref")
    if image_ref is not None and not isinstance(image_ref, str):
        raise ManifestError(f"image_ref must be a string, got {image_ref!r}")
    if len(bbox) != 4:
        raise ManifestError(f"bbox must have 4 elements, got {len(bbox)}")
    if len(size) != 2:
        raise ManifestError(f"image_size must have 2 elements, got {len(size)}")
    try:
        return AnnotationRecord(
            sample_id=str(obj["sample_id"]),
            class_label=str(obj["class_label"]),
            bbox=bbox,
            condition=condition,
            image_size=size,
            image_ref=image_ref,
        )
    except KeyError as exc:
        raise ManifestError(f"missing key {exc.args[0]!r}") from None


def _reference_load(path) -> DatasetManifest:
    """The line-by-line reader before the fast path: json.loads per line, with
    the header taken from the first non-blank line."""
    records = []
    header_taxonomy: set[str] = set()
    seed = 0
    seen_line = False
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ManifestError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ManifestError(
                    f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}"
                )
            first, seen_line = not seen_line, True
            if first and "sample_id" not in obj:
                taxonomy = obj.get("taxonomy", [])
                if not (isinstance(taxonomy, list) and all(isinstance(t, str) for t in taxonomy)):
                    raise ManifestError(f"{path}:{lineno}: header taxonomy must be a list of labels")
                try:
                    seed = int(obj.get("seed", 0))
                except (TypeError, ValueError, OverflowError):
                    raise ManifestError(f"{path}:{lineno}: header seed must be an integer") from None
                header_taxonomy = set(taxonomy)
                continue
            try:
                records.append(_reference_record(obj))
            except ManifestError as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from None
    return DatasetManifest(records=tuple(records), taxonomy=frozenset(header_taxonomy), seed=seed)


def _reference_write(manifest: DatasetManifest, path) -> None:
    """The writer before the fast path: one json.dumps and one write per line."""
    with path.open("w", encoding="utf-8") as fh:
        header = {"taxonomy": sorted(manifest.taxonomy), "seed": manifest.seed}
        fh.write(json.dumps(header) + "\n")
        for record in manifest.records:
            fh.write(json.dumps(record.to_json_dict()) + "\n")


def _outcome(load, path):
    try:
        return load(path)
    except ManifestError as exc:
        return str(exc)


@st.composite
def valid_records(draw) -> AnnotationRecord:
    """Any valid record: finite coordinates inside the frame, bbox values
    plain floats, ints or np.float64, non-ASCII text, image_ref or none."""
    w, h = draw(st.integers(1, 4000)), draw(st.integers(1, 4000))
    x1, x2 = sorted(draw(st.lists(st.floats(0, w), min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(st.floats(0, h), min_size=2, max_size=2, unique=True)))
    kind = draw(st.sampled_from([float, int, np.float64]))
    if kind is int and not all(v.is_integer() for v in (x1, y1, x2, y2)):
        kind = float
    bbox = tuple(map(kind, (x1, y1, x2, y2)))
    return AnnotationRecord(
        sample_id=draw(st.text(max_size=8)),
        class_label=draw(st.text(min_size=1, max_size=8)),
        bbox=bbox,
        condition=draw(st.sampled_from(Condition)),
        image_size=(w, h),
        image_ref=draw(st.none() | st.text(max_size=8)),
    )


MANIFESTS = st.builds(
    lambda records, taxonomy, seed: DatasetManifest(
        records=tuple(records), taxonomy=frozenset(taxonomy), seed=seed
    ),
    st.lists(valid_records(), max_size=6),
    st.lists(st.text(max_size=4), max_size=3),
    st.integers(),
)

# Lines of a JSON-shaped manifest: blank lines, records, headers, anything.
JSON_LINES = st.lists(
    st.just("")
    | st.just("  \t")
    | valid_records().map(lambda r: json.dumps(r.to_json_dict()))
    | (JSON_VALUES | RECORD_LIKE).map(json.dumps),
    min_size=1,
    max_size=6,
)


class TestReaderWriterEquivalence:
    """The streamed fast reader and writer against the plain per-line ones."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_any_bytes_read_as_the_reference_reads_them(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "eq.jsonl"
        path.write_bytes(data)
        assert _outcome(load_manifest, path) == _outcome(_reference_load, path)

    @settings(max_examples=300, deadline=None)
    @given(JSON_LINES, st.sampled_from(["\n", "\r\n"]))
    def test_any_json_lines_read_as_the_reference_reads_them(self, tmp_path_factory, lines, eol):
        path = tmp_path_factory.getbasetemp() / "eq.jsonl"
        path.write_bytes("".join(line + eol for line in lines).encode("utf-8"))
        assert _outcome(load_manifest, path) == _outcome(_reference_load, path)

    @settings(max_examples=200, deadline=None)
    @given(MANIFESTS)
    def test_writer_bytes_match_the_reference_and_round_trip(self, tmp_path_factory, manifest):
        path = tmp_path_factory.getbasetemp() / "w.jsonl"
        reference = tmp_path_factory.getbasetemp() / "w_ref.jsonl"
        write_manifest(manifest, path)
        _reference_write(manifest, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert load_manifest(path) == manifest


class TestWriteManifest:
    def test_numpy_integers_write_and_load_back_equal(self, tmp_path):
        record = make_record(image_size=(np.int64(32), np.int32(32)))
        manifest = DatasetManifest(records=(record,), seed=np.int64(3))
        path = tmp_path / "m.jsonl"
        write_manifest(manifest, path)
        assert path.read_text().splitlines()[1].endswith('"image_size": [32, 32]}')
        assert load_manifest(path) == manifest

    def test_other_objects_still_fail_to_encode(self, tmp_path):
        record = make_record(sample_id=object())
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_manifest(DatasetManifest(records=(record,)), tmp_path / "m.jsonl")


class TestWriteDataset:
    def test_write_read_write_gives_the_same_bytes(self, tmp_path):
        data = generate_synthetic(
            SyntheticConfig(n_samples=24, shares=(0.5, 0.25, 0.25), image_hw=(16, 16), seed=4)
        )
        first = write_dataset(data.manifest, data.dataset.images[:, 0], tmp_path / "a", name="set.jsonl")
        again = dataset_from_manifest(load_manifest(first), first.parent)
        write_dataset(again.manifest, again.dataset.images[:, 0], tmp_path / "b", name="set.jsonl")
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert len(files) == 1 + len(data.dataset)
        assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_one_image_per_record(self, tmp_path):
        data = generate_synthetic(SyntheticConfig(n_samples=6, image_hw=(16, 16)))
        with pytest.raises(ValueError):
            write_dataset(data.manifest, data.dataset.images[:5, 0], tmp_path)


class TestStreamedIO:
    def test_load_and_write_hold_less_than_half_the_file(self, tmp_path):
        records = [
            make_record(
                sample_id=f"s{i:05d}",
                class_label=("car", "bus", "bicycle")[i % 3],
                bbox=(i % 97 + 0.25, i % 89 + 0.5, 200.0 + i % 101, 150.0 + i % 83),
                condition=list(Condition)[i % 5],
                image_size=(1600, 900),
                image_ref=f"img/{i:05d}.pgm",
            )
            for i in range(5000)
        ]
        manifest = DatasetManifest(records=tuple(records), seed=7)
        path = tmp_path / "m.jsonl"
        tracemalloc.start()
        try:
            write_manifest(manifest, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loaded = load_manifest(path)
            retained, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert loaded == manifest
        assert write_peak < size / 2, (write_peak, size)
        assert load_peak - retained < size / 2, (load_peak - retained, size)


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
