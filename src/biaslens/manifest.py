"""Annotation manifests and class-distribution statistics.

A manifest is a JSONL file: one annotation record per line, optionally
preceded by a header line declaring extra taxonomy labels and the seed.
Blank lines are skipped, and a record's numbers must load exactly as written.
All types are immutable; operations are pure functions.

The writer emits each record as ``json.dumps`` of its ``to_json_dict`` would:

    {"sample_id": "s0", "class_label": "car", "bbox": [1.5, 2.0, 30.25, 31.0], \
"condition": "Night", "image_size": [1600, 900], "image_ref": "img/s0.pgm"}

keys in that order, ``image_ref`` only when set, ", " and ": " separators,
strings ASCII-escaped, floats as their shortest round-trip repr. A record
whose ids are ``str``, whose numbers are ``float`` or ``int`` (not bool, not
numpy) and whose condition is a ``Condition`` is formatted directly; any
other record goes through the JSON encoder, which gives the same bytes or
the same error.

The reader builds a record directly when the decoded line has exactly the
types the writer emits: ``str`` ids, a 4-list of ``float``, a 2-list of
``int``, a known condition string and a ``str`` or absent ``image_ref``.
Every other line (integer coordinates, bools, strings for numbers, missing
keys, wrong lengths) takes the checked path, which coerces exact numbers and
names the problem. Both paths end in ``__post_init__``, the one validator of
a record's invariants, which also rejects NaN and infinite coordinates.
"""

from __future__ import annotations

import json
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping


class Condition(Enum):
    """Capture condition tag of an annotation."""

    NORMAL = "Normal"
    NIGHT = "Night"
    WEATHER = "Weather"
    ROTATED = "Rotated"
    MIXED = "Mixed"


_CONDITIONS = {c.value: c for c in Condition}


def _encode_integral(obj) -> int:
    """json's fallback for integers of other types, such as numpy's."""
    if isinstance(obj, numbers.Integral):
        return int(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# The default decoder and encoder, configured as json.loads and json.dumps use
# them; the encoder also writes integers that are not Python ints.
_DECODER = json.JSONDecoder()
_ENCODER = json.JSONEncoder(default=_encode_integral)


class ManifestError(ValueError):
    """Malformed manifest line or record invariant violation."""


@dataclass(frozen=True, slots=True)
class AnnotationRecord:
    """One labeled object instance.

    bbox is (x1, y1, x2, y2) in pixels, axis-aligned, with x1 < x2 and
    y1 < y2, contained in [0, width] x [0, height].
    """

    sample_id: str
    class_label: str
    bbox: tuple[float, float, float, float]
    condition: Condition
    image_size: tuple[int, int]
    image_ref: str | None = None

    def __post_init__(self) -> None:
        if not self.class_label:
            raise ManifestError(f"record {self.sample_id!r}: empty class_label")
        x1, y1, x2, y2 = self.bbox
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ManifestError(
                f"record {self.sample_id!r}: non-positive image_size {self.image_size}"
            )
        if not (x1 < x2 and y1 < y2):
            raise ManifestError(
                f"record {self.sample_id!r}: degenerate bbox {self.bbox}"
            )
        try:
            if x1 < 0 or y1 < 0 or x2 > w or y2 > h:
                raise ManifestError(
                    f"record {self.sample_id!r}: bbox {self.bbox} outside "
                    f"image frame {w}x{h}"
                )
        except OverflowError:  # a numpy coordinate meets an int frame beyond float range
            raise ManifestError(
                f"record {self.sample_id!r}: image_size beyond float range for bbox {self.bbox}"
            ) from None

    def to_json_dict(self) -> dict:
        out = {
            "sample_id": self.sample_id,
            "class_label": self.class_label,
            "bbox": list(self.bbox),
            "condition": self.condition.value,
            "image_size": list(self.image_size),
        }
        if self.image_ref is not None:
            out["image_ref"] = self.image_ref
        return out

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "AnnotationRecord":
        try:
            sample_id, class_label = obj["sample_id"], obj["class_label"]
            bbox, size, image_ref = obj["bbox"], obj["image_size"], obj.get("image_ref")
            condition = _CONDITIONS[obj["condition"]]
        except (KeyError, TypeError):
            pass  # the checked path names the missing key or the bad condition
        else:
            if (
                type(sample_id) is str and type(class_label) is str
                and type(bbox) is list and len(bbox) == 4
                and type(size) is list and len(size) == 2
                and (image_ref is None or type(image_ref) is str)
            ):
                x1, y1, x2, y2 = bbox
                w, h = size
                if (
                    type(x1) is type(y1) is type(x2) is type(y2) is float
                    and type(w) is type(h) is int
                ):
                    return _exact_record(
                        sample_id, class_label, (x1, y1, x2, y2), condition, (w, h), image_ref
                    )
        try:
            condition = _CONDITIONS[obj["condition"]]
        except (KeyError, TypeError):
            try:
                condition = Condition(obj["condition"])
            except ValueError:
                raise ManifestError(f"unknown condition {obj.get('condition')!r}") from None
            except KeyError:
                raise ManifestError("missing key 'condition'") from None
        try:
            raw_bbox = tuple(obj["bbox"])
            bbox = tuple(map(float, raw_bbox))
            raw_size = tuple(obj["image_size"])
            size = tuple(map(int, raw_size))
            # a value that coercion changes (4.9 -> 4, "1e0" -> 1.0) is rejected
            exact = bbox == raw_bbox and size == raw_size
        except KeyError as exc:
            raise ManifestError(f"missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
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
            return cls(
                str(obj["sample_id"]), str(obj["class_label"]), bbox, condition, size, image_ref
            )
        except KeyError as exc:
            raise ManifestError(f"missing key {exc.args[0]!r}") from None


_SET_SAMPLE_ID, _SET_CLASS_LABEL, _SET_BBOX, _SET_CONDITION, _SET_IMAGE_SIZE, _SET_IMAGE_REF = (
    getattr(AnnotationRecord, f.name).__set__ for f in fields(AnnotationRecord)
)


def _exact_record(sample_id, class_label, bbox, condition, image_size, image_ref) -> AnnotationRecord:
    """The record of field values that already have the field types. The
    slots are set through their descriptors, not through the frozen
    ``__init__``'s ``object.__setattr__``; ``__post_init__`` then validates."""
    record = object.__new__(AnnotationRecord)
    _SET_SAMPLE_ID(record, sample_id)
    _SET_CLASS_LABEL(record, class_label)
    _SET_BBOX(record, bbox)
    _SET_CONDITION(record, condition)
    _SET_IMAGE_SIZE(record, image_size)
    _SET_IMAGE_REF(record, image_ref)
    record.__post_init__()
    return record


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered annotation corpus. Record order is the canonical iteration order."""

    records: tuple[AnnotationRecord, ...]
    taxonomy: frozenset[str] = field(default_factory=frozenset)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        taxonomy = frozenset(self.taxonomy) | {r.class_label for r in self.records}
        object.__setattr__(self, "taxonomy", taxonomy)

    def __len__(self) -> int:
        return len(self.records)

    def subset(self, rows) -> "DatasetManifest":
        """The manifest of the records at ``rows``, in that order."""
        return DatasetManifest(
            records=tuple(self.records[i] for i in rows), taxonomy=self.taxonomy, seed=self.seed
        )


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class counts and percentages plus a per-condition breakdown."""

    counts: dict[str, int]
    percentages: dict[str, float]
    per_condition: dict[Condition, dict[str, int]]
    total: int

    def to_json_dict(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "percentages": dict(sorted(self.percentages.items())),
            "per_condition": {
                cond.value: dict(sorted(classes.items()))
                for cond, classes in sorted(self.per_condition.items(), key=lambda kv: kv[0].value)
            },
            "total": self.total,
        }


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse a JSONL manifest file, one line at a time.

    Blank lines are skipped. An optional header, the first non-blank line
    when it has no ``sample_id`` key, declares ``taxonomy`` (list of labels)
    and ``seed``.

    Raises ManifestError with the 1-based line number on malformed lines.
    """
    path = Path(path)
    records: list[AnnotationRecord] = []
    from_json_dict = AnnotationRecord.from_json_dict
    raw_decode = _DECODER.raw_decode
    header_taxonomy: set[str] = set()
    seed = 0
    header_allowed = True
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    obj, end = raw_decode(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    # json.loads of the stripped line raises the same error
                    obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ManifestError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ManifestError(
                    f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}"
                )
            if header_allowed:
                header_allowed = False
                if "sample_id" not in obj:
                    header_taxonomy, seed = _parse_header(obj, f"{path}:{lineno}")
                    continue
            try:
                records.append(from_json_dict(obj))
            except ManifestError as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from None
    return DatasetManifest(
        records=tuple(records),
        taxonomy=frozenset(header_taxonomy),
        seed=seed,
    )


def _parse_header(obj: dict, where: str) -> tuple[set[str], int]:
    taxonomy = obj.get("taxonomy", [])
    if not (isinstance(taxonomy, list) and all(isinstance(t, str) for t in taxonomy)):
        raise ManifestError(f"{where}: header taxonomy must be a list of labels")
    try:
        seed = int(obj.get("seed", 0))
    except (TypeError, ValueError, OverflowError):
        raise ManifestError(f"{where}: header seed must be an integer") from None
    return set(taxonomy), seed


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest as JSONL (header line + one record per line), streamed.

    Numeric fields round-trip bit-exactly: json emits the shortest repr
    that parses back to the same IEEE-754 double.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        header = {"taxonomy": sorted(manifest.taxonomy), "seed": manifest.seed}
        fh.write(_ENCODER.encode(header) + "\n")
        fh.writelines(map(_record_line, manifest.records))


# json's own text of a float and of an int; bool and numpy numbers are not keys
_NUMBER_REPR = {float: float.__repr__, int: int.__repr__}


def _record_line(record: AnnotationRecord) -> str:
    """The record's JSONL line, formatted directly when its fields have the
    plain types the module docstring names, else by the encoder."""
    if type(record.condition) is Condition:
        number = _NUMBER_REPR
        try:
            x1, y1, x2, y2 = record.bbox
            w, h = record.image_size
            line = (
                f'{{"sample_id": {_quote(record.sample_id)}, '
                f'"class_label": {_quote(record.class_label)}, '
                f'"bbox": [{number[type(x1)](x1)}, {number[type(y1)](y1)}, '
                f'{number[type(x2)](x2)}, {number[type(y2)](y2)}], '
                f'"condition": {_quote(record.condition._value_)}, '
                f'"image_size": [{number[type(w)](w)}, {number[type(h)](h)}]'
            )
            if record.image_ref is None:
                return line + "}\n"
            return f'{line}, "image_ref": {_quote(record.image_ref)}}}\n'
        except (KeyError, TypeError):  # a number or a string of another type
            pass
    return _ENCODER.encode(record.to_json_dict()) + "\n"


_CLASS_LABEL = attrgetter("class_label")
# The condition by its value string: hashing the member itself would run
# Enum.__hash__, in Python, for every record.
_LABEL_AND_CONDITION = attrgetter("class_label", "condition._value_")


def check_file_ids(sample_ids: Iterable[str]) -> None:
    """Raise ManifestError naming the first sample id that cannot name a
    file inside an output directory: such an id is one plain path
    component, not empty, without ``/`` or ``\\``, and not ``.`` or ``..``."""
    for sample_id in sample_ids:
        if sample_id in ("", ".", "..") or "/" in sample_id or "\\" in sample_id:
            raise ManifestError(
                f"record {sample_id!r}: a sample_id that names a file must be one plain path component"
            )


def class_counts(manifest: DatasetManifest) -> dict[str, int]:
    """Records per class, in first-seen class order."""
    return dict(Counter(map(_CLASS_LABEL, manifest.records)))


def compute_distribution(manifest: DatasetManifest) -> ClassDistribution:
    """Count instances per class and derive full-precision percentages.

    The per-condition map covers only observed conditions. Raises on an
    empty manifest (percentages undefined).
    """
    if len(manifest) == 0:
        raise ManifestError("cannot compute distribution of an empty manifest")
    # Pairs count in first-seen order, so both maps keep their keys in
    # first-seen order, as a per-record loop builds them.
    pairs = Counter(map(_LABEL_AND_CONDITION, manifest.records))
    counts: dict[str, int] = {}
    per_condition: dict[Condition, dict[str, int]] = {}
    for (label, condition), n in pairs.items():
        counts[label] = counts.get(label, 0) + n
        per_condition.setdefault(_CONDITIONS[condition], {})[label] = n
    total = len(manifest)
    percentages = {c: 100.0 * n / total for c, n in counts.items()}
    return ClassDistribution(
        counts=counts,
        percentages=percentages,
        per_condition=per_condition,
        total=total,
    )
