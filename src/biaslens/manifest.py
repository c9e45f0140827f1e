"""Annotation manifests and class-distribution statistics.

A manifest is a JSONL file: one annotation record per line, optionally
preceded by a header line declaring extra taxonomy labels and the seed.
Blank lines are skipped, and a record's numbers must load exactly as written.
All types are immutable; operations are pure functions.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from enum import Enum
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
        if x1 < 0 or y1 < 0 or x2 > w or y2 > h:
            raise ManifestError(
                f"record {self.sample_id!r}: bbox {self.bbox} outside "
                f"image frame {w}x{h}"
            )

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
    encode = _ENCODER.encode
    with path.open("w", encoding="utf-8") as fh:
        header = {"taxonomy": sorted(manifest.taxonomy), "seed": manifest.seed}
        fh.write(encode(header) + "\n")
        fh.writelines(encode(record.to_json_dict()) + "\n" for record in manifest.records)


def compute_distribution(manifest: DatasetManifest) -> ClassDistribution:
    """Count instances per class and derive full-precision percentages.

    The per-condition map covers only observed conditions. Raises on an
    empty manifest (percentages undefined).
    """
    if len(manifest) == 0:
        raise ManifestError("cannot compute distribution of an empty manifest")
    counts: dict[str, int] = {}
    per_condition: dict[Condition, dict[str, int]] = {}
    for record in manifest.records:
        counts[record.class_label] = counts.get(record.class_label, 0) + 1
        cond_map = per_condition.setdefault(record.condition, {})
        cond_map[record.class_label] = cond_map.get(record.class_label, 0) + 1
    total = len(manifest)
    percentages = {c: 100.0 * n / total for c, n in counts.items()}
    return ClassDistribution(
        counts=counts,
        percentages=percentages,
        per_condition=per_condition,
        total=total,
    )


def condition_breakdown(
    dist: ClassDistribution, class_label: str
) -> dict[Condition, float]:
    """Percent split of one class's instances across capture conditions.

    Only conditions where the class actually occurs appear; the values
    sum to 100.
    """
    if class_label not in dist.counts:
        raise ManifestError(f"unknown class {class_label!r}")
    class_total = dist.counts[class_label]
    out: dict[Condition, float] = {}
    for condition, cond_counts in dist.per_condition.items():
        n = cond_counts.get(class_label, 0)
        if n:
            out[condition] = 100.0 * n / class_total
    return out


def labels_with_prefix(manifest: DatasetManifest, prefix: str) -> list[str]:
    """Taxonomy labels under a dotted-hierarchy prefix, sorted.

    The hierarchy is otherwise uninterpreted; this is the one explicit
    prefix query.
    """
    dotted = prefix if prefix.endswith(".") else prefix + "."
    return sorted(
        label
        for label in manifest.taxonomy
        if label == prefix or label.startswith(dotted)
    )


def records_from_iter(
    items: Iterable[AnnotationRecord], seed: int = 0
) -> DatasetManifest:
    """Build a manifest from records, taxonomy inferred from observed labels."""
    return DatasetManifest(records=tuple(items), seed=seed)
