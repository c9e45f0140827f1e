"""Immutable model snapshots: JSON header (architecture, seed, train
config, parameter table) followed by a little-endian float64 blob."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"BLSNAP1\n"


class SnapshotError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSnapshot:
    arch: dict
    seed: int
    config: dict
    params: dict[str, np.ndarray]

    @classmethod
    def from_model(cls, model, config: dict | None = None) -> "ModelSnapshot":
        return cls(
            arch=dict(model.arch),
            seed=model.seed,
            config=dict(config or {}),
            params={k: v.copy() for k, v in model.named_parameters().items()},
        )

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.params)
        header = {
            "arch": self.arch,
            "seed": self.seed,
            "config": self.config,
            "params": [{"name": n, "shape": list(self.params[n].shape)} for n in names],
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        with path.open("wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for n in names:
                fh.write(np.ascontiguousarray(self.params[n], dtype="<f8").tobytes())


def load_snapshot(path: str | Path) -> ModelSnapshot:
    path = Path(path)
    data = path.read_bytes()
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a model snapshot (bad magic {magic!r})")
    pos = len(MAGIC) + 8
    header_len = int.from_bytes(data[len(MAGIC) : pos], "little")
    if len(data) < pos + header_len:
        raise SnapshotError(f"{path}: truncated header")
    try:
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
        arch, seed, config = header["arch"], header["seed"], header["config"]
        table = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        if not (isinstance(arch, dict) and isinstance(seed, int) and isinstance(config, dict)):
            raise TypeError("arch and config must be objects, seed an integer")
        for name, shape in table:
            if not (isinstance(name, str) and all(isinstance(d, int) and d >= 0 for d in shape)):
                raise TypeError(f"parameter {name!r} needs a name and a non-negative shape")
    except (ValueError, RecursionError, TypeError, KeyError) as exc:
        raise SnapshotError(f"{path}: malformed header: {exc!r}") from None
    pos += header_len
    params: dict[str, np.ndarray] = {}
    for name, shape in table:
        end = pos + 8 * math.prod(shape)
        if len(data) < end:
            raise SnapshotError(f"{path}: truncated blob at parameter {name!r}")
        try:
            params[name] = np.frombuffer(data[pos:end], dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # a zero-size shape with a dimension numpy cannot hold
            raise SnapshotError(f"{path}: parameter {name!r}: {exc}") from None
        pos = end
    if pos != len(data):
        raise SnapshotError(f"{path}: trailing bytes after parameter blob")
    return ModelSnapshot(arch=arch, seed=seed, config=config, params=params)


def model_from_snapshot(snapshot: ModelSnapshot):
    from .models import build_model

    model = build_model(snapshot.arch, seed=snapshot.seed)
    model.load_parameters(snapshot.params)
    return model
