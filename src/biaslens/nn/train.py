"""Training loop: seeded batching, adaptive optimizer, per-epoch metric
trace, NaN abort, and a stratified 70/15/15 split helper."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..losses import weighted_ce_from_logits
from .optim import Adam, ConstantLR, LinearDecayLR, StepDecayLR
from .snapshot import ModelSnapshot

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]
DEFAULT_SPLIT = (0.7, 0.15, 0.15)
# Rows per inference forward. It bounds the temporaries of one forward, and
# both models ran faster per sample in chunks of 32 than of 256.
INFERENCE_CHUNK = 32
# Every inference forward gets a row count that is a multiple of this. BLAS
# GEMM kernels compute a product's last ``rows mod 4`` rows (and a one-row
# product) with other kernels, whose last bits differ.
_ROW_BLOCK = 4


def reject_non_finite(config) -> None:
    """Raise ValueError naming the first field of a config dataclass that
    is, or holds in a tuple, a NaN or infinite real. A range check alone
    lets NaN through, because every comparison with NaN is false."""
    for f in fields(config):
        value = getattr(config, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {value}")


class TrainAbort(RuntimeError):
    """Raised when the loss goes non-finite; carries epoch and batch."""

    def __init__(self, epoch: int, batch: int, loss: float) -> None:
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    weight_decay: float = 1e-4
    dropout: float = 0.0
    lr_schedule: ConstantLR | StepDecayLR | LinearDecayLR = ConstantLR()
    seed: int = 0
    box_loss_weight: float = 1.0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["lr_schedule"] = self.lr_schedule.to_json_dict()
        return out


@dataclass
class ArrayDataset:
    """In-memory dataset: images (N, C, H, W), integer labels, optional
    boxes in normalized center form (cx, cy, w, h), each in [0, 1]."""

    images: np.ndarray
    labels: np.ndarray
    class_order: tuple[str, ...]
    boxes: np.ndarray | None = None
    sample_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels disagree on sample count")
        if self.boxes is not None:
            self.boxes = np.asarray(self.boxes, dtype=np.float64)
            if self.boxes.shape != (len(self.labels), 4):
                raise ValueError(f"boxes must be (N, 4), got {self.boxes.shape}")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def one_hot(self) -> np.ndarray:
        k = len(self.class_order)
        out = np.zeros((len(self), k))
        out[np.arange(len(self)), self.labels] = 1.0
        return out

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(
            images=self.images[indices],
            labels=self.labels[indices],
            class_order=self.class_order,
            boxes=None if self.boxes is None else self.boxes[indices],
            sample_ids=None
            if self.sample_ids is None
            else tuple(self.sample_ids[i] for i in indices),
        )


@dataclass
class MetricTrace:
    """Per-epoch rows: epoch, loss, lr, recall per class, plus any extra
    columns contributed by the epoch hook (e.g. selectivity)."""

    class_order: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)

    def column_names(self) -> list[str]:
        names: list[str] = ["epoch", "loss", "lr"]
        names += [f"recall_{c}" for c in self.class_order]
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.column_names()
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in self.rows:
                out = []
                for name in names:
                    v = row.get(name, "")
                    if isinstance(v, float) and math.isnan(v):
                        v = ""
                    out.append(v)
                writer.writerow(out)

    def final_recalls(self) -> dict[str, float]:
        last = self.rows[-1]
        return {c: last[f"recall_{c}"] for c in self.class_order}


def stratified_split(
    labels: Sequence[int] | np.ndarray,
    fractions: tuple[float, float, float] = DEFAULT_SPLIT,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded per-class split into train/val/test index arrays."""
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be non-negative and sum to 1, got {fractions}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n = len(idx)
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        n_train = min(n_train, n)
        n_val = min(n_val, n - n_train)
        parts[0].extend(idx[:n_train])
        parts[1].extend(idx[n_train : n_train + n_val])
        parts[2].extend(idx[n_train + n_val :])
    return tuple(np.array(sorted(p), dtype=np.int64) for p in parts)  # type: ignore[return-value]


@dataclass
class _Pass:
    """One inference pass over a dataset, one row per sample."""

    probs: np.ndarray
    boxes: np.ndarray | None
    unit_means: dict[str, np.ndarray]  # tap -> (N, units)
    patch_mass: np.ndarray | None  # (N, P): final layer, heads then queries averaged
    attention: tuple[np.ndarray, ...] | None  # per layer: (N, heads, P, P)


def _unit_means(act: np.ndarray) -> np.ndarray:
    if act.ndim == 4:  # (N, C, H, W) conv channels: spatial mean
        return act.mean(axis=(2, 3))
    if act.ndim == 3:  # (N, P, d) token embeddings: patch mean
        return act.mean(axis=1)
    return act


def forward_pass(
    model, images: np.ndarray, batch_size: int = INFERENCE_CHUNK, attention: bool = False
) -> _Pass:
    """The batched inference loop every reader of a dataset shares.

    Fills preallocated arrays with probabilities, boxes (when the model
    has a head) and per-tap unit means, forwarding ``batch_size`` samples
    at a time. For a model with attention it keeps each sample's
    final-layer patch mass, the head mean and then the query mean of the
    last map; the per-layer (N, heads, P, P) maps are kept only when
    ``attention`` is set, because they grow with N·layers·heads·P².
    Each chunk is padded with zero images up to a multiple of
    ``_ROW_BLOCK`` rows, and the padding is dropped before anything is
    stored, so no product runs a BLAS row-tail kernel: a sample's outputs
    are the same bits whatever the chunk size or its place in the chunk.
    The model's forward caches are released at the end.
    """
    n = images.shape[0]
    arrays: dict[tuple, np.ndarray] = {}
    for start in range(0, n, batch_size):
        chunk = images[start : start + batch_size]
        rows = chunk.shape[0]
        if rows % _ROW_BLOCK:
            pad = np.zeros((-rows % _ROW_BLOCK, *chunk.shape[1:]))
            chunk = np.concatenate([chunk, pad])
        res = model.forward(chunk, train=False)
        parts = [(("probs",), res.probs)]
        if res.box is not None:
            parts.append((("boxes",), res.box))
        parts += [(("unit", tap), _unit_means(act)) for tap, act in res.trunk]
        if res.attention:
            parts.append((("patch_mass",), res.attention[-1].mean(axis=1).mean(axis=1)))
            if attention:
                parts += [(("attention", i), a) for i, a in enumerate(res.attention)]
        for key, value in parts:
            if key not in arrays:
                arrays[key] = np.empty((n, *value.shape[1:]))
            arrays[key][start : start + rows] = value[:rows]
    model.release()
    return _Pass(
        probs=arrays[("probs",)],
        boxes=arrays.get(("boxes",)),
        unit_means={k[1]: v for k, v in arrays.items() if k[0] == "unit"},
        patch_mass=arrays.get(("patch_mass",)),
        attention=tuple(v for k, v in arrays.items() if k[0] == "attention") or None,
    )


def evaluate(model, dataset: ArrayDataset, batch_size: int = INFERENCE_CHUNK) -> dict:
    """Deterministic eval pass: probabilities, argmax predictions, per-class
    recall, boxes when the model has a head, and per-tap unit means."""
    out = forward_pass(model, dataset.images, batch_size)
    preds = out.probs.argmax(axis=1)
    recalls: dict[str, float] = {}
    for k, name in enumerate(dataset.class_order):
        mask = dataset.labels == k
        recalls[name] = float((preds[mask] == k).mean()) if mask.any() else float("nan")
    return {
        "probs": out.probs,
        "preds": preds,
        "recalls": recalls,
        "boxes": out.boxes,
        "unit_means": out.unit_means,
        "accuracy": float((preds == dataset.labels).mean()),
    }


def train(
    model,
    train_set: ArrayDataset,
    config: TrainConfig,
    loss_fn: LossFn | None = None,
    val_set: ArrayDataset | None = None,
    epoch_hook: Callable[[object, int, dict], dict | None] | None = None,
) -> tuple[ModelSnapshot, MetricTrace]:
    """Train in place; returns an immutable snapshot plus the metric trace.

    ``loss_fn(logits, one_hot) -> (loss, grad_wrt_logits)`` defaults to
    unweighted cross-entropy. When the dataset carries boxes and the
    model has a box head, a mean-squared box loss (scaled by
    ``config.box_loss_weight``) is added. ``config.max_steps`` caps the
    total number of optimizer updates so differently sized datasets can
    be trained on an equal budget. A non-finite total loss aborts with
    the offending epoch and batch. ``epoch_hook(model, epoch, stats)`` gets
    each epoch's ``evaluate`` of ``val_set`` (else ``train_set``).
    """
    if loss_fn is None:
        loss_fn = weighted_ce_from_logits
    rng = np.random.default_rng(config.seed)
    opt = Adam(weight_decay=config.weight_decay)
    labels_oh = train_set.one_hot()
    n = len(train_set)
    trace = MetricTrace(class_order=train_set.class_order)
    fit_boxes = train_set.boxes is not None
    steps_done = 0
    budget_spent = False

    for epoch in range(config.epochs):
        lr = config.lr_schedule.lr_at(config.learning_rate, epoch, config.epochs)
        perm = rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            if config.max_steps is not None and steps_done >= config.max_steps:
                budget_spent = True
                break
            idx = perm[start : start + config.batch_size]
            model.zero_grads()
            res = model.forward(train_set.images[idx], train=True)
            logits, box = res.logits, res.box
            del res  # its probabilities and tap outputs need not outlive the step
            loss, grad_logits = loss_fn(logits, labels_oh[idx])
            grad_box = None
            total = loss
            if fit_boxes and box is not None:
                diff = box - train_set.boxes[idx]
                total += config.box_loss_weight * float(np.mean(diff * diff))
                grad_box = config.box_loss_weight * 2.0 * diff / diff.size
            if not math.isfinite(total):
                raise TrainAbort(epoch, batch_no, total)
            model.backward(grad_logits, grad_box, input_grad=False)
            opt.step(model.named_parameters(), model.named_grads(), lr)
            loss_sum += total * len(idx)
            seen += len(idx)
            steps_done += 1

        if seen:
            eval_set = val_set if val_set is not None else train_set
            stats = evaluate(model, eval_set)
            row: dict = {"epoch": epoch, "loss": loss_sum / seen, "lr": lr}
            for c, r in stats["recalls"].items():
                row[f"recall_{c}"] = r
            if epoch_hook is not None:
                extra = epoch_hook(model, epoch, stats)
                if extra:
                    row.update(extra)
            trace.rows.append(row)
        if budget_spent:
            break

    snapshot = ModelSnapshot.from_model(model, config.to_json_dict())
    return snapshot, trace
