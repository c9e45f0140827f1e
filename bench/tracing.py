"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of each biaslens module from
outside the package: nothing under ``src/`` knows it is being traced. Each
call becomes a span (name, start, end, parent span, batch size). Spans stay
in memory and are written out when the run ends; the per-module metrics are
derived from them one round at a time.

Busy time of a name sums the spans of that name that are not nested in
another span of the same name. Self time is a span's duration minus the part
its direct child spans cover.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import sys
import time
from pathlib import Path


def _rows(pos: int, name: str):
    """Size of a call: the first dimension of one argument."""

    def size(args, kwargs, result):
        value = args[pos] if len(args) > pos else kwargs[name]
        return int(value.shape[0])

    return size


def _length(pos: int, name: str):
    def size(args, kwargs, result):
        value = args[pos] if len(args) > pos else kwargs[name]
        return len(value)

    return size


def _result_length(args, kwargs, result):
    return len(result)


# (module, attribute or Class.method, span name, size of the call)
TARGETS = (
    ("biaslens.nn.layers", "Conv2D.forward", "nn.layers.conv2d_forward", _rows(1, "x")),
    ("biaslens.nn.layers", "Conv2D.backward", "nn.layers.conv2d_backward", _rows(1, "dy")),
    ("biaslens.nn.layers", "MaxPool2D.forward", "nn.layers.maxpool2d_forward", _rows(1, "x")),
    ("biaslens.nn.layers", "MaxPool2D.backward", "nn.layers.maxpool2d_backward", _rows(1, "dy")),
    ("biaslens.nn.layers", "Dense.forward", "nn.layers.dense_forward", _rows(1, "x")),
    ("biaslens.nn.layers", "Dense.backward", "nn.layers.dense_backward", _rows(1, "dy")),
    ("biaslens.nn.layers", "LayerNorm.forward", "nn.layers.layernorm_forward", _rows(1, "x")),
    ("biaslens.nn.layers", "LayerNorm.backward", "nn.layers.layernorm_backward", _rows(1, "dy")),
    ("biaslens.nn.layers", "GELU.forward", "nn.layers.gelu_forward", _rows(1, "x")),
    ("biaslens.nn.layers", "GELU.backward", "nn.layers.gelu_backward", _rows(1, "dy")),
    ("biaslens.nn.attention", "MultiHeadSelfAttention.forward", "nn.attention.forward", _rows(1, "x")),
    ("biaslens.nn.attention", "MultiHeadSelfAttention.backward", "nn.attention.backward", _rows(1, "dy")),
    ("biaslens.nn.models", "SpatialBoxHead.forward", "nn.models.box_head_forward", _rows(1, "cells")),
    ("biaslens.nn.models", "SpatialBoxHead.backward", "nn.models.box_head_backward", _rows(1, "dy")),
    ("biaslens.nn.models", "TinyCNN.forward", "nn.models.forward", _rows(1, "x")),
    ("biaslens.nn.models", "TinyViT.forward", "nn.models.forward", _rows(1, "x")),
    ("biaslens.nn.models", "TinyCNN.backward", "nn.models.backward", _rows(1, "grad_logits")),
    ("biaslens.nn.models", "TinyViT.backward", "nn.models.backward", _rows(1, "grad_logits")),
    ("biaslens.nn.models", "TinyCNN.backward_from_tap", "nn.models.backward_from_tap", _rows(2, "seed_grad")),
    ("biaslens.nn.models", "TinyViT.backward_from_tap", "nn.models.backward_from_tap", _rows(2, "seed_grad")),
    ("biaslens.nn.optim", "Adam.step", "nn.optim.adam_step", None),
    ("biaslens.nn.train", "train", "nn.train.train", _length(1, "train_set")),
    ("biaslens.nn.train", "evaluate", "nn.train.evaluate", _length(1, "dataset")),
    ("biaslens.losses", "weighted_ce_from_logits", "losses.loss", _rows(0, "logits")),
    ("biaslens.behavior", "BehaviorTracker.observe", "behavior.observe", None),
    ("biaslens.behavior", "sensitivity_score", "behavior.sensitivity", _rows(1, "images")),
    ("biaslens.behavior", "unit_activation_matrix", "behavior.unit_activations", _rows(1, "images")),
    ("biaslens.behavior", "extract_attention", "behavior.extract_attention", _length(1, "dataset")),
    ("biaslens.behavior", "lrp_propagate", "behavior.lrp_propagate", None),
    ("biaslens.audit", "run_audit", "audit.run_audit", None),
    ("biaslens.audit", "run_mitigation", "audit.run_mitigation", None),
    ("biaslens.audit", "evaluate_side", "audit.evaluate_side", None),
    ("biaslens.audit", "write_run_artifacts", "audit.artifacts", None),
    ("biaslens.detmetrics", "match_detections", "detmetrics.match", _length(0, "detections")),
    ("biaslens.augment", "apply_augment", "augment.apply", None),
    ("biaslens.sampling", "apply_resample", "sampling.resample", None),
    ("biaslens.sampling", "combined_resample", "sampling.resample", None),
    ("biaslens.manifest", "load_manifest", "manifest.load", _result_length),
    ("biaslens.manifest", "compute_distribution", "manifest.distribution", None),
    ("biaslens.manifest", "write_manifest", "manifest.write", None),
    ("biaslens.synthetic", "dataset_from_manifest", "synthetic.dataset_from_manifest", None),
    ("biaslens.pgm", "read_pgm", "pgm.read", None),
    ("biaslens.nn.snapshot", "ModelSnapshot.save", "nn.snapshot.save", None),
    ("biaslens.cli", "main", "cli.main", None),
)

# Direct children of run_mitigation that are training, evaluation or
# artifact writing; what remains of its span is mitigation preparation.
_NOT_PREP = frozenset({"nn.train.train", "audit.evaluate_side", "audit.artifacts"})

# Spans grouped by batch size in the layer table.
_LAYER_PREFIXES = ("nn.layers.", "nn.attention.", "nn.models.box_head")


class Tracer:
    """Records spans of the wrapped biaslens calls of one process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, size, nested in same name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: collections.Counter = collections.Counter()

    def _wrap(self, name: str, fn, size_of):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0, active[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    span[4] = size_of(args, kwargs, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                active[name] -= 1

        return traced

    def install(self) -> None:
        """Wrap every target. A function is replaced in every biaslens
        module that imported it by name, so calls through those names are
        traced too."""
        for module_name, attr, span_name, size_of in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(span_name, original, size_of))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, size_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "biaslens" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write_spans(self, path: Path) -> None:
        """One CSV line per span: name, start, end (s), parent index, size."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,size\n")
            for name, start, end, parent, size, _nested in self.spans:
                fh.write(f"{name},{start:.7f},{end:.7f},{parent},{size}\n")


def module_metrics(all_spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-module metrics of the spans with index in [first, last)."""
    spans = collections.defaultdict(list)  # name -> [(index, span)]
    children: dict[int, list[list]] = collections.defaultdict(list)
    for i, s in enumerate(all_spans[first:last], start=first):
        spans[s[0]].append((i, s))
        if s[3] >= first:
            children[s[3]].append(s)

    def _busy(name: str) -> float:
        return sum(s[2] - s[1] for _, s in spans[name] if not s[5])

    def _count(name: str) -> int:
        return len(spans[name])

    def _size(name: str) -> int:
        return sum(s[4] for _, s in spans[name])

    def self_time(name: str, exclude=None) -> float:
        total = 0.0
        for i, s in spans[name]:
            covered = sum(
                c[2] - c[1] for c in children[i] if exclude is None or c[0] in exclude
            )
            total += (s[2] - s[1]) - covered
        return total

    train_s = _busy("nn.train.train")
    trained = _size("nn.models.backward")
    return {
        "nn.layers.conv2d_forward_s": _busy("nn.layers.conv2d_forward"),
        "nn.layers.conv2d_backward_s": _busy("nn.layers.conv2d_backward"),
        "nn.layers.maxpool2d_forward_s": _busy("nn.layers.maxpool2d_forward"),
        "nn.layers.maxpool2d_backward_s": _busy("nn.layers.maxpool2d_backward"),
        "nn.layers.dense_s": _busy("nn.layers.dense_forward") + _busy("nn.layers.dense_backward"),
        "nn.layers.layernorm_s": _busy("nn.layers.layernorm_forward") + _busy("nn.layers.layernorm_backward"),
        "nn.layers.gelu_s": _busy("nn.layers.gelu_forward") + _busy("nn.layers.gelu_backward"),
        "nn.attention.forward_s": _busy("nn.attention.forward"),
        "nn.attention.backward_s": _busy("nn.attention.backward"),
        "nn.models.forward_calls": _count("nn.models.forward"),
        "nn.models.forward_samples": _size("nn.models.forward"),
        "nn.models.forward_s": _busy("nn.models.forward"),
        "nn.models.backward_calls": _count("nn.models.backward"),
        "nn.models.backward_s": _busy("nn.models.backward"),
        "nn.models.backward_from_tap_calls": _count("nn.models.backward_from_tap"),
        "nn.models.backward_from_tap_s": _busy("nn.models.backward_from_tap"),
        "nn.models.box_head_s": _busy("nn.models.box_head_forward") + _busy("nn.models.box_head_backward"),
        "nn.optim.adam_steps": _count("nn.optim.adam_step"),
        "nn.optim.adam_step_s": _busy("nn.optim.adam_step"),
        "nn.train.train_s": train_s,
        "nn.train.steps": _count("nn.models.backward"),
        "nn.train.samples_per_s": trained / train_s if train_s > 0 else 0.0,
        "nn.train.evaluate_calls": _count("nn.train.evaluate"),
        "nn.train.evaluate_samples": _size("nn.train.evaluate"),
        "nn.train.evaluate_s": _busy("nn.train.evaluate"),
        "losses.loss_s": _busy("losses.loss"),
        "behavior.observe_s": _busy("behavior.observe"),
        "behavior.sensitivity_calls": _count("behavior.sensitivity"),
        "behavior.sensitivity_s": _busy("behavior.sensitivity"),
        "behavior.unit_activations_s": _busy("behavior.unit_activations"),
        "behavior.extract_attention_s": _busy("behavior.extract_attention"),
        "behavior.lrp_propagate_s": _busy("behavior.lrp_propagate"),
        "audit.evaluate_side_s": _busy("audit.evaluate_side"),
        "audit.mitigation_prep_s": self_time("audit.run_mitigation", _NOT_PREP),
        "audit.artifacts_s": _busy("audit.artifacts"),
        "detmetrics.match_s": _busy("detmetrics.match"),
        "augment.apply_calls": _count("augment.apply"),
        "augment.apply_s": _busy("augment.apply"),
        "sampling.resample_s": _busy("sampling.resample"),
        "manifest.load_s": _busy("manifest.load"),
        "manifest.records_loaded": _size("manifest.load"),
        "manifest.distribution_s": _busy("manifest.distribution"),
        "manifest.write_s": _busy("manifest.write"),
        "synthetic.dataset_from_manifest_s": _busy("synthetic.dataset_from_manifest"),
        "pgm.read_calls": _count("pgm.read"),
        "nn.snapshot.save_s": _busy("nn.snapshot.save"),
        "cli.self_s": self_time("cli.main"),
    }


def layer_table(spans: list[list]) -> list[dict]:
    """Layer forward/backward calls grouped by span name and batch size."""
    groups: dict[tuple[str, int], list[float]] = collections.defaultdict(list)
    for s in spans:
        if s[0].startswith(_LAYER_PREFIXES):
            groups[(s[0], s[4])].append(s[2] - s[1])
    return [
        {
            "span": name,
            "batch": batch,
            "calls": len(durations),
            "total_s": sum(durations),
            "median_us": statistics.median(durations) * 1e6,
        }
        for (name, batch), durations in sorted(groups.items())
    ]


METRIC_NAMES = tuple(module_metrics([], 0, 0))


def unit_of(name: str) -> str:
    """Unit of a traced metric, read from its name."""
    if name.endswith("_per_s"):
        return "samples/s"
    return "s" if name.endswith("_s") else "count"
