"""Command-line surface binding the toolkit: dataset analysis, resampling,
augmentation, training, bias audits, mitigation, weight recalibration,
report rendering, and attention/relevance heatmaps.

Every subcommand writes only under ``--out`` and stores its fully-resolved
configuration next to its outputs. Exit codes: 0 success, 1 validation
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audit import (
    AuditOptions,
    BiasReport,
    Strategy,
    canonical_json,
    recalibration_loop,
    run_audit,
    run_mitigation,
)
from .augment import attention_guided_augment_plan, materialize_plan
from .behavior import extract_attention, lrp_propagate, mass_by_cell
from .detmetrics import write_metrics_csv
from .losses import compute_class_weights, weighted_ce_from_logits
from .manifest import (
    DatasetManifest,
    compute_distribution,
    load_manifest,
    write_manifest,
)
from .nn.models import build_model
from .nn.snapshot import load_snapshot, model_from_snapshot
from .nn.train import TrainConfig, train
from .nn.optim import schedule_from_config
from .pgm import write_pgm
from .sampling import ResampleMode, ResamplePlan, apply_resample
from .synthetic import (
    SyntheticConfig,
    SyntheticData,
    dataset_from_manifest,
    generate_synthetic,
    parse_share_spec,
)

ENV_SEED = "BIASLENS_SEED"


class CLIError(ValueError):
    """A problem with flags, config keys, or input files (exit code 1)."""


# ---------------------------------------------------------------------------
# defaults: one source of truth per flag group; --help renders these and the
# config-file loader validates unknown keys against them.

COMMON_DEFAULTS = {"seed": None, "jobs": 1}
DATA_DEFAULTS = {
    "synthetic": None,
    "n_samples": 600,
    "image_size": 32,
    "manifest": None,
    "images_root": None,
}
MODEL_DEFAULTS = {
    "model": "tiny_cnn",
    "channels": "8,16",
    "kernel": 3,
    "patch": 8,
    "dim": 32,
    "heads": 4,
    "layers": 4,
    "mlp_ratio": 2.0,
}
TRAIN_DEFAULTS = {
    "learning_rate": 1e-3,
    "batch_size": 32,
    "epochs": 10,
    "weight_decay": 1e-4,
    "dropout": 0.0,
    "lr_schedule": "constant",
    "box_loss_weight": 1.0,
}
AUDIT_DEFAULTS = {
    "split": "0.7,0.15,0.15",
    "iou_threshold": 0.5,
    "probe_per_class": 32,
    "sensitivity_samples": 16,
    "tau_att": 0.3,
    "kappa": 1.0,
    "tau_rel": 0.5,
    "eta": 0.5,
    "target_recall": None,
    "max_iterations": 10,
    "epsilon_gap": 0.05,
    "fn_threshold": -0.02,
    "ap_threshold": 0.01,
    "track_sensitivity": False,
}

SUBCOMMAND_DEFAULTS: dict[str, dict] = {
    "analyze": {**COMMON_DEFAULTS, "manifest": None},
    "resample": {**COMMON_DEFAULTS, "manifest": None, "mode": "Combined", "target": []},
    "augment": {
        **COMMON_DEFAULTS,
        "manifest": None,
        "images_root": None,
        "snapshot": None,
        "tau_att": AUDIT_DEFAULTS["tau_att"],
        "kappa": AUDIT_DEFAULTS["kappa"],
    },
    "train": {
        **COMMON_DEFAULTS,
        **DATA_DEFAULTS,
        **MODEL_DEFAULTS,
        **TRAIN_DEFAULTS,
        "weighted": False,
    },
    "audit": {
        **COMMON_DEFAULTS,
        **DATA_DEFAULTS,
        **MODEL_DEFAULTS,
        **TRAIN_DEFAULTS,
        **AUDIT_DEFAULTS,
        "seeds": None,
    },
    "mitigate": {
        **COMMON_DEFAULTS,
        **DATA_DEFAULTS,
        **MODEL_DEFAULTS,
        **TRAIN_DEFAULTS,
        **AUDIT_DEFAULTS,
        "seeds": None,
        "strategy": "Combined",
    },
    "recalibrate": {
        **COMMON_DEFAULTS,
        **DATA_DEFAULTS,
        **MODEL_DEFAULTS,
        **TRAIN_DEFAULTS,
        **AUDIT_DEFAULTS,
    },
    "report": {"run_dir": None},
    "heatmap": {
        **COMMON_DEFAULTS,
        **DATA_DEFAULTS,
        "snapshot": None,
        "sample_id": None,
        "index": 0,
        "layer": -1,
        "source": "attention",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A subcommand plus every resolved knob that shaped the run."""

    subcommand: str
    out_dir: Path | None
    values: dict

    def to_json_dict(self) -> dict:
        vals = {k: v for k, v in sorted(self.values.items())}
        return {"subcommand": self.subcommand, **vals}

    def write(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "config.json"
        path.write_text(canonical_json(self.to_json_dict()) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# parser construction


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CLIError(message)


def _opt(parser: argparse.ArgumentParser, flag: str, default, **kwargs) -> None:
    """Register a flag whose absence is detectable (SUPPRESS) while the
    documented default still shows in --help."""
    help_text = kwargs.pop("help", "")
    if default is not None and kwargs.get("action") != "store_true":
        help_text = f"{help_text} (default: {default})"
    elif kwargs.get("action") == "store_true":
        help_text = f"{help_text} (default: off)"
    parser.add_argument(flag, default=argparse.SUPPRESS, help=help_text, **kwargs)


def _add_common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
    if with_out:
        p.add_argument("--out", required=True, help="output directory (all artifacts go here)")
    _opt(p, "--config", None, help="JSON config file; flags override file values")
    _opt(p, "--seed", None, type=int, help=f"base seed; falls back to ${ENV_SEED}, then 0")
    _opt(p, "--jobs", COMMON_DEFAULTS["jobs"], type=int, help="parallel workers for multi-seed runs")


def _add_data(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("data source")
    _opt(g, "--synthetic", None, help='generated dataset spec: "balanced" or e.g. "imbalanced-90-5-5"')
    _opt(g, "--n-samples", DATA_DEFAULTS["n_samples"], type=int, dest="n_samples", help="synthetic sample count")
    _opt(g, "--image-size", DATA_DEFAULTS["image_size"], type=int, dest="image_size", help="synthetic square image side")
    _opt(g, "--manifest", None, help="annotation manifest (JSONL) instead of --synthetic")
    _opt(g, "--images-root", None, dest="images_root", help="root directory for manifest image refs")


def _add_model(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("model")
    _opt(g, "--model", MODEL_DEFAULTS["model"], choices=("tiny_cnn", "tiny_vit"), help="architecture")
    _opt(g, "--channels", MODEL_DEFAULTS["channels"], help="CNN conv channels, comma-separated pair")
    _opt(g, "--kernel", MODEL_DEFAULTS["kernel"], type=int, help="CNN conv kernel size")
    _opt(g, "--patch", MODEL_DEFAULTS["patch"], type=int, help="ViT patch side")
    _opt(g, "--dim", MODEL_DEFAULTS["dim"], type=int, help="ViT embedding width")
    _opt(g, "--heads", MODEL_DEFAULTS["heads"], type=int, help="ViT attention heads")
    _opt(g, "--layers", MODEL_DEFAULTS["layers"], type=int, help="ViT transformer blocks")
    _opt(g, "--mlp-ratio", MODEL_DEFAULTS["mlp_ratio"], type=float, dest="mlp_ratio", help="ViT MLP width ratio")


def _add_train(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training")
    _opt(g, "--learning-rate", TRAIN_DEFAULTS["learning_rate"], type=float, dest="learning_rate", help="Adam base learning rate")
    _opt(g, "--batch-size", TRAIN_DEFAULTS["batch_size"], type=int, dest="batch_size", help="minibatch size")
    _opt(g, "--epochs", TRAIN_DEFAULTS["epochs"], type=int, help="training epochs")
    _opt(g, "--weight-decay", TRAIN_DEFAULTS["weight_decay"], type=float, dest="weight_decay", help="L2 decay on matrix/kernel parameters")
    _opt(g, "--dropout", TRAIN_DEFAULTS["dropout"], type=float, help="dropout rate (ViT blocks and embeddings)")
    _opt(g, "--lr-schedule", TRAIN_DEFAULTS["lr_schedule"], choices=("constant", "step", "linear"), dest="lr_schedule", help="learning-rate schedule")
    _opt(g, "--box-loss-weight", TRAIN_DEFAULTS["box_loss_weight"], type=float, dest="box_loss_weight", help="box regression loss scale")


def _add_audit(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("audit")
    _opt(g, "--split", AUDIT_DEFAULTS["split"], help="train/val/test fractions, comma-separated")
    _opt(g, "--iou-threshold", AUDIT_DEFAULTS["iou_threshold"], type=float, dest="iou_threshold", help="detection match IoU threshold")
    _opt(g, "--probe-per-class", AUDIT_DEFAULTS["probe_per_class"], type=int, dest="probe_per_class", help="probe samples per class for behavior scores")
    _opt(g, "--sensitivity-samples", AUDIT_DEFAULTS["sensitivity_samples"], type=int, dest="sensitivity_samples", help="samples per class for gradient sensitivity")
    _opt(g, "--tau-att", AUDIT_DEFAULTS["tau_att"], type=float, dest="tau_att", help="attention-mass threshold for augmentation")
    _opt(g, "--kappa", AUDIT_DEFAULTS["kappa"], type=float, help="augmentation volume scale")
    _opt(g, "--tau-rel", AUDIT_DEFAULTS["tau_rel"], type=float, dest="tau_rel", help="in-box relevance threshold for duplication")
    _opt(g, "--eta", AUDIT_DEFAULTS["eta"], type=float, help="weight recalibration step size")
    _opt(g, "--target-recall", None, type=float, dest="target_recall", help="recall target for recalibration (default: best observed)")
    _opt(g, "--max-iterations", AUDIT_DEFAULTS["max_iterations"], type=int, dest="max_iterations", help="recalibration iteration cap")
    _opt(g, "--epsilon-gap", AUDIT_DEFAULTS["epsilon_gap"], type=float, dest="epsilon_gap", help="recall gap declaring convergence")
    _opt(g, "--fn-threshold", AUDIT_DEFAULTS["fn_threshold"], type=float, dest="fn_threshold", help="FN-rate delta for an 'improved' verdict")
    _opt(g, "--ap-threshold", AUDIT_DEFAULTS["ap_threshold"], type=float, dest="ap_threshold", help="AP delta for an 'improved' verdict")
    _opt(g, "--track-sensitivity", False, action="store_true", dest="track_sensitivity", help="also track gradient sensitivity per epoch")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biaslens", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = subs.add_parser("analyze", help="class/condition distribution of a manifest", description="Write the class distribution (JSON + CSV) of an annotation manifest.")
    p.add_argument("--manifest", required=True, help="annotation manifest (JSONL)")
    _add_common(p)

    p = subs.add_parser("resample", help="over/under/combined resampling of a manifest", description="Resample a manifest to target per-class counts and write the new manifest plus the plan.")
    p.add_argument("--manifest", required=True, help="annotation manifest (JSONL)")
    _opt(p, "--mode", "Combined", choices=[m.value for m in ResampleMode], help="resampling mode")
    _opt(p, "--target", [], action="append", metavar="CLASS=COUNT", help="per-class target count, repeatable (default: equalize)")
    _add_common(p)

    p = subs.add_parser("augment", help="attention-guided augmentation plan + samples", description="Plan and materialize augmentations for (class, condition) cells a ViT underattends; writes only the new samples.")
    p.add_argument("--manifest", required=True, help="annotation manifest (JSONL)")
    p.add_argument("--images-root", required=True, dest="images_root", help="root directory for manifest image refs")
    p.add_argument("--snapshot", required=True, help="trained tiny_vit snapshot")
    _opt(p, "--tau-att", AUDIT_DEFAULTS["tau_att"], type=float, dest="tau_att", help="attention-mass threshold")
    _opt(p, "--kappa", AUDIT_DEFAULTS["kappa"], type=float, help="augmentation volume scale")
    _add_common(p)

    p = subs.add_parser("train", help="train one model and save the snapshot", description="Train a model on a synthetic or manifest dataset; writes snapshot + metric trace.")
    _add_data(p)
    _add_model(p)
    _add_train(p)
    _opt(p, "--weighted", False, action="store_true", help="use inverse-frequency class weights in the loss")
    _add_common(p)

    p = subs.add_parser("audit", help="baseline bias audit (pre-mitigation report)", description="Train the unweighted baseline and write the pre-mitigation bias report.")
    _add_data(p)
    _add_model(p)
    _add_train(p)
    _add_audit(p)
    _opt(p, "--seeds", None, help="comma-separated seed list for a multi-seed run")
    _add_common(p)

    p = subs.add_parser("mitigate", help="audit + mitigation + post report", description="Run the audit, apply a mitigation strategy, retrain, and write the pre+post report.")
    _opt(p, "--strategy", "Combined", choices=[s.value for s in Strategy], help="mitigation strategy")
    _add_data(p)
    _add_model(p)
    _add_train(p)
    _add_audit(p)
    _opt(p, "--seeds", None, help="comma-separated seed list for a multi-seed run")
    _add_common(p)

    p = subs.add_parser("recalibrate", help="iterative class-weight recalibration", description="Retrain with dynamically adjusted class weights until the recall gap closes.")
    _add_data(p)
    _add_model(p)
    _add_train(p)
    _add_audit(p)
    _add_common(p)

    p = subs.add_parser("report", help="render a stored report as text", description="Rebuild the human-readable summary from a run directory's report.json.")
    p.add_argument("--run-dir", required=True, dest="run_dir", help="run directory containing report.json")
    p.add_argument("--out", required=False, help="write report.txt here instead of stdout")

    p = subs.add_parser("heatmap", help="attention or relevance heatmap for one sample", description="Export a patch-grid heatmap (PGM + CSV) of ViT attention mass or propagated relevance.")
    p.add_argument("--snapshot", required=True, help="trained tiny_vit snapshot")
    _add_data(p)
    _opt(p, "--sample-id", None, dest="sample_id", help="sample to visualize (default: --index)")
    _opt(p, "--index", 0, type=int, help="sample index when no --sample-id is given")
    _opt(p, "--layer", -1, type=int, help="attention layer (-1 = final)")
    _opt(p, "--source", "attention", choices=("attention", "relevance"), help="map to export")
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# config resolution


# Keys whose default is None take the type their flag parses to; str unless listed.
_NULL_DEFAULT_KINDS = {"seed": int, "target_recall": float}


def _is_kind(value, kind: type, nullable: bool) -> bool:
    """Whether a config-file value is what the key's flag would parse to."""
    if value is None:
        return nullable
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float))
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, kind)


def resolve_config(subcommand: str, explicit: dict, out_dir: str | None) -> RunConfig:
    defaults = SUBCOMMAND_DEFAULTS[subcommand]
    resolved = dict(defaults)
    config_path = explicit.pop("config", None)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise CLIError(f"config file not found: {path}")
        try:
            file_values = json.loads(path.read_bytes().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # decode, JSON and nesting errors
            raise CLIError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise CLIError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(file_values) - set(defaults))
        if unknown:
            raise CLIError(
                f"config file {path}: unknown config keys for {subcommand!r}: "
                f"{', '.join(unknown)}"
            )
        for key, value in file_values.items():
            default = defaults[key]
            kind = _NULL_DEFAULT_KINDS.get(key, str) if default is None else type(default)
            if not _is_kind(value, kind, nullable=default is None):
                raise CLIError(
                    f"config file {path}: {key} must be {kind.__name__}, got {value!r}"
                )
        resolved.update(file_values)
    resolved.update(explicit)
    if "seed" in defaults and resolved.get("seed") is None:
        env = os.environ.get(ENV_SEED)
        if env is not None:
            try:
                resolved["seed"] = int(env)
            except ValueError:
                raise CLIError(f"${ENV_SEED} must be an integer, got {env!r}") from None
        else:
            resolved["seed"] = 0
    return RunConfig(
        subcommand=subcommand,
        out_dir=Path(out_dir) if out_dir is not None else None,
        values=resolved,
    )


def _parse_int_tuple(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in str(text).split(","))
    except ValueError:
        raise CLIError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_float_tuple(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise CLIError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _load_data(cfg: RunConfig) -> SyntheticData:
    v = cfg.values
    if v.get("manifest"):
        manifest_path = Path(v["manifest"])
        if not manifest_path.exists():
            raise CLIError(f"manifest file not found: {manifest_path}")
        manifest = load_manifest(manifest_path)
        root = v.get("images_root")
        if root is None:
            raise CLIError("--images-root is required when loading from --manifest")
        return dataset_from_manifest(manifest, root)
    spec = v.get("synthetic") or "balanced"
    shares = parse_share_spec(spec)
    side = int(v["image_size"])
    return generate_synthetic(
        SyntheticConfig(
            n_samples=int(v["n_samples"]),
            shares=shares,
            image_hw=(side, side),
            seed=int(v["seed"]),
        )
    )


def _arch_from_config(cfg: RunConfig, data: SyntheticData) -> dict:
    """Model architecture from the flags; the input size comes from the
    loaded images, which for --manifest data is the manifest's, not
    --image-size."""
    v = cfg.values
    h, w = data.dataset.images.shape[2:]
    arch: dict = {"input_hw": (h, w)}
    if v["model"] == "tiny_cnn":
        channels = _parse_int_tuple(v["channels"], "--channels")
        if len(channels) != 2:
            raise CLIError(f"--channels expects two values, got {v['channels']!r}")
        arch.update({"channels": channels, "kernel": int(v["kernel"])})
    else:
        arch.update(
            {
                "patch": int(v["patch"]),
                "dim": int(v["dim"]),
                "n_heads": int(v["heads"]),
                "n_layers": int(v["layers"]),
                "mlp_ratio": float(v["mlp_ratio"]),
            }
        )
    return arch


def _train_config(cfg: RunConfig, seed: int) -> TrainConfig:
    v = cfg.values
    return TrainConfig(
        learning_rate=float(v["learning_rate"]),
        batch_size=int(v["batch_size"]),
        epochs=int(v["epochs"]),
        weight_decay=float(v["weight_decay"]),
        dropout=float(v["dropout"]),
        lr_schedule=schedule_from_config({"kind": v["lr_schedule"]}),
        seed=seed,
        box_loss_weight=float(v["box_loss_weight"]),
    )


def _audit_options(cfg: RunConfig, seed: int, data: SyntheticData) -> AuditOptions:
    v = cfg.values
    split = _parse_float_tuple(v["split"], "--split")
    if len(split) != 3:
        raise CLIError(f"--split expects three fractions, got {v['split']!r}")
    return AuditOptions(
        model_kind=v["model"],
        train=_train_config(cfg, seed),
        seed=seed,
        split=split,  # type: ignore[arg-type]
        iou_threshold=float(v["iou_threshold"]),
        probe_per_class=int(v["probe_per_class"]),
        sensitivity_samples=int(v["sensitivity_samples"]),
        tau_att=float(v["tau_att"]),
        kappa=float(v["kappa"]),
        tau_rel=float(v["tau_rel"]),
        eta=float(v["eta"]),
        target_recall=v["target_recall"],
        max_recal_iterations=int(v["max_iterations"]),
        epsilon_gap=float(v["epsilon_gap"]),
        fn_delta_threshold=float(v["fn_threshold"]),
        ap_delta_threshold=float(v["ap_threshold"]),
        arch=_arch_from_config(cfg, data),
        track_sensitivity=bool(v["track_sensitivity"]),
    )


def _seed_list(cfg: RunConfig) -> list[int]:
    if cfg.values.get("seeds"):
        return list(_parse_int_tuple(cfg.values["seeds"], "--seeds"))
    return [int(cfg.values["seed"])]


def _data_for_seed(cfg: RunConfig, seed: int) -> SyntheticData:
    """Manifest data is fixed; synthetic data is regenerated per seed."""
    if cfg.values.get("manifest"):
        return _load_data(cfg)
    per_seed = RunConfig(cfg.subcommand, cfg.out_dir, {**cfg.values, "seed": seed})
    return _load_data(per_seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(cfg: RunConfig) -> int:
    manifest_path = Path(cfg.values["manifest"])
    if not manifest_path.exists():
        raise CLIError(f"manifest file not found: {manifest_path}")
    manifest = load_manifest(manifest_path)
    dist = compute_distribution(manifest)
    cfg.write()
    out = cfg.out_dir
    (out / "distribution.json").write_text(
        canonical_json(dist.to_json_dict()) + "\n", encoding="utf-8"
    )
    classes = sorted(dist.counts)
    with (out / "distribution.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("class,count,percentage\n")
        for c in classes:
            fh.write(f"{c},{dist.counts[c]},{dist.percentages[c]:.4f}\n")
    rows = [
        {**{c: counts.get(c, 0) for c in classes}, "total": sum(counts.values()), "condition": cond.value}
        for cond, counts in sorted(dist.per_condition.items(), key=lambda kv: kv[0].value)
    ]
    write_metrics_csv(rows, classes, "count", out / "condition_counts.csv")
    for c in classes:
        print(f"{c}: {dist.counts[c]} ({dist.percentages[c]:.2f}%)")
    print(f"total: {dist.total}")
    return 0


def cmd_resample(cfg: RunConfig) -> int:
    manifest_path = Path(cfg.values["manifest"])
    if not manifest_path.exists():
        raise CLIError(f"manifest file not found: {manifest_path}")
    manifest = load_manifest(manifest_path)
    mode = ResampleMode(cfg.values["mode"])
    counts = compute_distribution(manifest).counts
    targets: dict[str, int] = {}
    for item in cfg.values["target"]:
        if "=" not in item:
            raise CLIError(f"--target expects CLASS=COUNT, got {item!r}")
        name, _, value = item.partition("=")
        try:
            targets[name] = int(value)
        except ValueError:
            raise CLIError(f"--target count must be an integer, got {item!r}") from None
    if not targets:
        if mode is ResampleMode.OVERSAMPLE:
            targets = {c: max(counts.values()) for c in counts}
        elif mode is ResampleMode.UNDERSAMPLE:
            targets = {c: min(counts.values()) for c in counts}
        else:
            targets = {c: int(np.median(sorted(counts.values()))) for c in counts}
    plan = ResamplePlan(target_counts=targets, mode=mode, seed=int(cfg.values["seed"]))
    resampled = apply_resample(manifest, plan)
    cfg.write()
    out = cfg.out_dir
    write_manifest(resampled, out / "resampled.jsonl")
    (out / "plan.json").write_text(canonical_json(plan.to_json_dict()) + "\n", encoding="utf-8")
    new_dist = compute_distribution(resampled)
    (out / "distribution.json").write_text(
        canonical_json({"counts": dict(sorted(new_dist.counts.items())), "total": new_dist.total}) + "\n",
        encoding="utf-8",
    )
    for c in sorted(new_dist.counts):
        print(f"{c}: {counts.get(c, 0)} -> {new_dist.counts[c]}")
    return 0


def _load_model(cfg: RunConfig):
    """The model stored in the ``--snapshot`` file."""
    path = Path(cfg.values["snapshot"])
    if not path.exists():
        raise CLIError(f"snapshot file not found: {path}")
    snapshot = load_snapshot(path)
    try:
        return model_from_snapshot(snapshot)
    except ValueError as exc:
        raise CLIError(f"{path}: {exc}") from None


def cmd_augment(cfg: RunConfig) -> int:
    manifest_path = Path(cfg.values["manifest"])
    if not manifest_path.exists():
        raise CLIError(f"manifest file not found: {manifest_path}")
    model = _load_model(cfg)
    manifest = load_manifest(manifest_path)
    data = dataset_from_manifest(manifest, cfg.values["images_root"])
    summary = extract_attention(
        model, data.dataset, conditions=[c.value for c in data.conditions]
    )
    masses = mass_by_cell(summary, data.manifest.records)
    plan = attention_guided_augment_plan(
        masses,
        compute_distribution(data.manifest),
        float(cfg.values["tau_att"]),
        float(cfg.values["kappa"]),
    )
    cfg.write()
    out = cfg.out_dir
    (out / "plan.json").write_text(
        canonical_json([r.to_json_dict() for r in plan]) + "\n", encoding="utf-8"
    )
    (out / "images").mkdir(parents=True, exist_ok=True)
    new_records = []
    for record, image in zip(*materialize_plan(plan, data.manifest.records, data.dataset.images)):
        ref = f"images/{record.sample_id}.pgm"
        write_pgm(image, out / ref)
        new_records.append(replace(record, image_ref=ref))
    write_manifest(
        DatasetManifest(records=tuple(new_records), taxonomy=manifest.taxonomy, seed=manifest.seed),
        out / "augmented.jsonl",
    )
    print(f"plan entries: {len(plan)}; new samples written: {len(new_records)}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    seed = int(cfg.values["seed"])
    data = _load_data(cfg)
    arch = {"kind": cfg.values["model"], "n_classes": len(data.dataset.class_order), **_arch_from_config(cfg, data)}
    if cfg.values["model"] == "tiny_vit":
        arch.setdefault("dropout", float(cfg.values["dropout"]))
    model = build_model(arch, seed=seed)
    loss_fn = None
    if cfg.values["weighted"]:
        weights = compute_class_weights(compute_distribution(data.manifest))
        w_vec = weights.as_vector(data.dataset.class_order)

        def loss_fn(logits, labels):  # noqa: F811 - deliberate rebind
            return weighted_ce_from_logits(logits, labels, w_vec)

    snapshot, trace = train(model, data.dataset, _train_config(cfg, seed), loss_fn=loss_fn)
    cfg.write()
    out = cfg.out_dir
    snapshot.save(out / "model.snapshot")
    trace.write_csv(out / "trace.csv")
    recalls = trace.final_recalls()
    print(f"trained {cfg.values['model']} ({model.n_parameters()} parameters), {len(trace.rows)} epochs")
    for c in sorted(recalls):
        print(f"recall {c}: {recalls[c]:.4f}")
    return 0


def _audit_one(payload: tuple) -> dict:
    """One seed's audit (and optional mitigation); simple args so the
    multi-seed path can run under a process pool deterministically."""
    cfg_values, subcommand, out_dir, seed, strategy_name = payload
    cfg = RunConfig(subcommand, Path(out_dir), cfg_values)
    data = _data_for_seed(cfg, seed)
    options = _audit_options(cfg, seed, data)
    run = run_audit(data, options, out_dir=cfg.out_dir)
    summary: dict = {"seed": seed, "run_dir": str(run.run_dir)}
    report = run.report
    if strategy_name is not None:
        mitigated = run_mitigation(run, Strategy(strategy_name), out_dir=cfg.out_dir)
        report = mitigated.report
        summary["run_dir"] = str(mitigated.run_dir)
        summary["verdicts"] = report.verdicts
        summary["deltas"] = report.deltas
    summary["accuracy"] = report.pre["accuracy"]
    summary["map"] = report.pre["map"]
    if report.post is not None:
        summary["post_accuracy"] = report.post["accuracy"]
        summary["post_map"] = report.post["map"]
    return summary


def _run_seeds(cfg: RunConfig, strategy_name: str | None) -> list[dict]:
    seeds = _seed_list(cfg)
    jobs = int(cfg.values["jobs"])
    payloads = [
        (cfg.values, cfg.subcommand, str(cfg.out_dir), seed, strategy_name)
        for seed in seeds
    ]
    if jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_audit_one, payloads))
    return [_audit_one(p) for p in payloads]


def cmd_audit(cfg: RunConfig) -> int:
    cfg.write()
    summaries = _run_seeds(cfg, None)
    for s in summaries:
        print(f"seed {s['seed']}: accuracy {s['accuracy']:.4f} mAP {s['map']:.4f} -> {s['run_dir']}")
    (cfg.out_dir / "summary.json").write_text(
        canonical_json(summaries) + "\n", encoding="utf-8"
    )
    return 0


def cmd_mitigate(cfg: RunConfig) -> int:
    cfg.write()
    summaries = _run_seeds(cfg, cfg.values["strategy"])
    for s in summaries:
        verdicts = ", ".join(f"{c}={v}" for c, v in sorted(s["verdicts"].items()))
        print(
            f"seed {s['seed']}: accuracy {s['accuracy']:.4f} -> {s['post_accuracy']:.4f}; {verdicts}"
        )
    (cfg.out_dir / "summary.json").write_text(
        canonical_json(summaries) + "\n", encoding="utf-8"
    )
    return 0


def cmd_recalibrate(cfg: RunConfig) -> int:
    seed = int(cfg.values["seed"])
    data = _data_for_seed(cfg, seed)
    options = _audit_options(cfg, seed, data)
    state, rows = recalibration_loop(data, options)
    cfg.write()
    payload = {
        "converged": state.converged,
        "iterations": state.iteration,
        "weights": state.weights.to_json_dict(),
        "history": [w.to_json_dict() for w in state.history],
        "rows": rows,
    }
    (cfg.out_dir / "recalibration.json").write_text(
        canonical_json(payload) + "\n", encoding="utf-8"
    )
    last_gap = rows[-1]["gap"] if rows else float("nan")
    print(
        f"recalibration {'converged' if state.converged else 'stopped'} after "
        f"{state.iteration} adjustment(s); final recall gap {last_gap:.4f}"
    )
    return 0


def cmd_report(cfg: RunConfig) -> int:
    run_dir = Path(cfg.values["run_dir"])
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise CLIError(f"no report.json under {run_dir}")
    obj = json.loads(report_path.read_text(encoding="utf-8"))
    report = BiasReport(
        dataset=obj["dataset"],
        options=obj["options"],
        seed=obj["seed"],
        config_hash=obj["config_hash"],
        pre=obj["pre"],
        correlation=obj["correlation"],
        post=obj.get("post"),
        mitigation=obj.get("mitigation"),
        deltas=obj.get("deltas"),
        verdicts=obj.get("verdicts"),
    )
    text = report.text_summary()
    if cfg.out_dir is not None:
        cfg.write()
        (cfg.out_dir / "report.txt").write_text(text, encoding="utf-8")
        print(f"wrote {cfg.out_dir / 'report.txt'}")
    else:
        print(text, end="")
    return 0


def cmd_heatmap(cfg: RunConfig) -> int:
    from .behavior import export_heatmap

    model = _load_model(cfg)
    data = _load_data(cfg)
    sample_id = cfg.values.get("sample_id")
    if sample_id is not None:
        ids = data.dataset.sample_ids or ()
        if sample_id not in ids:
            raise CLIError(f"sample id {sample_id!r} not in dataset")
        index = ids.index(sample_id)
    else:
        index = int(cfg.values["index"])
        if not (0 <= index < len(data.dataset)):
            raise CLIError(f"--index {index} out of range for {len(data.dataset)} samples")
        sample_id = (data.dataset.sample_ids or [f"sample-{index}"])[index]

    source = cfg.values["source"]
    res = model.forward(data.dataset.images[index : index + 1], train=False)
    if res.attention is None:
        raise CLIError("snapshot model exposes no attention; use a tiny_vit snapshot")
    if source == "attention":
        layer = int(cfg.values["layer"])
        n_layers = len(res.attention)
        if not (-n_layers <= layer < n_layers):
            raise CLIError(f"--layer {layer} out of range for {n_layers} layers")
        mean_heads = res.attention[layer][0].mean(axis=0)  # (P, P)
        grid_map = mean_heads.mean(axis=0).reshape(model.grid)
    else:
        class_index = int(res.probs[0].argmax())
        rmap = lrp_propagate(res.attention, class_index, sample=0, grid=model.grid)
        grid_map = rmap.as_grid()
    cfg.write()
    pgm_path, csv_path = export_heatmap(grid_map, cfg.out_dir / f"{source}-{sample_id}")
    print(f"wrote {pgm_path} and {csv_path}")
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "resample": cmd_resample,
    "augment": cmd_augment,
    "train": cmd_train,
    "audit": cmd_audit,
    "mitigate": cmd_mitigate,
    "recalibrate": cmd_recalibrate,
    "report": cmd_report,
    "heatmap": cmd_heatmap,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)
    subcommand = getattr(namespace, "subcommand", None)
    if subcommand is None:
        parser.print_help()
        return 1
    explicit = {k: v for k, v in vars(namespace).items() if k not in ("subcommand", "out")}
    out_dir = getattr(namespace, "out", None)
    try:
        cfg = resolve_config(subcommand, explicit, out_dir)
        return COMMANDS[subcommand](cfg)
    except (ValueError, OSError) as exc:  # CLIError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - contract: runtime failure -> 2
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
