"""The ``biaslens`` command line; ``DESCRIPTION`` is its ``--help`` text.

Every flag is one ``Flag`` row holding its flag, type, default, help and
choices or action: in ``COMMON``, in one of the ``GROUPS`` or in a
``SUBCOMMANDS`` entry. The parser, ``--help``, each subcommand's defaults and
the type check and conversion of ``--config`` values are all derived from
those rows, so a new flag is one row of the table.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from .audit import (
    AUGMENT_NEEDS_VIT,
    AuditOptions,
    BiasReport,
    Strategy,
    attention_augmentation,
    canonical_json,
    fit,
    recalibration_loop,
    run_audit,
    run_mitigation,
)
from .behavior import export_heatmap, lrp_propagate
from .detmetrics import write_metrics_csv
from .losses import compute_class_weights
from .manifest import (
    DatasetManifest,
    class_counts,
    compute_distribution,
    load_manifest,
    write_manifest,
)
from .nn.models import TinyCNN, TinyViT
from .nn.snapshot import load_snapshot, model_from_snapshot
from .nn.train import TrainConfig, forward_pass
from .nn.optim import schedule_from_config
from .sampling import ResampleMode, ResamplePlan, apply_resample, combined_resample
from .synthetic import (
    SyntheticConfig,
    SyntheticData,
    dataset_from_manifest,
    generate_synthetic,
    parse_share_spec,
    write_dataset,
)

ENV_SEED = "BIASLENS_SEED"

DESCRIPTION = """Command-line surface binding the toolkit: dataset analysis, resampling,
augmentation, training, bias audits, mitigation, weight recalibration,
report rendering, and attention/relevance heatmaps.

Every subcommand writes only under ``--out`` and stores its fully-resolved
configuration next to its outputs. Exit codes: 0 success, 1 validation
error, 2 runtime failure.
"""


class CLIError(ValueError):
    """A problem with flags, config keys, or input files (exit code 1)."""


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
# config resolution


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
    flags = SUBCOMMANDS[subcommand].config_flags()
    resolved = SUBCOMMANDS[subcommand].defaults()
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
        unknown = sorted(set(file_values) - set(flags))
        if unknown:
            raise CLIError(
                f"config file {path}: unknown config keys for {subcommand!r}: "
                f"{', '.join(unknown)}"
            )
        for key, value in file_values.items():
            flag = flags[key]
            if not _is_kind(value, flag.kind, nullable=flag.default is None):
                raise CLIError(
                    f"config file {path}: {key} must be {flag.kind.__name__}, got {value!r}"
                )
            if flag.choices is not None and value not in flag.choices:
                raise CLIError(
                    f"config file {path}: {key} must be one of {', '.join(flag.choices)}, got {value!r}"
                )
            try:  # as the flag parses it: an integer for a float flag becomes a float
                resolved[key] = value if value is None else flag.kind(value)
            except OverflowError:
                raise CLIError(f"config file {path}: {key} is too large for a float") from None
    resolved.update(explicit)
    for key, value in resolved.items():  # before any work: NaN passes every range check
        if isinstance(value, float) and not math.isfinite(value):
            raise CLIError(f"{_API_NAMES.get(key, key)} must be finite, got {value}")
    if "seed" in flags:
        source = "--seed" if "seed" in explicit else f"config file {config_path}: seed"
        if resolved.get("seed") is None:
            source, env = f"${ENV_SEED}", os.environ.get(ENV_SEED)
            try:
                resolved["seed"] = 0 if env is None else int(env)
            except ValueError:
                raise CLIError(f"{source} must be an integer, got {env!r}") from None
        _check_seed(resolved["seed"], source)
    return RunConfig(
        subcommand=subcommand,
        out_dir=Path(out_dir) if out_dir is not None else None,
        values=resolved,
    )


def _check_seed(seed: int, source: str) -> None:
    """numpy's generators take no negative seed; reject one before any work."""
    if seed < 0:
        raise CLIError(f"{source} must be a non-negative integer, got {seed}")


def _parse_tuple(text: str, flag: str, kind: type = int) -> tuple:
    try:
        return tuple(kind(v) for v in str(text).split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise CLIError(f"{flag} expects comma-separated {noun}, got {text!r}") from None


def _load_manifest(cfg: RunConfig) -> DatasetManifest:
    path = Path(cfg.values["manifest"])
    if not path.exists():
        raise CLIError(f"manifest file not found: {path}")
    return load_manifest(path)


def _load_data(cfg: RunConfig) -> SyntheticData:
    v = cfg.values
    if v.get("manifest"):
        manifest = _load_manifest(cfg)
        root = v.get("images_root")
        if root is None:
            raise CLIError("--images-root is required when loading from --manifest")
        return dataset_from_manifest(manifest, root)
    side = v["image_size"]
    return generate_synthetic(
        SyntheticConfig(
            n_samples=v["n_samples"],
            shares=parse_share_spec(v.get("synthetic") or "balanced"),
            image_hw=(side, side),
            seed=v["seed"],
        )
    )


# Keys whose API field is named differently; every other key is its field's name.
_API_NAMES = {
    "model": "model_kind",
    "heads": "n_heads",
    "layers": "n_layers",
    "max_iterations": "max_recal_iterations",
    "fn_threshold": "fn_delta_threshold",
    "ap_threshold": "ap_delta_threshold",
}


def _api_values(cfg: RunConfig, group: str) -> dict:
    """The resolved values of one of the ``GROUPS``, under their API names."""
    return {_API_NAMES.get(f.key, f.key): cfg.values[f.key] for f in GROUPS[group]}


def _model_options(cfg: RunConfig) -> dict:
    """``model_kind`` and ``arch`` of AuditOptions. The arch holds the rows
    the chosen model's constructor takes; ``_for_data`` adds the input size."""
    values = _api_values(cfg, "model")
    model_kind = values["model_kind"]
    params = inspect.signature(_MODELS[model_kind]).parameters
    arch = {k: v for k, v in values.items() if k in params}
    if "channels" in arch:
        arch["channels"] = _parse_tuple(arch["channels"], "--channels")
        if len(arch["channels"]) != 2:
            raise CLIError(f"--channels expects two values, got {cfg.values['channels']!r}")
    return {"model_kind": model_kind, "arch": arch}


def _train_config(cfg: RunConfig, seed: int) -> TrainConfig:
    values = _api_values(cfg, "training")
    values["lr_schedule"] = schedule_from_config({"kind": values["lr_schedule"]})
    return TrainConfig(**values, seed=seed)


def _audit_options(cfg: RunConfig, seed: int) -> AuditOptions:
    """Options from the subcommand's audit or recalibration rows; other fields keep their defaults."""
    values = _api_values(cfg, "recalibration" if cfg.subcommand == "recalibrate" else "audit")
    values["split"] = _parse_tuple(values["split"], "--split", float)
    if len(values["split"]) != 3:
        raise CLIError(f"--split expects three fractions, got {cfg.values['split']!r}")
    return AuditOptions(**values, train=_train_config(cfg, seed), seed=seed, **_model_options(cfg))


def _for_data(options: AuditOptions, data: SyntheticData) -> AuditOptions:
    """The options with the input size of the loaded images, which for
    --manifest data is the manifest's, not --image-size."""
    return replace(options, arch={**options.arch, "input_hw": data.dataset.images.shape[2:]})


def _seed_list(cfg: RunConfig) -> list[int]:
    if cfg.values.get("seeds"):
        seeds = list(_parse_tuple(cfg.values["seeds"], "--seeds"))
        for seed in seeds:
            _check_seed(seed, "--seeds")
        return seeds
    return [cfg.values["seed"]]


def _data_for_seed(cfg: RunConfig, seed: int) -> SyntheticData:
    """Manifest data is fixed (it reads no seed); synthetic data is regenerated per seed."""
    return _load_data(replace(cfg, values={**cfg.values, "seed": seed}))


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(cfg: RunConfig) -> int:
    dist = compute_distribution(_load_manifest(cfg))
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
    targets: dict[str, int] = {}
    for item in cfg.values["target"]:
        if "=" not in item:
            raise CLIError(f"--target expects CLASS=COUNT, got {item!r}")
        name, _, value = item.partition("=")
        try:
            targets[name] = int(value)
        except ValueError:
            raise CLIError(f"--target count must be an integer, got {item!r}") from None
    mode = ResampleMode(cfg.values["mode"])
    if targets and mode is ResampleMode.COMBINED:
        raise CLIError("--target applies to Oversample and Undersample only; Combined equalizes at the median")
    manifest = _load_manifest(cfg)
    counts = class_counts(manifest)
    if not counts:
        raise CLIError(f"manifest {cfg.values['manifest']} holds no record to resample")
    seed = cfg.values["seed"]
    if mode is ResampleMode.COMBINED:
        resampled, plan = combined_resample(manifest, seed=seed)
    else:
        pick = max if mode is ResampleMode.OVERSAMPLE else min
        plan = ResamplePlan(targets or {c: pick(counts.values()) for c in counts}, mode, seed)
        resampled = apply_resample(manifest, plan)
    if not resampled.records:
        named = ", ".join(f"{c}={n}" for c, n in sorted(plan.target_counts.items()))
        raise CLIError(f"{mode.value} targets {named} leave no record")
    cfg.write()
    out = cfg.out_dir
    write_manifest(resampled, out / "resampled.jsonl")
    (out / "plan.json").write_text(canonical_json(plan.to_json_dict()) + "\n", encoding="utf-8")
    new_counts = class_counts(resampled)
    (out / "distribution.json").write_text(
        canonical_json({"counts": dict(sorted(new_counts.items())), "total": len(resampled)}) + "\n",
        encoding="utf-8",
    )
    for c in sorted(new_counts):
        print(f"{c}: {counts[c]} -> {new_counts[c]}")
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


def _vit_model(cfg: RunConfig):
    """The model of the ``--snapshot`` file, which must be a ViT."""
    model = _load_model(cfg)
    if getattr(model, "kind", None) != "tiny_vit":
        raise CLIError("snapshot model exposes no attention; use a tiny_vit snapshot")
    return model


def cmd_augment(cfg: RunConfig) -> int:
    manifest = _load_manifest(cfg)
    model = _vit_model(cfg)
    data = dataset_from_manifest(manifest, cfg.values["images_root"])
    plan, new_records, new_images, _ = attention_augmentation(
        model, data, cfg.values["tau_att"], cfg.values["kappa"]
    )
    cfg.write()
    out = cfg.out_dir
    (out / "plan.json").write_text(
        canonical_json([r.to_json_dict() for r in plan]) + "\n", encoding="utf-8"
    )
    write_dataset(replace(manifest, records=new_records), new_images, out, name="augmented.jsonl")
    print(f"plan entries: {len(plan)}; new samples written: {len(new_records)}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    seed = cfg.values["seed"]
    options = AuditOptions(train=_train_config(cfg, seed), seed=seed, **_model_options(cfg))
    data = _load_data(cfg)
    weights = None
    if cfg.values["weighted"]:
        weights = compute_class_weights(compute_distribution(data.manifest))
    model, snapshot, trace = fit(_for_data(options, data), data.dataset, weights)
    cfg.write()
    out = cfg.out_dir
    snapshot.save(out / "model.snapshot")
    trace.write_csv(out / "trace.csv")
    recalls = trace.final_recalls()
    print(f"trained {cfg.values['model']} ({model.n_parameters()} parameters), {len(trace.rows)} epochs")
    for c in sorted(recalls):
        print(f"recall {c}: {recalls[c]:.4f}")
    return 0


def _audit_one(cfg: RunConfig, options: AuditOptions, strategy: Strategy | None) -> dict:
    """One seed's audit (and optional mitigation); picklable args so the
    multi-seed path can run under a process pool deterministically."""
    data = _data_for_seed(cfg, options.seed)
    run = run_audit(data, _for_data(options, data), out_dir=cfg.out_dir)
    summary: dict = {"seed": options.seed, "run_dir": str(run.run_dir)}
    report = run.report
    if strategy is not None:
        mitigated = run_mitigation(run, strategy, out_dir=cfg.out_dir)
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


def _run_seeds(cfg: RunConfig, strategy: Strategy | None) -> list[dict]:
    """Every seed's run under ``--out``, with the config and a summary.json.
    The whole request is checked before anything is written."""
    options = [_audit_options(cfg, seed) for seed in _seed_list(cfg)]
    if strategy is Strategy.AUGMENT and cfg.values["model"] != "tiny_vit":
        raise CLIError(AUGMENT_NEEDS_VIT)
    cfg.write()
    jobs = cfg.values["jobs"]
    if jobs > 1 and len(options) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(partial(_audit_one, cfg, strategy=strategy), options))
    else:
        summaries = [_audit_one(cfg, o, strategy) for o in options]
    (cfg.out_dir / "summary.json").write_text(canonical_json(summaries) + "\n", encoding="utf-8")
    return summaries


def cmd_audit(cfg: RunConfig) -> int:
    for s in _run_seeds(cfg, None):
        print(f"seed {s['seed']}: accuracy {s['accuracy']:.4f} mAP {s['map']:.4f} -> {s['run_dir']}")
    return 0


def cmd_mitigate(cfg: RunConfig) -> int:
    for s in _run_seeds(cfg, Strategy(cfg.values["strategy"])):
        verdicts = ", ".join(f"{c}={v}" for c, v in sorted(s["verdicts"].items()))
        print(f"seed {s['seed']}: accuracy {s['accuracy']:.4f} -> {s['post_accuracy']:.4f}; {verdicts}")
    return 0


def cmd_recalibrate(cfg: RunConfig) -> int:
    seed = cfg.values["seed"]
    options = _audit_options(cfg, seed)
    data = _data_for_seed(cfg, seed)
    history, rows = recalibration_loop(data, _for_data(options, data))
    cfg.write()
    converged = rows[-1]["gap"] < options.epsilon_gap
    payload = {
        "converged": converged,
        "iterations": len(history) - 1,
        "weights": history[-1].to_json_dict(),
        "history": [w.to_json_dict() for w in history],
        "rows": rows,
    }
    (cfg.out_dir / "recalibration.json").write_text(
        canonical_json(payload) + "\n", encoding="utf-8"
    )
    print(
        f"recalibration {'converged' if converged else 'stopped'} after "
        f"{len(history) - 1} adjustment(s); final recall gap {rows[-1]['gap']:.4f}"
    )
    return 0


def cmd_report(cfg: RunConfig) -> int:
    run_dir = Path(cfg.values["run_dir"])
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise CLIError(f"no report.json under {run_dir}")
    # Not JSON, or JSON not shaped like a report: bad input, not a runtime failure.
    try:
        obj = json.loads(report_path.read_text(encoding="utf-8"))
        text = BiasReport.from_json_dict(obj).text_summary()
    except (ValueError, RecursionError, LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        raise CLIError(f"{report_path} is not a readable report: {type(exc).__name__}: {exc}") from None
    if cfg.out_dir is not None:
        cfg.write()
        (cfg.out_dir / "report.txt").write_text(text, encoding="utf-8")
        print(f"wrote {cfg.out_dir / 'report.txt'}")
    else:
        print(text, end="")
    return 0


def cmd_heatmap(cfg: RunConfig) -> int:
    model = _vit_model(cfg)
    data = _load_data(cfg)
    sample_id = cfg.values.get("sample_id")
    if sample_id is not None:
        ids = data.dataset.sample_ids or ()
        if sample_id not in ids:
            raise CLIError(f"sample id {sample_id!r} not in dataset")
        index = ids.index(sample_id)
    else:
        index = cfg.values["index"]
        if not (0 <= index < len(data.dataset)):
            raise CLIError(f"--index {index} out of range for {len(data.dataset)} samples")
        sample_id = (data.dataset.sample_ids or [f"sample-{index}"])[index]

    source = cfg.values["source"]
    res = forward_pass(model, data.dataset.images[index : index + 1], attention=True)
    if source == "attention":
        layer = cfg.values["layer"]
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


# ---------------------------------------------------------------------------
# the flag table


@dataclass(frozen=True)
class Flag:
    """One CLI flag: how it parses, its --help line, and its default."""

    flag: str
    help: str
    default: object = None
    type: type = str
    choices: tuple | None = None
    action: str | None = None  # "store_true" or "append"
    metavar: str | None = None
    required: bool = False

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def kind(self) -> type:
        """What the flag parses to: the JSON type a config file may give its key."""
        return {"store_true": bool, "append": list}.get(self.action, self.type)

    def add_to(self, parser) -> None:
        """Register the flag so that its absence is detectable (SUPPRESS)
        while the documented default still shows in --help."""
        help_text = self.help
        if self.action == "store_true":
            help_text += " (default: off)"
        elif self.default is not None and self.action != "append":  # [] says nothing
            help_text += f" (default: {self.default})"
        extra = {"type": self.type} if self.type is not str else {}
        for name in ("choices", "action", "metavar"):
            if getattr(self, name) is not None:
                extra[name] = getattr(self, name)
        parser.add_argument(
            self.flag, default=argparse.SUPPRESS, required=self.required, help=help_text, **extra
        )


COMMON = (
    Flag("--out", "output directory (all artifacts go here)", required=True),
    Flag("--config", "JSON config file; flags override file values"),
    Flag("--seed", f"base seed; falls back to ${ENV_SEED}, then 0", type=int),
    Flag("--jobs", "parallel workers for multi-seed runs", 1, int),
)
# Keys that name no run setting, so a config file cannot set them.
_NOT_CONFIG_KEYS = ("out", "config")

_MANIFEST = Flag("--manifest", "annotation manifest (JSONL)", required=True)
_IMAGES_ROOT = Flag("--images-root", "root directory for manifest image refs")
_SNAPSHOT = Flag("--snapshot", "trained tiny_vit snapshot", required=True)
# The "data source", "model", "training" and "audit" rows take their
# defaults from the API's.
_SYNTHETIC, _TRAIN, _AUDIT = SyntheticConfig(), TrainConfig(), AuditOptions()
_MODELS = {m.kind: m for m in (TinyCNN, TinyViT)}
_CNN, _VIT = (inspect.signature(m).parameters for m in (TinyCNN, TinyViT))
_TAU_ATT = Flag("--tau-att", "attention-mass threshold for augmentation", _AUDIT.tau_att, float)
_KAPPA = Flag("--kappa", "augmentation volume scale", _AUDIT.kappa, float)
_SEEDS = Flag("--seeds", "comma-separated seed list for a multi-seed run")
_SPLIT = Flag("--split", "train/val/test fractions, comma-separated", ",".join(map(str, _AUDIT.split)))
_RECALIBRATION = (
    Flag("--eta", "weight recalibration step size", _AUDIT.eta, float),
    Flag("--target-recall", "recall target for recalibration (default: best observed)", _AUDIT.target_recall, float),
    Flag("--max-iterations", "recalibration iteration cap", _AUDIT.max_recal_iterations, int),
    Flag("--epsilon-gap", "recall gap declaring convergence", _AUDIT.epsilon_gap, float),
)

GROUPS: dict[str, tuple[Flag, ...]] = {
    "data source": (
        Flag("--synthetic", 'generated dataset spec: "balanced" or e.g. "imbalanced-90-5-5"'),
        Flag("--n-samples", "synthetic sample count", _SYNTHETIC.n_samples, int),
        Flag("--image-size", "synthetic square image side", _SYNTHETIC.image_hw[0], int),
        Flag("--manifest", "annotation manifest (JSONL) instead of --synthetic"),
        _IMAGES_ROOT,
    ),
    "model": (
        Flag("--model", "architecture", _AUDIT.model_kind, choices=tuple(_MODELS)),
        Flag("--channels", "CNN conv channels, comma-separated pair", ",".join(map(str, _CNN["channels"].default))),
        Flag("--kernel", "CNN conv kernel size", _CNN["kernel"].default, int),
        Flag("--patch", "ViT patch side", _VIT["patch"].default, int),
        Flag("--dim", "ViT embedding width", _VIT["dim"].default, int),
        Flag("--heads", "ViT attention heads", _VIT["n_heads"].default, int),
        Flag("--layers", "ViT transformer blocks", _VIT["n_layers"].default, int),
        Flag("--mlp-ratio", "ViT MLP width ratio", _VIT["mlp_ratio"].default, float),
    ),
    "training": (
        Flag("--learning-rate", "Adam base learning rate", _TRAIN.learning_rate, float),
        Flag("--batch-size", "minibatch size", _TRAIN.batch_size, int),
        Flag("--epochs", "training epochs", _TRAIN.epochs, int),
        Flag("--weight-decay", "L2 decay on matrix/kernel parameters", _TRAIN.weight_decay, float),
        Flag("--dropout", "dropout rate (ViT blocks and embeddings)", _TRAIN.dropout, float),
        Flag("--lr-schedule", "learning-rate schedule", _TRAIN.lr_schedule.kind, choices=("constant", "step", "linear")),
        Flag("--box-loss-weight", "box regression loss scale", _TRAIN.box_loss_weight, float),
    ),
    "audit": (
        _SPLIT,
        Flag("--iou-threshold", "detection match IoU threshold", _AUDIT.iou_threshold, float),
        Flag("--probe-per-class", "probe samples per class for behavior scores", _AUDIT.probe_per_class, int),
        Flag("--sensitivity-samples", "samples per class for gradient sensitivity", _AUDIT.sensitivity_samples, int),
        _TAU_ATT,
        _KAPPA,
        Flag("--tau-rel", "in-box relevance threshold for duplication", _AUDIT.tau_rel, float),
        *_RECALIBRATION,
        Flag("--fn-threshold", "FN-rate delta for an 'improved' verdict", _AUDIT.fn_delta_threshold, float),
        Flag("--ap-threshold", "AP delta for an 'improved' verdict", _AUDIT.ap_delta_threshold, float),
        Flag("--track-sensitivity", "also track gradient sensitivity per epoch", _AUDIT.track_sensitivity, action="store_true"),
    ),
    "recalibration": (_SPLIT, *_RECALIBRATION),
}


@dataclass(frozen=True)
class Subcommand:
    """One subcommand: its --help texts, its flags and flag groups in --help
    order (a group is named by its ``GROUPS`` title), and what runs it."""

    help: str
    description: str
    entries: tuple[Flag | str, ...]
    run: Callable[[RunConfig], int]

    def flags(self) -> list[Flag]:
        return [f for e in self.entries for f in (GROUPS[e] if isinstance(e, str) else (e,))]

    def config_flags(self) -> dict[str, Flag]:
        """Key -> row of every flag a config file may set. A required flag
        is not one: argparse demands it on the command line, where it
        would override the file's value."""
        return {
            f.key: f for f in self.flags() if not f.required and f.key not in _NOT_CONFIG_KEYS
        }

    def defaults(self) -> dict:
        return {key: f.default for key, f in self.config_flags().items()}


SUBCOMMANDS: dict[str, Subcommand] = {
    "analyze": Subcommand(
        "class/condition distribution of a manifest",
        "Write the class distribution (JSON + CSV) of an annotation manifest.",
        (_MANIFEST, *COMMON),
        cmd_analyze,
    ),
    "resample": Subcommand(
        "over/under/combined resampling of a manifest",
        "Resample a manifest to target per-class counts and write the new manifest plus the plan.",
        (_MANIFEST,
         Flag("--mode", "resampling mode", "Combined", choices=tuple(m.value for m in ResampleMode)),
         Flag("--target", "per-class target count, repeatable; Oversample and Undersample only "
              "(default: every class at the largest count, or the smallest for Undersample)", [],
              action="append", metavar="CLASS=COUNT"),
         *COMMON),
        cmd_resample,
    ),
    "augment": Subcommand(
        "attention-guided augmentation plan + samples",
        "Plan and materialize augmentations for (class, condition) cells a ViT underattends; "
        "writes only the new samples.",
        (_MANIFEST, replace(_IMAGES_ROOT, required=True), _SNAPSHOT,
         replace(_TAU_ATT, help="attention-mass threshold"), _KAPPA, *COMMON),
        cmd_augment,
    ),
    "train": Subcommand(
        "train one model and save the snapshot",
        "Train a model on a synthetic or manifest dataset; writes snapshot + metric trace.",
        ("data source", "model", "training",
         Flag("--weighted", "use inverse-frequency class weights in the loss", False, action="store_true"),
         *COMMON),
        cmd_train,
    ),
    "audit": Subcommand(
        "baseline bias audit (pre-mitigation report)",
        "Train the unweighted baseline and write the pre-mitigation bias report.",
        ("data source", "model", "training", "audit", _SEEDS, *COMMON),
        cmd_audit,
    ),
    "mitigate": Subcommand(
        "audit + mitigation + post report",
        "Run the audit, apply a mitigation strategy, retrain, and write the pre+post report.",
        (Flag("--strategy", "mitigation strategy", "Combined", choices=tuple(s.value for s in Strategy)),
         "data source", "model", "training", "audit", _SEEDS, *COMMON),
        cmd_mitigate,
    ),
    "recalibrate": Subcommand(
        "iterative class-weight recalibration",
        "Retrain with dynamically adjusted class weights until the recall gap closes.",
        ("data source", "model", "training", "recalibration", *COMMON),
        cmd_recalibrate,
    ),
    "report": Subcommand(
        "render a stored report as text",
        "Rebuild the human-readable summary from a run directory's report.json.",
        (Flag("--run-dir", "run directory containing report.json", required=True),
         Flag("--out", "write report.txt here instead of stdout")),
        cmd_report,
    ),
    "heatmap": Subcommand(
        "attention or relevance heatmap for one sample",
        "Export a patch-grid heatmap (PGM + CSV) of ViT attention mass or propagated relevance.",
        (_SNAPSHOT, "data source",
         Flag("--sample-id", "sample to visualize (default: --index)"),
         Flag("--index", "sample index when no --sample-id is given", 0, int),
         Flag("--layer", "attention layer (-1 = final)", -1, int),
         Flag("--source", "map to export", "attention", choices=("attention", "relevance")),
         *COMMON),
        cmd_heatmap,
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biaslens", description=DESCRIPTION, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, sub in SUBCOMMANDS.items():
        p = subs.add_parser(name, help=sub.help, description=sub.description)
        for entry in sub.entries:
            if isinstance(entry, str):
                group = p.add_argument_group(entry)
                for flag in GROUPS[entry]:
                    flag.add_to(group)
            else:
                entry.add_to(p)
    return parser


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
        return SUBCOMMANDS[subcommand].run(cfg)
    except (ValueError, OSError) as exc:  # CLIError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - contract: runtime failure -> 2
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
