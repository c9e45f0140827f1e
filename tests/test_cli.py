"""End-to-end tests for the command-line interface: exit codes, config
resolution precedence, artifact layout, and reproducibility."""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biaslens.audit import (
    AuditOptions,
    BiasReport,
    attention_augmentation,
    build_audit_model,
    canonical_json,
    fit,
    run_audit,
)
from biaslens.losses import compute_class_weights
from biaslens.cli import _API_NAMES, GROUPS, SUBCOMMANDS, CLIError, build_parser, main, resolve_config
from biaslens.manifest import class_counts, compute_distribution, load_manifest, write_manifest
from biaslens.behavior import export_heatmap, lrp_propagate
from biaslens.nn.models import TinyViT
from biaslens.nn.snapshot import MAGIC, load_snapshot, model_from_snapshot
from biaslens.nn.train import _ROW_BLOCK, TrainConfig, forward_pass
from biaslens.sampling import ResampleMode, default_plan
from biaslens.synthetic import (
    SyntheticConfig,
    dataset_from_manifest,
    generate_synthetic,
    write_dataset,
)

from conftest import JSON_VALUES, make_record

FAST_FIT = ["--channels", "4,6", "--epochs", "2", "--batch-size", "16"]
FAST_TRAIN = [*FAST_FIT, "--probe-per-class", "8", "--sensitivity-samples", "4"]
FAST_SYNTHETIC = ["--synthetic", "balanced", "--n-samples", "60", "--image-size", "16"]
FAST_AUDIT = [*FAST_SYNTHETIC, *FAST_TRAIN]
# recalibrate has no behavior-probe rows
FAST_RECALIBRATE = [*FAST_SYNTHETIC, *FAST_FIT]
FAST_VIT = [
    "--synthetic", "balanced", "--n-samples", "24", "--image-size", "16",
    "--model", "tiny_vit", "--patch", "4", "--dim", "8",
    "--heads", "2", "--layers", "1", "--epochs", "1", "--batch-size", "8",
]


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("BIASLENS_SEED", raising=False)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """An imbalanced on-disk dataset: manifest JSONL plus PGM images."""
    root = tmp_path_factory.mktemp("dataset")
    data = generate_synthetic(
        SyntheticConfig(n_samples=30, shares=(0.6, 0.2, 0.2), image_hw=(16, 16), seed=1)
    )
    manifest_path = write_dataset(data.manifest, data.dataset.images[:, 0], root)
    return manifest_path, root


@pytest.fixture(scope="module")
def vit_snapshot(tmp_path_factory):
    out = tmp_path_factory.mktemp("vit")
    assert main(["train", *FAST_VIT, "--out", str(out)]) == 0
    return out / "model.snapshot"


@pytest.fixture(scope="module")
def audit_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    assert main(["audit", *FAST_AUDIT, "--out", str(out)]) == 0
    return out


def single_run_dir(out: Path) -> Path:
    dirs = sorted(p for p in out.iterdir() if p.is_dir() and p.name.startswith("run-"))
    assert len(dirs) == 1, dirs
    return dirs[0]


class TestExitCodes:
    def test_missing_manifest_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = main(["analyze", "--manifest", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_unrecognized_flag(self, tmp_path, capsys):
        code = main([
            "analyze", "--manifest", "x", "--out", str(tmp_path), "--bogus",
        ])
        assert code == 1
        assert "--bogus" in capsys.readouterr().err

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epoch": 3}', encoding="utf-8")
        code = main([
            "audit", *FAST_AUDIT, "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "epoch" in err and "unknown config keys" in err

    def test_runtime_failure_is_exit_two(self, dataset_dir, tmp_path, monkeypatch, capsys):
        def fail(manifest):
            raise RuntimeError("boom")

        monkeypatch.setattr("biaslens.cli.compute_distribution", fail)
        manifest_path, _ = dataset_dir
        code = main(["analyze", "--manifest", str(manifest_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "runtime failure: RuntimeError: boom" in capsys.readouterr().err

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().out

    def test_help_exits_zero_and_shows_defaults(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        assert "(default: 10)" in out  # epochs
        assert "(default: 0.001)" in out  # learning rate

    @pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
    def test_every_subcommand_help_exits_zero(self, capsys, sub):
        """A flag table that fails to build for one subcommand fails its --help."""
        assert main([sub, "--help"]) == 0
        assert f"usage: biaslens {sub} " in capsys.readouterr().out

    def test_non_integer_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIASLENS_SEED", "three")
        code = main(["audit", *FAST_AUDIT, "--out", str(tmp_path)])
        assert code == 1
        assert "must be an integer" in capsys.readouterr().err


# audit rows that recalibrate does not take, with a valid value for each
NEVER_READ_BY_RECALIBRATE = [
    ("iou_threshold", 0.5), ("probe_per_class", 8), ("sensitivity_samples", 4), ("tau_att", 0.3),
    ("kappa", 1.0), ("tau_rel", 0.5), ("fn_threshold", -0.02), ("ap_threshold", 0.01),
    ("track_sensitivity", True),
]


def _fast(sub: str) -> list[str]:
    return FAST_RECALIBRATE if sub == "recalibrate" else FAST_AUDIT


def _real_flags(group: str) -> list[str]:
    return [f.flag for f in GROUPS[group] if f.kind is float]


NON_FINITE = ["nan", "inf", "-inf"]


class TestRejectedRequest:
    """A request that cannot run exits 1 naming its flag or key, before it
    creates anything under --out and before any training."""

    @pytest.fixture
    def train_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("train called")

        monkeypatch.setattr("biaslens.audit.train", spy)
        return calls

    def _rejects(self, argv, name, tmp_path, capsys, train_calls):
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert name in err
        assert not out.exists()
        assert train_calls == []

    @pytest.mark.parametrize(
        "sub, flag",
        [("train", f) for f in _real_flags("training")] + [("audit", f) for f in _real_flags("audit")]
        + [("recalibrate", f) for f in _real_flags("recalibration")],
    )
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_flag(self, tmp_path, capsys, train_calls, sub, flag, value):
        key = flag[2:].replace("-", "_")
        argv = [sub, "--n-samples", "30", "--image-size", "16", f"{flag}={value}"]
        self._rejects(argv, f"{_API_NAMES.get(key, key)} must be finite", tmp_path, capsys, train_calls)

    @pytest.mark.parametrize("sub", ["train", "recalibrate", "mitigate"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_config_value(self, tmp_path, capsys, train_calls, sub, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": float(value)}), encoding="utf-8")
        argv = [sub, "--n-samples", "30", "--image-size", "16", "--config", str(cfg)]
        self._rejects(argv, "learning_rate must be finite", tmp_path, capsys, train_calls)

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["augment", "--manifest", "m.jsonl", "--images-root", "data", "--snapshot", "m.snapshot"], key)
            for key in ("tau_att", "kappa")
        ]
        + [
            (["train", "--n-samples", "30", "--image-size", "16", "--model", model], "mlp_ratio")
            for model in ("tiny_cnn", "tiny_vit")
        ],
    )
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_value_outside_the_api_configs(
        self, tmp_path, capsys, train_calls, argv, key, value, source
    ):
        """A real that no API config dataclass checks: an augment threshold
        or a model arch value."""
        if source == "flag":
            extra = [f"--{key.replace('_', '-')}={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: float(value)}), encoding="utf-8")
            extra = ["--config", str(cfg)]
        self._rejects([*argv, *extra], f"{key} must be finite", tmp_path, capsys, train_calls)

    @pytest.mark.parametrize(
        "sub, flags, name",
        [
            ("audit", ["--split", "a,b"], "--split"),
            ("audit", ["--split", "0.5,0.5"], "--split"),
            ("audit", ["--split", "nan,0.5,0.5"], "split must be finite"),
            ("mitigate", ["--channels", "4"], "--channels"),
            ("audit", ["--seeds", "1,x"], "--seeds"),
            ("mitigate", ["--strategy", "Augment"], "model_kind='tiny_vit'"),
        ],
    )
    def test_malformed_request(self, tmp_path, capsys, train_calls, sub, flags, name):
        self._rejects([sub, *FAST_AUDIT, *flags], name, tmp_path, capsys, train_calls)

    @pytest.mark.parametrize(
        "sub, flag, value, key",
        [
            ("audit", "--iou-threshold", "0", "iou_threshold"),
            ("audit", "--iou-threshold", "1.5", "iou_threshold"),
            ("mitigate", "--sensitivity-samples", "0", "sensitivity_samples"),
            ("audit", "--sensitivity-samples", "-1", "sensitivity_samples"),
            ("audit", "--probe-per-class", "-1", "probe_per_class"),
            ("recalibrate", "--eta", "-1", "eta"),
            ("recalibrate", "--max-iterations", "-1", "max_recal_iterations"),
        ],
    )
    def test_out_of_range_audit_option(self, tmp_path, capsys, train_calls, sub, flag, value, key):
        self._rejects([sub, *_fast(sub), f"{flag}={value}"], f"{key} must be", tmp_path, capsys, train_calls)

    @pytest.mark.parametrize("key, value", [("target_recall", -3), ("epsilon_gap", -1)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_recalibration_target(self, tmp_path, capsys, train_calls, key, value, source):
        """A recall target outside [0, 1] or a negative gap would make the
        loop clamp every weight, or spend its whole budget."""
        if source == "flag":
            extra = [f"--{key.replace('_', '-')}={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}), encoding="utf-8")
            extra = ["--config", str(cfg)]
        self._rejects(["recalibrate", *FAST_RECALIBRATE, *extra], f"{key} must be", tmp_path, capsys, train_calls)

    @pytest.mark.parametrize("key, value", NEVER_READ_BY_RECALIBRATE)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_recalibrate_rejects_an_audit_row_it_never_reads(
        self, tmp_path, capsys, train_calls, key, value, source
    ):
        flag = f"--{key.replace('_', '-')}"
        if source == "flag":
            extra, name = ([flag] if value is True else [f"{flag}={value}"]), flag
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}), encoding="utf-8")
            extra, name = ["--config", str(cfg)], key
        self._rejects(["recalibrate", *FAST_RECALIBRATE, *extra], name, tmp_path, capsys, train_calls)

    @pytest.mark.parametrize(
        "sub, flags, env, config, name",
        [
            ("audit", ["--seed", "-1"], None, None, "--seed must be a non-negative integer"),
            ("audit", ["--seeds", "1,-1"], None, None, "--seeds must be a non-negative integer"),
            ("mitigate", [], "-1", None, "$BIASLENS_SEED must be a non-negative integer"),
            ("recalibrate", [], None, {"seed": -1}, ": seed must be a non-negative integer"),
            ("audit", ["--seed", "-2"], "3", {"seed": 4}, "--seed must be a non-negative integer"),
        ],
    )
    def test_negative_seed_names_its_source(
        self, tmp_path, capsys, train_calls, monkeypatch, sub, flags, env, config, name
    ):
        """numpy takes no negative seed; it used to fail after config.json was
        written (audit), after the seed-1 run (--seeds) or the whole load."""
        if env is not None:
            monkeypatch.setenv("BIASLENS_SEED", env)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            flags = [*flags, "--config", str(cfg)]
        self._rejects([sub, *_fast(sub), *flags], name, tmp_path, capsys, train_calls)

    @pytest.mark.parametrize("sub", ["audit", "mitigate"])
    @pytest.mark.parametrize(
        "flags, config",
        [(["--seed", "7", "--seeds", "1,2"], None), ([], {"seed": 7, "seeds": "1,2"}), (["--seeds", "1,2"], {"seed": 7})],
        ids=["flags", "config", "flag-and-config"],
    )
    def test_seed_with_seeds_is_named(self, tmp_path, capsys, train_calls, sub, flags, config):
        """--seeds runs each of its seeds; the --seed beside it used to be
        ignored without a word."""
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            flags = [*flags, "--config", str(cfg)]
        self._rejects([sub, *FAST_AUDIT, *flags], "--seed and --seeds are both set", tmp_path, capsys, train_calls)

    @pytest.mark.parametrize("sub", ["audit", "mitigate"])
    @pytest.mark.parametrize("seeds, seed", [("1,1", 1), ("0,2,0", 0)])
    def test_repeated_seed_is_named(self, tmp_path, capsys, train_calls, sub, seeds, seed):
        """A repeated seed used to train twice into one run directory, both
        at once under --jobs 2, and appear twice in summary.json."""
        argv = [sub, *FAST_AUDIT, "--seeds", seeds, "--jobs", "2"]
        self._rejects(argv, f"--seeds repeats seed {seed}", tmp_path, capsys, train_calls)

    def test_negative_seed_is_rejected_before_the_manifest_loads(self, tmp_path, capsys, train_calls, monkeypatch):
        def spy(path):
            raise AssertionError("manifest loaded")

        monkeypatch.setattr("biaslens.cli.load_manifest", spy)
        argv = ["resample", "--manifest", str(tmp_path / "m.jsonl"), "--seed", "-1"]
        self._rejects(argv, "--seed must be a non-negative integer", tmp_path, capsys, train_calls)


class TestMalformedInputExitsOne:
    """Each malformed input fails with exit code 1 and names its file."""

    def _analyze(self, tmp_path, lines: list[str]):
        path = tmp_path / "m.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path, main(["analyze", "--manifest", str(path), "--out", str(tmp_path / "o")])

    def test_manifest_line_that_is_not_an_object(self, tmp_path, capsys):
        path, code = self._analyze(tmp_path, ["[1,2]"])
        assert code == 1
        assert f"{path}:1: expected a JSON object" in capsys.readouterr().err

    def test_non_numeric_bbox_names_file_and_line(self, tmp_path, capsys):
        record = {
            "sample_id": "s0", "class_label": "disk", "bbox": [0, 0, 4, 4],
            "condition": "Normal", "image_size": [8, 8],
        }
        bad = dict(record, sample_id="s1", bbox=["left", 0, 4, 4])
        path, code = self._analyze(tmp_path, [json.dumps(record), json.dumps(bad)])
        assert code == 1
        assert f"{path}:2: bbox and image_size must be lists of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("image_size", [4.9, 4]), ("image_size", ["8", 8]), ("bbox", ["1e0", 0, 4, 4])],
    )
    def test_number_that_coercion_would_change(self, tmp_path, capsys, field, value):
        record = {
            "sample_id": "s0", "class_label": "disk", "bbox": [0, 0, 4, 4],
            "condition": "Normal", "image_size": [8, 8],
        }
        path, code = self._analyze(tmp_path, [json.dumps(record), json.dumps({**record, field: value})])
        assert code == 1
        assert f"{path}:2: bbox and image_size must be lists of numbers" in capsys.readouterr().err

    def _heatmap(self, tmp_path, data: bytes):
        path = tmp_path / "m.snapshot"
        path.write_bytes(data)
        return path, main([
            "heatmap", "--snapshot", str(path), "--synthetic", "balanced",
            "--n-samples", "6", "--image-size", "16", "--out", str(tmp_path / "o"),
        ])

    def test_manifest_image_holding_only_the_magic(self, tmp_path, capsys):
        data = generate_synthetic(
            SyntheticConfig(n_samples=12, shares=(1 / 3, 1 / 3, 1 / 3), image_hw=(16, 16), seed=0)
        )
        root = tmp_path / "data"
        manifest_path = write_dataset(data.manifest, data.dataset.images[:, 0], root)
        bad = root / load_manifest(manifest_path).records[5].image_ref
        bad.write_bytes(b"P5")
        code = main([
            "audit", "--manifest", str(manifest_path), "--images-root", str(root),
            *FAST_TRAIN, "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert f"{bad}: truncated header" in capsys.readouterr().err

    def test_snapshot_holding_only_the_magic(self, tmp_path, capsys):
        path, code = self._heatmap(tmp_path, MAGIC)
        assert code == 1
        assert f"{path}: truncated header" in capsys.readouterr().err

    def test_snapshot_header_that_is_not_an_object(self, tmp_path, capsys):
        path, code = self._heatmap(tmp_path, MAGIC + struct.pack("<Q", 2) + b"[]")
        assert code == 1
        assert f"{path}: malformed header" in capsys.readouterr().err

    @staticmethod
    def _header_only(arch: dict) -> bytes:
        header = json.dumps({"arch": arch, "seed": 0, "config": {}, "params": []}).encode()
        return MAGIC + struct.pack("<Q", len(header)) + header

    def test_snapshot_arch_with_an_unknown_key(self, tmp_path, capsys):
        path, code = self._heatmap(tmp_path, self._header_only({"kind": "tiny_vit", "bogus": 1}))
        assert code == 1
        assert f"{path}: unknown tiny_vit arch keys: ['bogus']" in capsys.readouterr().err

    def test_snapshot_with_an_empty_parameter_table(self, tmp_path, capsys):
        arch = {"kind": "tiny_cnn", "input_hw": [16, 16], "channels": [4, 6]}
        path, code = self._heatmap(tmp_path, self._header_only(arch))
        assert code == 1
        assert f"{path}: parameter name mismatch" in capsys.readouterr().err


class TestConfigResolution:
    def test_flags_beat_file_beats_defaults(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"epochs": 7, "batch_size": 11}', encoding="utf-8")
        cfg = resolve_config("audit", {"config": str(cfg_file), "epochs": 2}, None)
        assert cfg.values["epochs"] == 2  # flag wins
        assert cfg.values["batch_size"] == 11  # file wins over default
        assert cfg.values["learning_rate"] == 1e-3  # untouched default

    def test_unknown_file_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"epochz": 7, "batchsize": 1}', encoding="utf-8")
        with pytest.raises(CLIError, match="batchsize, epochz"):
            resolve_config("audit", {"config": str(cfg_file)}, None)

    def test_config_file_must_exist(self, tmp_path):
        with pytest.raises(CLIError, match="not found"):
            resolve_config("audit", {"config": str(tmp_path / "gone.json")}, None)

    def test_config_file_must_be_json_object(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(CLIError, match="JSON object"):
            resolve_config("audit", {"config": str(cfg_file)}, None)

        cfg_file.write_text("{broken", encoding="utf-8")
        with pytest.raises(CLIError, match="not valid JSON"):
            resolve_config("audit", {"config": str(cfg_file)}, None)

    def test_seed_defaults_to_zero(self):
        assert resolve_config("audit", {}, None).values["seed"] == 0

    def test_env_seed_fallback_and_flag_priority(self, monkeypatch):
        monkeypatch.setenv("BIASLENS_SEED", "7")
        assert resolve_config("audit", {}, None).values["seed"] == 7
        assert resolve_config("audit", {"seed": 5}, None).values["seed"] == 5
        assert resolve_config("audit", {"seeds": "1,2"}, None).values["seeds"] == "1,2"


class TestConfigFileFuzz:
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff{}", "codec can't decode"),
            (b"[" * 100000 + b"]" * 100000, "recursion"),
            (b'{"epochz": 1}', "unknown config keys"),
        ],
        ids=["not-utf8", "deep-nesting", "unknown-key"],
    )
    def test_reproduced_cases_exit_1_naming_the_file(self, tmp_path, capsys, data, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        with pytest.raises(CLIError, match=message) as info:
            resolve_config("audit", {"config": str(path)}, None)
        assert str(path) in str(info.value)
        assert main(["audit", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @given(data=st.binary(max_size=64))
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_any_bytes_resolve_or_raise_cli_error_naming_the_file(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        try:
            resolve_config("analyze", {"config": str(path)}, None)
        except CLIError as exc:
            assert str(path) in str(exc)
        # The manifest is absent, so a config that resolves still exits 1.
        argv = ["analyze", "--manifest", str(tmp_path / "absent.jsonl"), "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1

    @given(
        values=st.dictionaries(
            st.sampled_from(["seed", "jobs", "manifest", "mode", "target", "epochs"]),
            st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
            | st.sampled_from(["Combined", "Oversample", "Undersample"])
            | st.lists(st.sampled_from(["disk=4", "bar=x", "cross", "=2", 7]), max_size=2),
            max_size=4,
        )
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_json_shaped_config_exits_0_or_1(self, dataset_dir, tmp_path, values):
        manifest_path, _ = dataset_dir
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        for sub in ("analyze", "resample"):
            argv = [sub, "--manifest", str(manifest_path), "--config", str(path)]
            assert main([*argv, "--out", str(tmp_path / sub)]) in (0, 1)


# Every key that a --config file may set, for each subcommand that reads one.
CONFIG_KEYS = [
    pytest.param(sub, key, id=f"{sub}-{key}")
    for sub, spec in SUBCOMMANDS.items()
    if any(f.flag == "--config" for f in spec.flags())
    for key in spec.defaults()
]


class TestRequiredFlagInConfig:
    @pytest.mark.parametrize("sub, key", [
        (sub, f.key) for sub, spec in SUBCOMMANDS.items()
        if any(f.flag == "--config" for f in spec.flags())
        for f in spec.flags() if f.required and f.key != "out"
    ])
    def test_exits_1_naming_the_key(self, tmp_path, capsys, sub, key):
        spec = SUBCOMMANDS[sub]
        required = [a for f in spec.flags() if f.required and f.key != "out" for a in (f.flag, "x")]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: "x"}), encoding="utf-8")
        argv = [sub, *required, "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"unknown config keys for {sub!r}: {key}" in err, err
        assert not (tmp_path / "o").exists()

    def test_required_flags_are_the_listed_ones(self):
        keys = {
            sub: sorted(f.key for f in spec.flags() if f.required and f.key != "out")
            for sub, spec in SUBCOMMANDS.items()
        }
        assert {k: v for k, v in keys.items() if v} == {
            "analyze": ["manifest"],
            "resample": ["manifest"],
            "augment": ["images_root", "manifest", "snapshot"],
            "report": ["run_dir"],
            "heatmap": ["snapshot"],
        }


# The settable values that subcommands used to take without reading them,
# with a value each would accept.
DROPPED = [
    *((sub, flag, value) for sub in ("audit", "mitigate") for flag, value in (
        ("--eta", 0.5), ("--target-recall", 0.8), ("--max-iterations", 3), ("--epsilon-gap", 0.1),
    )),
    ("analyze", "--seed", 1),
    ("augment", "--seed", 1),
    *((sub, "--jobs", 2) for sub in ("analyze", "resample", "augment", "train", "recalibrate", "heatmap")),
]


class TestOnlySettingsThatAreRead:
    @pytest.mark.parametrize("sub, flag, value", DROPPED, ids=[f"{sub}{flag}" for sub, flag, _ in DROPPED])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dropped_value_exits_1_naming_it(self, tmp_path, capsys, call_counts, sub, flag, value, source):
        key = flag[2:].replace("-", "_")
        if source == "flag":
            extra, name = [flag, str(value)], f"unrecognized arguments: {flag}"
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: value}), encoding="utf-8")
            extra, name = ["--config", str(path)], f"unknown config keys for {sub!r}: {key}"
        out = tmp_path / "out"
        code = main([sub, *_required_args(sub), *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert name in err
        assert not out.exists()
        assert dict(call_counts) == {}

    @pytest.fixture
    def read_keys(self, monkeypatch) -> set:
        """The keys of ``cfg.values`` that a run through ``main`` reads."""
        read: set = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        def recording_resolve(*args):
            cfg = resolve_config(*args)
            return replace(cfg, values=Recording(cfg.values))

        monkeypatch.setattr("biaslens.cli.resolve_config", recording_resolve)
        return read

    @pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
    def test_every_settable_key_is_read(self, read_keys, dataset_dir, vit_snapshot, audit_out, tmp_path, sub):
        """A key that no run of its subcommand reads is a flag that changes
        nothing. A subcommand with both data sources runs once on each."""
        manifest, root = (str(p) for p in dataset_dir)
        from_manifest = ["--manifest", manifest, "--images-root", root]
        sources = [FAST_SYNTHETIC, from_manifest]
        vit = ["--snapshot", str(vit_snapshot)]
        runs = {
            "analyze": [["--manifest", manifest]],
            "resample": [["--manifest", manifest]],
            "augment": [[*from_manifest, *vit]],
            "train": [[*src, *FAST_FIT] for src in sources],
            "audit": [[*src, *FAST_TRAIN, "--epochs", "1"] for src in sources],
            "mitigate": [[*src, *FAST_TRAIN, "--epochs", "1"] for src in sources],
            "recalibrate": [[*src, *FAST_FIT, "--max-iterations", "0"] for src in sources],
            "report": [["--run-dir", str(single_run_dir(audit_out))]],
            "heatmap": [[*vit, *src] for src in sources],
        }[sub]
        for i, argv in enumerate(runs):
            assert main([sub, *argv, "--out", str(tmp_path / str(i))]) == 0
        settable = {f.key for f in SUBCOMMANDS[sub].flags()} - {"out", "config"}
        assert sorted(settable - read_keys) == []


class TestEveryConfigKey:
    @pytest.mark.parametrize("sub, key", CONFIG_KEYS)
    def test_wrong_json_type_exits_1_naming_the_key(self, tmp_path, capsys, sub, key):
        spec = SUBCOMMANDS[sub]
        required = [a for f in spec.flags() if f.required and f.key != "out" for a in (f.flag, "x")]
        default = spec.defaults()[key]
        # No flag parses to a JSON object, and only a store_true flag to a bool.
        for wrong in ({}, 1 if isinstance(default, bool) else True):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: wrong}), encoding="utf-8")
            argv = [sub, *required, "--config", str(path), "--out", str(tmp_path / "o")]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"{path}: {key} must be " in err, err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub, key", CONFIG_KEYS)
    def test_default_from_file_writes_the_same_config_json(self, tmp_path, sub, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: SUBCOMMANDS[sub].defaults()[key]}), encoding="utf-8")
        from_file = resolve_config(sub, {"config": str(path)}, tmp_path / "file").write()
        plain = resolve_config(sub, {}, tmp_path / "plain").write()
        assert from_file.read_bytes() == plain.read_bytes()


# The row of every key a --config file may set, for each subcommand that reads one.
CONFIG_ROWS = [
    (sub, f)
    for sub, spec in SUBCOMMANDS.items()
    if any(f.flag == "--config" for f in spec.flags())
    for f in spec.config_flags().values()
]
FLOAT_KEYS = [pytest.param(sub, f, id=f"{sub}-{f.key}") for sub, f in CONFIG_ROWS if f.kind is float]


def _integral(key: str) -> int:
    """An integer that every real-valued key accepts; the IoU threshold lies in (0, 1]."""
    return 1 if key == "iou_threshold" else 0


def _required_args(sub: str) -> list[str]:
    return [a for f in SUBCOMMANDS[sub].flags() if f.required and f.key != "out" for a in (f.flag, "x")]


def _resolve_argv(argv: list[str]):
    """``resolve_config`` of a command line, as ``main`` calls it."""
    explicit = vars(build_parser().parse_args(argv))
    return resolve_config(explicit.pop("subcommand"), explicit, explicit.pop("out"))


class TestConfigValueParsesLikeItsFlag:
    @pytest.mark.parametrize("sub, flag", FLOAT_KEYS)
    def test_integral_number_in_file_writes_the_flags_config_json(self, tmp_path, sub, flag):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({flag.key: _integral(flag.key)}), encoding="utf-8")
        argv = [sub, *_required_args(sub)]
        from_file = _resolve_argv([*argv, "--config", str(path), "--out", str(tmp_path / "file")])
        from_flag = _resolve_argv([*argv, flag.flag, str(_integral(flag.key)), "--out", str(tmp_path / "flag")])
        assert from_file.write().read_bytes() == from_flag.write().read_bytes()

    @pytest.mark.parametrize(
        "flag", [p.values[1] for p in FLOAT_KEYS if p.values[0] == "audit"], ids=lambda f: f.key
    )
    def test_integral_number_in_file_gives_the_flags_audit(self, tmp_path, monkeypatch, flag):
        hashes = []

        def recording_run_audit(data, options, out_dir=None):
            hashes.append(options.config_hash())
            return run_audit(data, options, out_dir=out_dir)

        monkeypatch.setattr("biaslens.cli.run_audit", recording_run_audit)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({flag.key: _integral(flag.key)}), encoding="utf-8")
        argv = ["audit", *FAST_AUDIT, "--epochs", "1"]
        assert main([*argv, "--config", str(path), "--out", str(tmp_path / "file")]) == 0
        assert main([*argv, flag.flag, str(_integral(flag.key)), "--out", str(tmp_path / "flag")]) == 0
        assert hashes[0] == hashes[1]
        assert single_run_dir(tmp_path / "file").name == single_run_dir(tmp_path / "flag").name
        config = [(tmp_path / side / "config.json").read_bytes() for side in ("file", "flag")]
        assert config[0] == config[1]

    @pytest.mark.parametrize("sub, flag", FLOAT_KEYS)
    def test_integer_too_large_for_a_float_exits_1_naming_the_key(self, tmp_path, capsys, sub, flag):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({flag.key: 10**400}), encoding="utf-8")
        argv = [sub, *_required_args(sub), "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"config file {path}: {flag.key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub, key", [(sub, f.key) for sub, f in CONFIG_ROWS if f.choices])
    def test_value_outside_the_choices_exits_1_naming_the_key(self, tmp_path, capsys, sub, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: "bogus"}), encoding="utf-8")
        argv = [sub, *_required_args(sub), "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"config file {path}: {key} must be one of " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestAnalyze:
    def test_artifacts(self, dataset_dir, tmp_path, capsys):
        manifest_path, _ = dataset_dir
        out = tmp_path / "out"
        assert main(["analyze", "--manifest", str(manifest_path), "--out", str(out)]) == 0

        text = (out / "distribution.json").read_text(encoding="utf-8")
        payload = json.loads(text)
        assert canonical_json(payload) + "\n" == text
        assert payload["total"] == 30
        assert payload["counts"] == {"bar": 6, "cross": 6, "disk": 18}

        csv_lines = (out / "distribution.csv").read_text().splitlines()
        assert csv_lines[0] == "class,count,percentage"
        assert csv_lines[1] == "bar,6,20.0000"

        header = (out / "condition_counts.csv").read_text().splitlines()[0]
        assert header.startswith("count_") and header.endswith(",condition")

        assert json.loads((out / "config.json").read_text())["subcommand"] == "analyze"
        stdout = capsys.readouterr().out
        assert "total: 30" in stdout

    def test_writes_only_under_out(self, dataset_dir, tmp_path, monkeypatch):
        manifest_path, _ = dataset_dir
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only"
        assert main(["analyze", "--manifest", str(manifest_path), "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["only"]


class TestResample:
    def test_default_combined_equalizes_to_median(self, dataset_dir, tmp_path, capsys):
        manifest_path, _ = dataset_dir
        out = tmp_path / "out"
        assert main(["resample", "--manifest", str(manifest_path), "--out", str(out)]) == 0
        dist = json.loads((out / "distribution.json").read_text())
        assert dist["counts"] == {"bar": 6, "cross": 6, "disk": 6}
        plan = json.loads((out / "plan.json").read_text())
        assert plan["mode"] == "Combined"
        assert (out / "resampled.jsonl").exists()
        assert "disk: 18 -> 6" in capsys.readouterr().out

    def test_explicit_targets(self, dataset_dir, tmp_path):
        manifest_path, _ = dataset_dir
        out = tmp_path / "out"
        code = main([
            "resample", "--manifest", str(manifest_path), "--mode", "Oversample",
            "--target", "bar=18", "--target", "cross=20", "--target", "disk=20",
            "--out", str(out),
        ])
        assert code == 0
        dist = json.loads((out / "distribution.json").read_text())
        assert dist["counts"] == {"bar": 18, "cross": 20, "disk": 20}
        assert dist["total"] == 58

    def test_combined_writes_the_plan_it_applies(self, dataset_dir, tmp_path):
        manifest_path, _ = dataset_dir
        out = tmp_path / "out"
        assert main(["resample", "--manifest", str(manifest_path), "--seed", "3", "--out", str(out)]) == 0
        plan = default_plan(class_counts(load_manifest(manifest_path)), ResampleMode.COMBINED, seed=3)
        assert (out / "plan.json").read_text() == canonical_json(plan.to_json_dict()) + "\n"
        assert json.loads((out / "distribution.json").read_text())["counts"] == plan.target_counts

    def test_target_with_combined_is_rejected(self, dataset_dir, tmp_path, capsys):
        # Combined equalizes at the median; it used to ignore --target and
        # still write the requested targets into plan.json.
        manifest_path, _ = dataset_dir
        out = tmp_path / "out"
        code = main([
            "resample", "--manifest", str(manifest_path), "--mode", "Combined",
            "--target", "bar=10", "--target", "cross=10", "--target", "disk=10",
            "--out", str(out),
        ])
        assert code == 1
        assert "Combined" in capsys.readouterr().err
        assert not out.exists()

    def test_help_states_the_target_default(self, capsys):
        assert main(["resample", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert (
            "--target CLASS=COUNT per-class target count, repeatable; Oversample and "
            "Undersample only (default: every class at the largest count, or the "
            "smallest for Undersample) --out"
        ) in out

    @pytest.mark.parametrize(
        "mode, target, cls",
        [("Oversample", "foo=5", "foo"), ("Undersample", "disk=-3", "disk"), ("Undersample", "foo=0", "foo")],
    )
    def test_unreachable_target_exits_1_naming_the_class(self, dataset_dir, tmp_path, capsys, mode, target, cls):
        manifest_path, _ = dataset_dir
        out = tmp_path / "out"
        code = main([
            "resample", "--manifest", str(manifest_path), "--mode", mode, "--target", target, "--out", str(out),
        ])
        assert code == 1
        assert f"class {cls!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "records, argv, message",
        [
            (1, ["--mode", "Undersample", "--target", "disk=0"], "Undersample targets disk=0 leave no record"),
            (0, ["--mode", "Combined"], "holds no record to resample"),
            (0, ["--mode", "Oversample"], "holds no record to resample"),
        ],
    )
    def test_a_plan_that_empties_the_manifest_writes_nothing(self, tmp_path, capsys, records, argv, message):
        """It used to write config.json, plan.json and a header-only
        resampled.jsonl, then fail on the empty distribution."""
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text("".join(json.dumps(make_record(sample_id=f"s{i}").to_json_dict()) + "\n" for i in range(records)))
        out = tmp_path / "out"
        code = main(["resample", "--manifest", str(manifest_path), *argv, "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_target(self, dataset_dir, tmp_path, capsys):
        manifest_path, _ = dataset_dir
        code = main([
            "resample", "--manifest", str(manifest_path),
            "--target", "bar:12", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "CLASS=COUNT" in capsys.readouterr().err


def _pinned_manifest_lines() -> list[str]:
    """2,000 records of five long-tailed classes (1000/600/200/133/67), one
    of them non-ASCII, with escaped ids on every 11th and image_ref on every
    3rd record, and coordinates whose reprs run to 17 digits."""
    classes = ("car", "pedestrian", "truck", "v\u00e9lo", "motorcycle")
    conditions = ("Normal", "Night", "Weather", "Rotated", "Mixed")
    lines = [json.dumps({"taxonomy": ["bus"], "seed": 11})]
    for i in range(2000):
        d = i % 10
        k = 0 if d < 5 else 1 if d < 8 else 2 if d == 8 else 3 if i % 30 == 9 else 4
        x1, y1 = (i * 37 % 1000) / 7, (i * 53 % 800) / 3
        record = {
            "sample_id": f"s{i:04d}" + ("-\u00f1\u2603\t" if i % 11 == 0 else ""),
            "class_label": classes[k],
            "bbox": [x1, y1, x1 + 10 + (i % 13) * 1.25, y1 + 5.5 + i % 7],
            "condition": conditions[i % 5],
            "image_size": [1600, 900],
        }
        if i % 3 == 0:
            record["image_ref"] = f"img/{i:04d}.pgm"
        lines.append(json.dumps(record))
    return lines


# sha256 of each output of `resample --seed 5`, from the per-class grouping
# that ran three times per Combined resample and the dict-and-encode writer.
PINNED_RESAMPLE = {
    "Oversample": {
        "resampled.jsonl": "5b4f42cd520f66943ed77c95bc19de5cd79ea5e1e429a27be231f6bf96f7e6e1",
        "plan.json": "4395704628030daae5eb594d287d275c55eace19ce3f23bc29627517e56666f4",
        "distribution.json": "a8908d4f4b97d015043f37d6e0533c0b8e035c0aa59fac1093f47ca2e4f2ef80",
    },
    "Undersample": {
        "resampled.jsonl": "6fcd88126307e1c4dcb8a0d5da66325d2bdbefa67986f0c50feb6b04f75f9d50",
        "plan.json": "8e6297c13130b742e84beaccd61e15ee37ed7f1d1141293d8eb018c85e920691",
        "distribution.json": "fa17e2cccacd8fe34a7c372860b5384c8daf5ab2e91760827a5cd44b64ec387d",
    },
    "Combined": {
        "resampled.jsonl": "f45d8c0ea9f239b561110ef493998f50ed753133e59f74ce32dfac870347f619",
        "plan.json": "b93d760886c33ff683006a8b759f86b98329a128162c0b29e19b413ad837a393",
        "distribution.json": "84b1a4ec8361b4f5420caf8b4856b20e52b00a5326ce87a9f025b9cc11fbfb06",
    },
}


class TestPinnedResample:
    @pytest.mark.parametrize("mode", sorted(PINNED_RESAMPLE))
    def test_outputs_keep_their_bytes(self, tmp_path, mode):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n".join(_pinned_manifest_lines()) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["resample", "--manifest", str(manifest), "--mode", mode, "--seed", "5", "--out", str(out)]) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_RESAMPLE[mode]}
        assert got == PINNED_RESAMPLE[mode]


class TestTrain:
    def test_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "train", "--synthetic", "balanced", "--n-samples", "24",
            "--image-size", "16", "--channels", "4,6", "--epochs", "1",
            "--batch-size", "8", "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.snapshot").exists()
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 2  # header + one epoch
        assert "trained tiny_cnn" in capsys.readouterr().out

    def test_weighted_loss_path(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "train", "--synthetic", "imbalanced-80-10-10", "--n-samples", "30",
            "--image-size", "16", "--channels", "4,6", "--epochs", "1",
            "--batch-size", "8", "--weighted", "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.snapshot").exists()

    def test_manifest_needs_images_root(self, dataset_dir, tmp_path, capsys):
        manifest_path, _ = dataset_dir
        code = main([
            "train", "--manifest", str(manifest_path),
            "--epochs", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "--images-root" in capsys.readouterr().err

    def test_trains_from_manifest(self, dataset_dir, tmp_path):
        manifest_path, root = dataset_dir
        out = tmp_path / "out"
        code = main([
            "train", "--manifest", str(manifest_path), "--images-root", str(root),
            "--channels", "4,6", "--epochs", "1", "--batch-size", "8",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "model.snapshot").exists()


class TestAuditCommand:
    def test_summary_and_run_dir(self, audit_out):
        summary = json.loads((audit_out / "summary.json").read_text())
        assert len(summary) == 1
        assert set(summary[0]) == {"seed", "run_dir", "accuracy", "map"}
        run_dir = single_run_dir(audit_out)
        assert (run_dir / "report.json").exists()
        assert json.loads((audit_out / "config.json").read_text())["seed"] == 0

    def test_reports_are_byte_identical_across_runs(self, audit_out, tmp_path):
        again = tmp_path / "again"
        assert main(["audit", *FAST_AUDIT, "--out", str(again)]) == 0
        first = (single_run_dir(audit_out) / "report.json").read_bytes()
        second = (single_run_dir(again) / "report.json").read_bytes()
        assert first == second

    def test_env_seed_matches_explicit_flag(self, tmp_path, monkeypatch):
        flag_out = tmp_path / "flag"
        assert main(["audit", *FAST_AUDIT, "--seed", "3", "--out", str(flag_out)]) == 0
        env_out = tmp_path / "env"
        monkeypatch.setenv("BIASLENS_SEED", "3")
        assert main(["audit", *FAST_AUDIT, "--out", str(env_out)]) == 0
        assert single_run_dir(flag_out).name == single_run_dir(env_out).name
        assert (
            (single_run_dir(flag_out) / "report.json").read_bytes()
            == (single_run_dir(env_out) / "report.json").read_bytes()
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_multi_seed_run(self, tmp_path, jobs):
        out = tmp_path / "out"
        assert main(["audit", *FAST_AUDIT, "--seeds", "0,1", "--jobs", jobs, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [s["seed"] for s in summary] == [0, 1]
        run_dirs = {p.name for p in out.iterdir() if p.name.startswith("run-")}
        assert len(run_dirs) == 2


class TestCliApiParity:
    @pytest.mark.parametrize("model", ["tiny_cnn", "tiny_vit"])
    def test_default_audit_request_equals_default_options(self, model, tmp_path, monkeypatch):
        requested = []

        def capture(data, options, out_dir=None):
            requested.append(options)
            raise RuntimeError("options captured")

        monkeypatch.setattr("biaslens.cli.run_audit", capture)
        extra = [] if model == "tiny_cnn" else ["--model", model]
        assert main(["audit", *extra, "--out", str(tmp_path)]) == 2
        cli = requested[0]
        api = AuditOptions(model_kind=model)
        cli_json, api_json = cli.to_json_dict(), api.to_json_dict()
        # The CLI spells the architecture out, with the input size of its
        # data; AuditOptions() leaves it to the model's defaults. Both must
        # build the same model.
        del cli_json["arch"], api_json["arch"]
        assert cli_json == api_json
        assert build_audit_model(cli, 3).arch == build_audit_model(api, 3).arch

    def test_vit_audit_through_main_equals_run_audit(self, tmp_path):
        # The same request spelled as flags and as API objects: every value
        # below is written out, none is read from the CLI's own helpers.
        cli_out = tmp_path / "cli"
        args = [
            "audit", *FAST_VIT, "--probe-per-class", "4", "--sensitivity-samples", "2",
            "--seed", "5", "--out", str(cli_out),
        ]
        assert main(args) == 0
        data = generate_synthetic(
            SyntheticConfig(n_samples=24, shares=(1 / 3, 1 / 3, 1 / 3), image_hw=(16, 16), seed=5)
        )
        options = AuditOptions(
            model_kind="tiny_vit",
            train=TrainConfig(batch_size=8, epochs=1, seed=5),
            seed=5,
            probe_per_class=4,
            sensitivity_samples=2,
            arch={
                "input_hw": (16, 16), "patch": 4, "dim": 8, "n_heads": 2,
                "n_layers": 1, "mlp_ratio": 2.0,
            },
        )
        run = run_audit(data, options, out_dir=tmp_path / "api")
        cli_dir = single_run_dir(cli_out)
        assert run.run_dir.name == cli_dir.name
        for name in ("report.json", "trace.csv", "behavior.csv", "model.snapshot"):
            assert (run.run_dir / name).read_bytes() == (cli_dir / name).read_bytes(), name

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize(
        "model, flags, arch",
        [
            ("tiny_cnn", ["--channels", "4,6"], {"input_hw": (16, 16), "channels": (4, 6), "kernel": 3}),
            (
                "tiny_vit", ["--patch", "4", "--dim", "8", "--heads", "2", "--layers", "1"],
                {"input_hw": (16, 16), "patch": 4, "dim": 8, "n_heads": 2, "n_layers": 1, "mlp_ratio": 2.0},
            ),
        ],
        ids=["tiny_cnn", "tiny_vit"],
    )
    def test_train_through_main_equals_fit(self, tmp_path, model, flags, arch, weighted):
        cli_out = tmp_path / "cli"
        args = [
            "train", "--synthetic", "imbalanced-80-10-10", "--n-samples", "30", "--image-size", "16",
            "--model", model, *flags, "--epochs", "2", "--batch-size", "8", "--seed", "5",
            *(["--weighted"] if weighted else []), "--out", str(cli_out),
        ]
        assert main(args) == 0
        data = generate_synthetic(
            SyntheticConfig(n_samples=30, shares=(0.8, 0.1, 0.1), image_hw=(16, 16), seed=5)
        )
        weights = compute_class_weights(compute_distribution(data.manifest)) if weighted else None
        options = AuditOptions(model_kind=model, train=TrainConfig(batch_size=8, epochs=2), seed=5, arch=arch)
        _model, snapshot, trace = fit(options, data.dataset, weights)
        snapshot.save(tmp_path / "model.snapshot")
        trace.write_csv(tmp_path / "trace.csv")
        for name in ("model.snapshot", "trace.csv"):
            assert (tmp_path / name).read_bytes() == (cli_out / name).read_bytes(), name


# A report that renders, and every path to a value in it.
RENDERABLE_REPORT = {
    "dataset": {"total": 3, "counts": {"disk": 3}, "percentages": {"disk": 100.0}},
    "options": {},
    "seed": 0,
    "config_hash": "0",
    "pre": {
        "accuracy": 1.0, "map": 1.0, "nds": 1.0, "macro_iou": 1.0,
        "per_class": {"disk": {"ap": 1.0, "recall": 1.0, "mean_iou": 1.0, "fn_rate": 0.0, "selectivity": 0.5}},
    },
    "correlation": {"undefined": False, "coefficient": 0.5},
    "post": {"accuracy": 1.0, "map": 1.0, "nds": 1.0, "macro_iou": 1.0, "per_class": {}},
    "mitigation": {"strategy": "Combined"},
    "deltas": {},
    "verdicts": {"disk": "improved"},
}


def _paths(obj, prefix=()):
    for key, value in obj.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


@st.composite
def damaged_reports(draw):
    """The renderable report with a few values replaced by any JSON or removed."""
    report = json.loads(json.dumps(RENDERABLE_REPORT))
    for path in draw(st.lists(st.sampled_from(list(_paths(RENDERABLE_REPORT))), max_size=3)):
        parent = report
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            if draw(st.booleans()):
                parent[path[-1]] = draw(JSON_VALUES)
            else:
                parent.pop(path[-1], None)
    return report


class TestReportCommand:
    def test_prints_summary_to_stdout(self, audit_out, capsys):
        run_dir = single_run_dir(audit_out)
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "bias audit report" in out
        assert "pre-mitigation" in out

    def test_writes_text_file_when_out_given(self, audit_out, tmp_path):
        run_dir = single_run_dir(audit_out)
        dest = tmp_path / "rendered"
        assert main(["report", "--run-dir", str(run_dir), "--out", str(dest)]) == 0
        rendered = (dest / "report.txt").read_text(encoding="utf-8")
        assert rendered == (run_dir / "report.txt").read_text(encoding="utf-8")

    def test_missing_report_json(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        assert "report.json" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{}", "[]", "\"report\""])
    def test_malformed_report_exits_1_naming_the_file(self, tmp_path, capsys, content):
        (tmp_path / "report.json").write_text(content, encoding="utf-8")
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "report.json") in err

    @pytest.mark.parametrize("sides", ["pre-only", "pre+post"])
    def test_report_json_round_trips_through_the_command(self, tmp_path, capsys, sides):
        obj = json.loads(json.dumps(RENDERABLE_REPORT))
        if sides == "pre-only":
            for key in ("post", "mitigation", "deltas", "verdicts"):
                del obj[key]
        report = BiasReport(**obj)
        assert BiasReport.from_json_dict(json.loads(report.to_json())).to_json() == report.to_json()
        # A top-level key that names no report field is ignored.
        (tmp_path / "report.json").write_text(report.to_json()[:-2] + ',"extra":1}\n', encoding="utf-8")
        assert main(["report", "--run-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == report.text_summary()

    @pytest.mark.parametrize("key", ["dataset", "options", "seed", "config_hash", "pre", "correlation"])
    def test_missing_required_section_exits_1(self, tmp_path, capsys, key):
        obj = {k: v for k, v in RENDERABLE_REPORT.items() if k != key}
        (tmp_path / "report.json").write_text(json.dumps(obj), encoding="utf-8")
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        assert str(tmp_path / "report.json") in capsys.readouterr().err

    @given(obj=JSON_VALUES | damaged_reports())
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_json_shaped_report_exits_0_or_1(self, tmp_path, capsys, obj):
        (tmp_path / "report.json").write_text(json.dumps(obj), encoding="utf-8")
        code = main(["report", "--run-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        if code == 1:
            assert str(tmp_path / "report.json") in err


class TestMitigateCommand:
    def test_cost_sensitive_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "mitigate", *FAST_AUDIT, "--strategy", "CostSensitive",
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary[0]["verdicts"].values()) <= {"improved", "regressed", "unchanged"}
        assert "post_map" in summary[0]
        run_dirs = sorted(p.name for p in out.iterdir() if p.name.startswith("run-"))
        assert len(run_dirs) == 2  # baseline plus mitigated
        run_dir = out / run_dirs[1]
        assert run_dir.name.endswith("-costsensitive")
        report = json.loads((run_dir / "report.json").read_text())
        assert "post" in report and "deltas" in report
        assert "->" in capsys.readouterr().out

    def test_manifest_images_set_the_input_size(self, tmp_path, capsys):
        data = generate_synthetic(
            SyntheticConfig(n_samples=60, shares=(1 / 3, 1 / 3, 1 / 3), image_hw=(16, 16), seed=2)
        )
        manifest_path = write_dataset(data.manifest, data.dataset.images[:, 0], tmp_path / "data")
        out = tmp_path / "out"
        code = main([
            "mitigate", "--manifest", str(manifest_path), "--images-root", str(tmp_path / "data"),
            *FAST_TRAIN, "--strategy", "CostSensitive", "--out", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        run_dir = sorted(p for p in out.iterdir() if p.name.startswith("run-"))[0]
        report = json.loads((run_dir / "report.json").read_text())
        assert report["options"]["arch"]["input_hw"] == [16, 16]


class TestRecalibrateCommand:
    def test_wide_gap_converges_immediately(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "recalibrate", *FAST_RECALIBRATE, "--epsilon-gap", "1.1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "recalibration.json").read_text())
        assert payload["converged"] is True
        assert payload["iterations"] == 0
        assert len(payload["rows"]) == 1
        assert "converged" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", [0, 2])
    def test_spent_budget_stops_unconverged_training_once_per_row(self, tmp_path, capsys, call_counts, budget):
        out = tmp_path / "out"
        code = main([
            "recalibrate", *FAST_RECALIBRATE, "--epsilon-gap", "0", "--max-iterations", str(budget),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "recalibration.json").read_text())
        assert payload["converged"] is False
        assert payload["iterations"] == budget
        assert len(payload["rows"]) == budget + 1 == len(payload["history"])
        assert dict(call_counts) == {"train": len(payload["rows"])}
        assert f"stopped after {budget} adjustment(s)" in capsys.readouterr().out


    @pytest.mark.parametrize("key", [key for key, _ in NEVER_READ_BY_RECALIBRATE])
    def test_help_lists_no_audit_row_it_never_reads(self, capsys, key):
        """audit and mitigate keep the row; recalibrate's --help does not show it."""
        flag = f"--{key.replace('_', '-')} "
        helps = {}
        for sub in ("audit", "mitigate", "recalibrate"):
            assert main([sub, "--help"]) == 0
            helps[sub] = capsys.readouterr().out
        assert flag in helps["audit"] and flag in helps["mitigate"]
        assert flag not in helps["recalibrate"]


class TestAugmentCommand:
    def test_plan_and_augmented_manifest(self, dataset_dir, vit_snapshot, tmp_path, capsys):
        manifest_path, root = dataset_dir
        out = tmp_path / "out"
        code = main([
            "augment", "--manifest", str(manifest_path), "--images-root", str(root),
            "--snapshot", str(vit_snapshot), "--tau-att", "0.9", "--out", str(out),
        ])
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        assert isinstance(plan, list)
        assert (out / "augmented.jsonl").exists()
        assert "plan entries:" in capsys.readouterr().out

    def test_writes_what_attention_augmentation_returns(self, dataset_dir, vit_snapshot, tmp_path):
        manifest_path, root = dataset_dir
        out = tmp_path / "out"
        assert main([
            "augment", "--manifest", str(manifest_path), "--images-root", str(root),
            "--snapshot", str(vit_snapshot), "--tau-att", "0.9", "--kappa", "2", "--out", str(out),
        ]) == 0
        data = dataset_from_manifest(load_manifest(manifest_path), root)
        model = model_from_snapshot(load_snapshot(vit_snapshot))
        plan, records, images, _ = attention_augmentation(model, data, 0.9, 2.0)
        assert records, "the plan adds samples"
        assert json.loads((out / "plan.json").read_text()) == [r.to_json_dict() for r in plan]
        written = load_manifest(out / "augmented.jsonl")
        assert [replace(r, image_ref=None) for r in written.records] == records
        assert [r.image_ref for r in written.records] == [f"images/{r.sample_id}.pgm" for r in records]
        pixels = dataset_from_manifest(written, out).dataset.images[:, 0]
        npt.assert_array_equal(pixels, np.clip(np.rint(np.array(images) * 255.0), 0, 255) / 255.0)

    def test_missing_snapshot(self, dataset_dir, tmp_path, capsys):
        manifest_path, root = dataset_dir
        code = main([
            "augment", "--manifest", str(manifest_path), "--images-root", str(root),
            "--snapshot", str(tmp_path / "nope.snap"), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "snapshot file not found" in capsys.readouterr().err


class TestIdsThatNameFiles:
    """A sample id that names an output file must be one plain path
    component; any other exits 1 naming the record before anything is
    written, instead of writing outside --out."""

    @staticmethod
    def _renamed_manifest(tmp_path, dataset_dir, rename) -> Path:
        manifest_path, root = dataset_dir
        manifest = load_manifest(manifest_path)
        records = tuple(replace(r, sample_id=rename(i)) for i, r in enumerate(manifest.records))
        path = tmp_path / "renamed.jsonl"
        write_manifest(replace(manifest, records=records), path)
        return path

    @pytest.mark.parametrize("prefix", ["../", "..\\"])
    def test_augment(self, dataset_dir, vit_snapshot, tmp_path, capsys, prefix):
        path = self._renamed_manifest(tmp_path, dataset_dir, lambda i: f"{prefix}esc{i}")
        out = tmp_path / "deep" / "out"
        code = main([
            "augment", "--manifest", str(path), "--images-root", str(dataset_dir[1]),
            "--snapshot", str(vit_snapshot), "--tau-att", "0.9", "--kappa", "2", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"record {repr(prefix)[:-1]}esc" in err and "-aug" in err
        assert not (tmp_path / "deep").exists()

    @pytest.mark.parametrize("sample_id", ["../esc", "a\\b", "..", "."])
    def test_heatmap(self, dataset_dir, vit_snapshot, tmp_path, capsys, sample_id):
        path = self._renamed_manifest(tmp_path, dataset_dir, lambda i: sample_id if i == 2 else f"s{i}")
        out = tmp_path / "out"
        code = main([
            "heatmap", "--snapshot", str(vit_snapshot), "--manifest", str(path),
            "--images-root", str(dataset_dir[1]), "--index", "2", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"record {sample_id!r}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["renamed.jsonl"]


class TestHeatmapCommand:
    def test_attention_map_files(self, vit_snapshot, tmp_path):
        out = tmp_path / "out"
        code = main([
            "heatmap", "--snapshot", str(vit_snapshot), "--synthetic", "balanced",
            "--n-samples", "8", "--image-size", "16", "--index", "0",
            "--out", str(out),
        ])
        assert code == 0
        assert list(out.glob("attention-*.pgm"))
        assert list(out.glob("attention-*.csv"))

    def test_relevance_map(self, vit_snapshot, tmp_path):
        out = tmp_path / "out"
        code = main([
            "heatmap", "--snapshot", str(vit_snapshot), "--synthetic", "balanced",
            "--n-samples", "8", "--image-size", "16", "--source", "relevance",
            "--out", str(out),
        ])
        assert code == 0
        assert list(out.glob("relevance-*.pgm"))

    def test_cnn_snapshot_has_no_attention(self, tmp_path, capsys):
        train_out = tmp_path / "cnn"
        assert main([
            "train", "--synthetic", "balanced", "--n-samples", "16",
            "--image-size", "16", "--channels", "4,6", "--epochs", "1",
            "--batch-size", "8", "--out", str(train_out),
        ]) == 0
        code = main([
            "heatmap", "--snapshot", str(train_out / "model.snapshot"),
            "--synthetic", "balanced", "--n-samples", "8", "--image-size", "16",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "attention" in capsys.readouterr().err

    def test_maps_come_from_the_padded_pass(self, vit_snapshot, tmp_path, monkeypatch):
        """The sample is forwarded in a padded chunk, so both maps are the
        bits that a batched pass over the whole dataset gives that sample."""
        rows = []
        forward = TinyViT.forward

        def spy(self, x, train=False):
            rows.append(len(x))
            return forward(self, x, train)

        monkeypatch.setattr(TinyViT, "forward", spy)
        data = generate_synthetic(
            SyntheticConfig(n_samples=8, shares=(1 / 3,) * 3, image_hw=(16, 16), seed=0)
        )
        model = model_from_snapshot(load_snapshot(vit_snapshot))
        whole = forward_pass(model, data.dataset.images, attention=True)
        index = 3
        sample_id = data.dataset.sample_ids[index]
        expected = {
            "attention": whole.attention[-1][index].mean(axis=0).mean(axis=0).reshape(model.grid),
            "relevance": lrp_propagate(
                whole.attention, int(whole.probs[index].argmax()), sample=index, grid=model.grid
            ).as_grid(),
        }
        rows.clear()
        for source, grid_map in expected.items():
            out = tmp_path / source
            assert main([
                "heatmap", "--snapshot", str(vit_snapshot), "--synthetic", "balanced",
                "--n-samples", "8", "--image-size", "16", "--index", str(index),
                "--source", source, "--out", str(out),
            ]) == 0
            want = export_heatmap(grid_map, tmp_path / "expected" / source)
            for ref in want:
                assert (out / f"{source}-{sample_id}{ref.suffix}").read_bytes() == ref.read_bytes()
        assert rows and all(r % _ROW_BLOCK == 0 for r in rows), rows

    def test_out_of_range_index(self, vit_snapshot, tmp_path, capsys):
        code = main([
            "heatmap", "--snapshot", str(vit_snapshot), "--synthetic", "balanced",
            "--n-samples", "8", "--image-size", "16", "--index", "99",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_unknown_sample_id(self, vit_snapshot, tmp_path, capsys):
        code = main([
            "heatmap", "--snapshot", str(vit_snapshot), "--synthetic", "balanced",
            "--n-samples", "8", "--image-size", "16", "--sample-id", "ghost",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "ghost" in capsys.readouterr().err
