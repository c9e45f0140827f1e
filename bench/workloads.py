"""The benchmark's four workloads.

Each workload generates its inputs from the seed (``prepare``, timed as set-up),
makes one audit call and one mitigation call through the public API or the
CLI (``audit`` and ``mitigate``, the timed calls), and checks the outputs
against numbers computed here, apart from the program, or against properties
the method must have (``check``).

Sizes are chosen so that one audit and one mitigation call take a few seconds
each: a run repeats them several times and reports medians.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

import biaslens.audit as audit_mod
import biaslens.cli as cli_mod
from biaslens.audit import AuditOptions, Strategy
from biaslens.nn.optim import ConstantLR
from biaslens.nn.train import TrainConfig
from biaslens.synthetic import SyntheticConfig, generate_synthetic

SHARES = (0.9, 0.05, 0.05)
IMAGE_HW = (32, 32)
CLASSES = ("disk", "bar", "cross")  # generate_synthetic's class order
IOU_THRESHOLD = 0.5  # AuditOptions default, used by every workload


class Checker:
    """Records which named checks ran and whether each held every time."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        ok = bool(ok)
        self.results[name] = self.results.get(name, True) and ok
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expected_counts(n: int) -> list[int]:
    return [round(n * s) for s in SHARES]


# ---------------------------------------------------------------------------
# independent recomputations


def _iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def brute_force_ap(detections, records, class_label: str) -> float:
    """AP of one class, as the sum over true positives of the best precision
    reached at that rank or any later one, divided by the ground truths.

    Every sample has one ground truth and one detection, so a detection is a
    true positive exactly when its class and its box (IoU >= 0.5) match the
    sample's ground truth.
    """
    truth = {r.sample_id: r for r in records}
    n_gt = sum(1 for r in records if r.class_label == class_label)
    ranked = sorted(
        (d for d in detections if d.class_label == class_label), key=lambda d: -d.score
    )
    hits = []
    for d in ranked:
        gt = truth[d.sample_id]
        hits.append(gt.class_label == class_label and _iou(d.bbox, gt.bbox) >= IOU_THRESHOLD)
    precision = []
    tp = 0
    for k, hit in enumerate(hits, start=1):
        tp += hit
        precision.append(tp / k)
    return sum(max(precision[k:]) for k, hit in enumerate(hits) if hit) / n_gt


def recount_predictions(model, images: np.ndarray, labels: np.ndarray) -> tuple[float, dict]:
    """Accuracy and per-class recall from the model's own predictions."""
    preds = np.concatenate(
        [
            model.forward(images[i : i + 256], train=False).probs.argmax(axis=1)
            for i in range(0, len(images), 256)
        ]
    )
    recall = {c: float((preds[labels == k] == k).mean()) for k, c in enumerate(CLASSES)}
    return float((preds == labels).mean()), recall


def _epochs_for_budget(n_train: int, batch: int, max_steps: int, epochs: int) -> int:
    """Epochs a trace records when training stops after max_steps updates."""
    per_epoch = -(-n_train // batch)
    return min(epochs, -(-max_steps // per_epoch))


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# API workloads: run_audit -> run_mitigation


class _ApiWorkload:
    """Shared path of the two workloads that call the Python API."""

    strategy: Strategy
    epochs = 60

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.n_samples, self.max_steps = self.SIZES[small]
        self.options = self.make_options()
        self.training_sets: list = []

    def install_probes(self) -> None:
        """Keep the training set of each training call for the checks."""
        inner = audit_mod.train
        sets = self.training_sets

        def train(model, train_set, *args, **kwargs):
            sets.append(train_set)
            return inner(model, train_set, *args, **kwargs)

        audit_mod.train = train

    def prepare(self) -> None:
        self.data = generate_synthetic(
            SyntheticConfig(n_samples=self.n_samples, shares=SHARES, image_hw=IMAGE_HW, seed=self.seed)
        )

    def begin_round(self) -> None:
        self.training_sets.clear()
        self.run = self.mitigated = None
        shutil.rmtree(self.workdir / "round", ignore_errors=True)

    def audit(self) -> None:
        self.run = audit_mod.run_audit(self.data, self.options)

    def mitigate(self) -> None:
        self.mitigated = audit_mod.run_mitigation(self.run, self.strategy)

    def outputs(self) -> list[Path]:
        """Write both reports as the CLI would and return their paths."""
        paths = []
        for name, run in (("audit", self.run), ("mitigate", self.mitigated)):
            path = self.workdir / "round" / name / "report.json"
            path.parent.mkdir(parents=True)
            path.write_text(run.report.to_json(), encoding="utf-8")
            paths.append(path)
        return paths

    def _check_recount(self, chk: Checker) -> None:
        test_idx = self.run.splits[2]
        images = self.data.dataset.images[test_idx]
        labels = self.data.dataset.labels[test_idx]
        for side, model in (("pre", self.run.model), ("post", self.mitigated.model)):
            report = self.mitigated.report.to_json_dict()[side]
            accuracy, recall = recount_predictions(model, images, labels)
            chk.expect("recall_recount", all(
                _close(report["per_class"][c]["recall"], recall[c]) for c in CLASSES
            ), f"{side}: report {report['per_class']} vs recount {recall}")
            chk.expect("accuracy_recount", _close(report["accuracy"], accuracy),
                       f"{side}: {report['accuracy']} vs {accuracy}")

    def _check_epochs(self, chk: Checker) -> None:
        batch = self.options.train.batch_size
        for run, train_set in zip((self.run, self.mitigated), self.training_sets):
            want = _epochs_for_budget(len(train_set), batch, self.max_steps, self.epochs)
            chk.expect("trace_epochs", len(run.trace.rows) == want,
                       f"{len(run.trace.rows)} epochs for {len(train_set)} samples, want {want}")


class CnnCombined(_ApiWorkload):
    """TinyCNN (4, 8) at batch 8; audit, then Combined resampling + weights."""

    name = "cnn-combined"
    strategy = Strategy.COMBINED
    SIZES = {False: (1000, 150), True: (600, 20)}  # (images, max_steps)
    CHECKS = ("class_counts", "plan_targets_median", "retrain_balanced", "trace_epochs",
              "accuracy_recount", "recall_recount", "ap_brute_force", "map_mean")

    def make_options(self) -> AuditOptions:
        return AuditOptions(
            model_kind="tiny_cnn",
            train=TrainConfig(learning_rate=2e-3, batch_size=8, epochs=self.epochs,
                              max_steps=self.max_steps, lr_schedule=ConstantLR()),
            seed=self.seed,
            probe_per_class=16,
            sensitivity_samples=4,
            arch={"input_hw": IMAGE_HW, "channels": (4, 8)},
        )

    def check(self, chk: Checker) -> None:
        labels = self.data.dataset.labels
        want = _expected_counts(self.n_samples)
        chk.expect("class_counts", np.bincount(labels, minlength=3).tolist() == want
                   and [self.run.report.dataset["counts"][c] for c in CLASSES] == want,
                   f"{np.bincount(labels).tolist()} vs {want}")

        train_counts = np.bincount(labels[self.run.splits[0]], minlength=3)
        median = int(np.median(train_counts))
        targets = self.mitigated.report.mitigation["resample_plan"]["target_counts"]
        chk.expect("plan_targets_median", targets == {c: median for c in CLASSES},
                   f"{targets} vs median {median} of {train_counts.tolist()}")
        retrain = self.training_sets[1]
        chk.expect("retrain_balanced",
                   np.bincount(retrain.labels, minlength=3).tolist() == [median] * 3,
                   f"{np.bincount(retrain.labels).tolist()} vs {median}")
        self._check_epochs(chk)
        self._check_recount(chk)

        test = self.data.subset(self.run.splits[2])
        for side, model in (("pre", self.run.model), ("post", self.mitigated.model)):
            report = self.mitigated.report.to_json_dict()[side]
            detections = audit_mod.model_detections(model, test)
            aps = [brute_force_ap(detections, test.manifest.records, c) for c in CLASSES]
            chk.expect("ap_brute_force", all(
                _close(report["per_class"][c]["ap"], ap) for c, ap in zip(CLASSES, aps)
            ), f"{side}: {[report['per_class'][c]['ap'] for c in CLASSES]} vs {aps}")
            chk.expect("map_mean", _close(report["map"], sum(aps) / len(aps)),
                       f"{side}: {report['map']} vs {sum(aps) / len(aps)}")


class VitAugment(_ApiWorkload):
    """TinyViT (patch 4, dim 16, 2 heads, 2 layers) at batch 16; audit, then
    attention-guided augmentation plus relevance-informed duplication."""

    name = "vit-augment"
    strategy = Strategy.AUGMENT
    SIZES = {False: (1000, 60), True: (600, 10)}
    CHECKS = ("added_samples", "new_ids_unique", "attention_rows_sum_to_one",
              "accuracy_recount", "recall_recount", "trace_epochs")

    def make_options(self) -> AuditOptions:
        return AuditOptions(
            model_kind="tiny_vit",
            train=TrainConfig(learning_rate=2e-3, batch_size=16, epochs=self.epochs,
                              max_steps=self.max_steps),
            seed=self.seed,
            probe_per_class=16,
            sensitivity_samples=4,
            arch={"input_hw": IMAGE_HW, "patch": 4, "dim": 16, "n_heads": 2, "n_layers": 2},
        )

    def check(self, chk: Checker) -> None:
        mitigation = self.mitigated.report.mitigation
        records = self.data.manifest.records
        cells = {(records[i].class_label, records[i].condition.value) for i in self.run.splits[0]}
        planned = sum(
            r["count"] for r in mitigation["augment_plan"]
            if (r["class_label"], r["condition"]) in cells
        )
        duplicated = len(mitigation["relevance_duplicated"])
        chk.expect("added_samples", mitigation["added_samples"] == planned + duplicated,
                   f"{mitigation['added_samples']} vs {planned} + {duplicated}")

        original, retrain = self.training_sets
        ids = retrain.sample_ids
        chk.expect("new_ids_unique",
                   len(ids) == len(original) + planned + duplicated and len(set(ids)) == len(ids),
                   f"{len(ids)} ids, {len(set(ids))} distinct")

        probe = self.data.dataset.images[self.run.splits[2][:16]]
        attention = self.mitigated.model.forward(probe, train=False).attention
        worst = max(float(np.abs(a.sum(axis=-1) - 1.0).max()) for a in attention)
        chk.expect("attention_rows_sum_to_one", worst <= 1e-9, f"max |row sum - 1| = {worst}")
        self._check_recount(chk)
        self._check_epochs(chk)


# ---------------------------------------------------------------------------
# CLI workloads


class _CliWorkload:
    """Shared path of the two workloads that call ``biaslens.cli.main``."""

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.size = self.SIZES[small]
        self.out = workdir / "round"
        self.codes: list[int] = []

    def install_probes(self) -> None:
        pass

    def begin_round(self) -> None:
        self.codes.clear()
        shutil.rmtree(self.out, ignore_errors=True)

    def _cli(self, *argv: str) -> None:
        code = cli_mod.main(list(argv))
        self.codes.append(code)
        if code != 0:
            raise RuntimeError(f"biaslens {' '.join(argv)} exited {code}")


class CliSensitivity(_CliWorkload):
    """``biaslens audit`` and ``biaslens mitigate --strategy CostSensitive``
    on a manifest of PGM images, with per-epoch sensitivity tracking."""

    name = "cli-sensitivity"
    SIZES = {False: 600, True: 150}
    EPOCHS = 1
    UNITS = {"conv1": 8, "conv2": 16}  # the CLI's default TinyCNN channels
    CHECKS = ("exit_codes", "pre_sections_equal", "cost_weights", "behavior_rows")

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        super().__init__(seed, small, workdir)
        self.input = workdir / "input"

    def prepare(self) -> None:
        """Write a 32x32, 90/5/5 manifest and one P5 PGM per record."""
        data = generate_synthetic(
            SyntheticConfig(n_samples=self.size, shares=SHARES, image_hw=IMAGE_HW, seed=self.seed)
        )
        shutil.rmtree(self.input, ignore_errors=True)
        (self.input / "images").mkdir(parents=True)
        h, w = IMAGE_HW
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        lines = [json.dumps({"taxonomy": sorted(CLASSES), "seed": self.seed})]
        for i, record in enumerate(data.manifest.records):
            ref = f"images/{record.sample_id}.pgm"
            pixels = np.clip(np.rint(data.dataset.images[i, 0] * 255.0), 0, 255).astype(np.uint8)
            (self.input / ref).write_bytes(header + pixels.tobytes())
            lines.append(json.dumps({
                "sample_id": record.sample_id,
                "class_label": record.class_label,
                "bbox": list(record.bbox),
                "condition": record.condition.value,
                "image_size": [w, h],
                "image_ref": ref,
            }))
        (self.input / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.class_counts = {c: int((data.dataset.labels == k).sum()) for k, c in enumerate(CLASSES)}

    def _args(self, out: Path) -> list[str]:
        return [
            "--manifest", str(self.input / "manifest.jsonl"), "--images-root", str(self.input),
            "--track-sensitivity", "--batch-size", "32", "--epochs", str(self.EPOCHS),
            "--seed", str(self.seed), "--out", str(out),
        ]

    def audit(self) -> None:
        self._cli("audit", *self._args(self.out / "audit"))

    def mitigate(self) -> None:
        self._cli("mitigate", "--strategy", "CostSensitive", *self._args(self.out / "mitigate"))

    def outputs(self) -> list[Path]:
        return sorted(self.out.glob("*/run-*/report.json"))

    def check(self, chk: Checker) -> None:
        (audit_dir,) = (self.out / "audit").glob("run-*")
        mitigate_dirs = sorted((self.out / "mitigate").glob("run-*"))
        chk.expect("exit_codes", self.codes == [0, 0], f"exit codes {self.codes}")
        audit_report = json.loads((audit_dir / "report.json").read_text(encoding="utf-8"))
        (post_dir,) = [d for d in mitigate_dirs if d.name.endswith("-costsensitive")]
        post_report = json.loads((post_dir / "report.json").read_text(encoding="utf-8"))
        chk.expect("pre_sections_equal", post_report["pre"] == audit_report["pre"])

        # stratified split: round(0.7 * n) training samples of each class
        train_counts = {c: int(round(0.7 * n)) for c, n in self.class_counts.items()}
        total = sum(train_counts.values())
        raw = {c: total / n for c, n in train_counts.items()}
        norm = {c: v * len(raw) / sum(raw.values()) for c, v in raw.items()}
        got = post_report["mitigation"]["weights_history"][0]
        chk.expect("cost_weights", set(got) == set(CLASSES) and all(
            _close(got[c]["raw"], raw[c]) and _close(got[c]["normalized"], norm[c]) for c in CLASSES
        ), f"{got} vs raw {raw} normalized {norm}")

        want = {
            (str(e), layer, str(unit), c)
            for e in range(self.EPOCHS) for layer, n in self.UNITS.items()
            for unit in range(n) for c in CLASSES
        }
        for run_dir in [audit_dir, *mitigate_dirs]:
            lines = (run_dir / "behavior.csv").read_text(encoding="utf-8").splitlines()[1:]
            rows = [line.split(",") for line in lines]
            keys = [tuple(r[:4]) for r in rows]
            sens = [float(r[4]) for r in rows]
            chk.expect("behavior_rows",
                       len(keys) == len(want) and set(keys) == want
                       and all(math.isfinite(s) and s >= 0.0 for s in sens),
                       f"{run_dir.name}: {len(keys)} rows, want {len(want)}")


class ManifestScale(_CliWorkload):
    """``biaslens analyze`` and ``biaslens resample --mode Combined`` on a
    generated nuScenes-like manifest: 6 long-tailed classes, 5 conditions,
    1600x900 frames."""

    name = "manifest-scale"
    SIZES = {False: 50_000, True: 5_000}
    CLASS_SHARES = {"car": 0.52, "pedestrian": 0.24, "truck": 0.11,
                    "bus": 0.06, "bicycle": 0.04, "motorcycle": 0.03}
    CONDITION_SHARES = {"Normal": 0.6, "Night": 0.15, "Weather": 0.15, "Rotated": 0.05, "Mixed": 0.05}
    FRAME = (1600, 900)
    CHECKS = ("exit_codes", "analyze_counts", "percentages_sum_100", "resampled_median",
              "resampled_copies")

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        super().__init__(seed, small, workdir)
        self.manifest = workdir / "input" / "manifest.jsonl"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.size
        classes = list(self.CLASS_SHARES)
        conditions = list(self.CONDITION_SHARES)
        cls = rng.choice(len(classes), size=n, p=list(self.CLASS_SHARES.values()))
        cond = rng.choice(len(conditions), size=n, p=list(self.CONDITION_SHARES.values()))
        fw, fh = self.FRAME
        bw = rng.uniform(16.0, 480.0, size=n)
        bh = rng.uniform(16.0, 360.0, size=n)
        x1 = np.round(rng.uniform(0.0, fw - bw), 2)
        y1 = np.round(rng.uniform(0.0, fh - bh), 2)
        x2 = np.minimum(np.round(x1 + bw, 2), fw)
        y2 = np.minimum(np.round(y1 + bh, 2), fh)
        lines = [json.dumps({"taxonomy": sorted(classes), "seed": self.seed})]
        for i, (k, j, a, b, c, d) in enumerate(
            zip(cls.tolist(), cond.tolist(), x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())
        ):
            lines.append(
                f'{{"sample_id": "ns-{self.seed}-{i:06d}", "class_label": "{classes[k]}", '
                f'"bbox": [{a!r}, {b!r}, {c!r}, {d!r}], "condition": "{conditions[j]}", '
                f'"image_size": [{fw}, {fh}]}}'
            )
        self.manifest.parent.mkdir(parents=True, exist_ok=True)
        self.manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.counts = {c: int((cls == k).sum()) for k, c in enumerate(classes)}
        # kept as arrays: a dict of records would load the garbage collector
        # during the timed calls
        self.sources = (cls, cond, np.stack([x1, y1, x2, y2], axis=1))

    def audit(self) -> None:
        self._cli("analyze", "--manifest", str(self.manifest), "--out", str(self.out / "analyze"))

    def mitigate(self) -> None:
        self._cli("resample", "--manifest", str(self.manifest), "--mode", "Combined",
                  "--seed", str(self.seed), "--out", str(self.out / "resample"))

    def outputs(self) -> list[Path]:
        return [self.out / "analyze" / "distribution.json",
                self.out / "resample" / "plan.json",
                self.out / "resample" / "resampled.jsonl"]

    def check(self, chk: Checker) -> None:
        chk.expect("exit_codes", self.codes == [0, 0], f"exit codes {self.codes}")
        dist = json.loads((self.out / "analyze" / "distribution.json").read_text(encoding="utf-8"))
        chk.expect("analyze_counts", dist["counts"] == self.counts and dist["total"] == self.size,
                   f"{dist['counts']} vs {self.counts}")
        pct = sum(dist["percentages"].values())
        chk.expect("percentages_sum_100", abs(pct - 100.0) <= 1e-9, f"sum {pct!r}")

        median = int(statistics.median(self.counts.values()))
        classes, conditions = list(self.CLASS_SHARES), list(self.CONDITION_SHARES)
        cls, cond, boxes = self.sources
        got: dict[str, int] = {}
        copies_ok = True
        with (self.out / "resample" / "resampled.jsonl").open(encoding="utf-8") as fh:
            next(fh)  # header
            for line in fh:
                r = json.loads(line)
                got[r["class_label"]] = got.get(r["class_label"], 0) + 1
                i = int(r["sample_id"].rpartition("-")[2])
                copies_ok &= (r["sample_id"] == f"ns-{self.seed}-{i:06d}"
                              and r["class_label"] == classes[cls[i]]
                              and r["condition"] == conditions[cond[i]]
                              and r["bbox"] == boxes[i].tolist())
        chk.expect("resampled_median", got == {c: median for c in self.counts},
                   f"{got} vs median {median}")
        chk.expect("resampled_copies", copies_ok, "a resampled record differs from its source")


WORKLOADS = {w.name: w for w in (CnnCombined, VitAugment, CliSensitivity, ManifestScale)}


def fingerprint(workdir: Path, paths: list[Path]) -> dict[str, str]:
    """SHA-256 of each output file, keyed by its path in the round directory."""
    return {str(p.relative_to(workdir / "round")): _sha256(p) for p in paths}
