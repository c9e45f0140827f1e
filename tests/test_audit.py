"""Tests for the end-to-end audit pipeline: decoding, evaluation,
correlation, mitigation, recalibration, and report reproducibility."""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biaslens.audit as audit_mod
import biaslens.behavior as behavior_mod
from biaslens.audit import (
    AuditError,
    AuditOptions,
    BiasReport,
    Strategy,
    canonical_json,
    correlate_errors,
    decode_center_box,
    evaluate_side,
    recalibration_loop,
    run_audit,
    run_mitigation,
)
from biaslens.losses import compute_class_weights, dynamic_weight_adjust, weighted_ce_from_logits
from biaslens.manifest import Condition, class_counts, compute_distribution
from biaslens.nn.models import TinyViT, build_model
from biaslens.nn.optim import StepDecayLR
from biaslens.nn.train import MetricTrace, TrainConfig, evaluate
from biaslens.sampling import ResampleMode, default_plan, resample_rows
from biaslens.synthetic import (
    SyntheticConfig,
    SyntheticData,
    generate_synthetic,
    normalize_box_to_center_form,
)

from conftest import ForwardRecorder

SMALL_ARCH = {"input_hw": (16, 16), "channels": (4, 6), "kernel": 3}
VIT_ARCH = {"input_hw": (16, 16), "patch": 4, "dim": 8, "n_heads": 2, "n_layers": 2}


def small_options(**overrides):
    kwargs = dict(
        model_kind="tiny_cnn",
        train=TrainConfig(learning_rate=2e-3, batch_size=16, epochs=2),
        seed=0,
        probe_per_class=8,
        sensitivity_samples=4,
        arch=dict(SMALL_ARCH),
    )
    kwargs.update(overrides)
    return AuditOptions(**kwargs)


def small_data(n=90, shares=(1 / 3, 1 / 3, 1 / 3), seed=0):
    return generate_synthetic(
        SyntheticConfig(n_samples=n, shares=shares, image_hw=(16, 16), seed=seed)
    )


def with_shared_disk_ids(data):
    """The same data, with each pair of distinct disk records sharing one id."""
    records = list(data.manifest.records)
    disks = [i for i, r in enumerate(records) if r.class_label == "disk"]
    for j, i in enumerate(disks):
        records[i] = replace(records[i], sample_id=f"disk-{j // 2}")
    ids = tuple(r.sample_id for r in records)
    return replace(
        data,
        manifest=replace(data.manifest, records=tuple(records)),
        dataset=replace(data.dataset, sample_ids=ids),
    )


def assert_rows_match_records(out, source):
    """Every row of ``out`` holds its own record's label and box, and each
    row copied from ``source`` (not augmented) holds the image of the
    source record with the same box."""
    image_by_box = {r.bbox: source.dataset.images[i] for i, r in enumerate(source.manifest.records)}
    for i, record in enumerate(out.manifest.records):
        assert out.dataset.class_order[out.dataset.labels[i]] == record.class_label
        box = normalize_box_to_center_form(record.bbox, record.image_size)
        assert np.array_equal(out.dataset.boxes[i], box), f"row {i} holds another record's box"
        if "-aug" not in record.sample_id:
            assert np.array_equal(out.dataset.images[i], image_by_box[record.bbox])


@pytest.fixture(scope="module")
def baseline_run():
    return run_audit(small_data(), small_options())


@pytest.fixture(scope="module")
def vit_run():
    options = small_options(model_kind="tiny_vit", arch=dict(VIT_ARCH))
    return run_audit(small_data(), options)


class TestDecodeCenterBox:
    def test_centered_box(self):
        box = decode_center_box((0.5, 0.5, 0.5, 0.5), (32, 32))
        npt.assert_allclose(box, (8.0, 8.0, 24.0, 24.0))

    def test_overflow_clips_to_frame(self):
        x1, y1, x2, y2 = decode_center_box((0.9, 0.5, 0.5, 0.5), (32, 32))
        assert x2 == 32.0
        npt.assert_allclose((x1, y1, y2), (20.8, 8.0, 24.0))

    def test_zero_extent_gets_minimum_width(self):
        x1, y1, x2, y2 = decode_center_box((0.5, 0.5, 0.0, 0.5), (32, 32))
        npt.assert_allclose(x2 - x1, 0.032, atol=1e-12)
        npt.assert_allclose((x1 + x2) / 2, 16.0, atol=1e-12)
        npt.assert_allclose((y1, y2), (8.0, 24.0))

    def test_corner_degenerate_box_stays_in_frame(self):
        x1, y1, x2, y2 = decode_center_box((0.0, 0.0, 0.0, 0.0), (32, 32))
        assert 0.0 <= x1 < x2 <= 32.0
        assert 0.0 <= y1 < y2 <= 32.0

    @given(
        cx=st.floats(0, 1), cy=st.floats(0, 1),
        bw=st.floats(0, 1), bh=st.floats(0, 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_degenerate_never_outside(self, cx, cy, bw, bh):
        x1, y1, x2, y2 = decode_center_box((cx, cy, bw, bh), (32, 24))
        assert 0.0 <= x1 < x2 <= 32.0
        assert 0.0 <= y1 < y2 <= 24.0


class TestCorrelateErrors:
    def test_perfectly_inverted_ranks(self):
        out = correlate_errors(
            {"a": 0.3, "b": 0.1, "c": 0.2}, {"a": 0.1, "b": 0.9, "c": 0.5}
        )
        npt.assert_allclose(out["coefficient"], -1.0)
        assert out["undefined"] is False
        assert out["classes"] == ["a", "b", "c"]

    def test_aligned_ranks(self):
        out = correlate_errors(
            {"a": 0.3, "b": 0.1, "c": 0.2}, {"a": 0.9, "b": 0.1, "c": 0.5}
        )
        npt.assert_allclose(out["coefficient"], 1.0)

    def test_four_point_hand_value(self):
        # rank displacements (3, 0, 0, 3): rho = 1 - 6*18 / (4*15) = -0.8
        out = correlate_errors(
            {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4},
            {"a": 0.9, "b": 0.7, "c": 0.8, "d": 0.1},
        )
        npt.assert_allclose(out["coefficient"], -0.8)

    def test_constant_series_is_undefined(self):
        out = correlate_errors(
            {"a": 0.5, "b": 0.5, "c": 0.5}, {"a": 0.1, "b": 0.2, "c": 0.3}
        )
        assert out == {"coefficient": None, "undefined": True, "classes": ["a", "b", "c"]}

    def test_too_few_classes_rejected(self):
        with pytest.raises(AuditError, match=">= 3"):
            correlate_errors({"a": 0.1, "b": 0.2}, {"a": 0.3, "b": 0.4})

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False) | st.sampled_from([0.0, 0.5, 1.0]),
                st.floats(-10, 10, allow_nan=False) | st.sampled_from([0.0, 0.5, 1.0]),
            ),
            min_size=3,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_coefficient_equals_scipy_spearmanr_exactly(self, pairs):
        from scipy.stats import spearmanr

        x, y = zip(*pairs)
        classes = [f"c{i:02d}" for i in range(len(pairs))]
        out = correlate_errors(dict(zip(classes, x)), dict(zip(classes, y)))
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert out["undefined"] is True
        else:
            assert out["coefficient"] == float(spearmanr(x, y).statistic)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, biaslens.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_only_shared_classes_counted(self):
        out = correlate_errors(
            {"a": 0.1, "b": 0.2, "c": 0.3, "extra": 0.9},
            {"a": 0.3, "b": 0.2, "c": 0.1, "other": 0.5},
        )
        assert out["classes"] == ["a", "b", "c"]


class TestRunAudit:
    def test_epoch_tracking_probes_sensitivity_samples_per_class(self, monkeypatch):
        probed = []
        original = behavior_mod.sensitivity_scores

        def counting(model, images, tap):
            probed.append(len(images))
            return original(model, images, tap)

        monkeypatch.setattr(behavior_mod, "sensitivity_scores", counting)
        # 180 samples leave 8 validation images of each class for the probe.
        run = run_audit(small_data(n=180), small_options(track_sensitivity=True))
        assert run.behavior.records
        assert probed and set(probed) == {4}

    def test_report_shape(self, baseline_run):
        report = baseline_run.report
        assert report.post is None
        assert set(report.dataset) == {"counts", "percentages", "per_condition", "total"}
        assert report.dataset["total"] == 90
        assert set(report.pre["per_class"]) == {"bar", "cross", "disk"}
        for metrics in report.pre["per_class"].values():
            assert set(metrics) == {
                "ap", "recall", "mean_iou", "fp", "fn", "fp_rate", "fn_rate",
                "nds", "sensitivity", "selectivity",
            }
        assert 0.0 <= report.pre["map"] <= 1.0
        assert 0.0 <= report.pre["nds"] <= 1.0

    def test_report_json_is_reproducible(self, baseline_run):
        again = run_audit(small_data(), small_options())
        assert again.report.to_json() == baseline_run.report.to_json()

    def test_report_json_parses_canonically(self, baseline_run):
        text = baseline_run.report.to_json()
        parsed = json.loads(text)
        assert canonical_json(parsed) + "\n" == text

    def test_seed_changes_report(self, baseline_run):
        other = run_audit(small_data(), small_options(seed=1))
        assert other.report.to_json() != baseline_run.report.to_json()
        assert other.report.config_hash != baseline_run.report.config_hash

    def test_correlation_section(self, baseline_run):
        correlation = baseline_run.report.correlation
        assert correlation["classes"] == ["bar", "cross", "disk"]
        if not correlation["undefined"]:
            assert -1.0 <= correlation["coefficient"] <= 1.0

    def test_by_condition_table(self, baseline_run):
        by_condition = baseline_run.report.pre["by_condition"]
        assert set(by_condition) <= {c.value for c in Condition}
        for row in by_condition.values():
            assert "total" in row

    def test_class_missing_from_split_is_an_error(self):
        data = small_data(n=61, shares=(59 / 61, 1 / 61, 1 / 61))
        with pytest.raises(AuditError, match="absent from"):
            run_audit(data, small_options())

    def test_artifacts_written(self, tmp_path):
        options = small_options()
        run = run_audit(small_data(n=60), options, out_dir=tmp_path)
        assert run.run_dir == tmp_path / f"run-s0-{options.config_hash()}"
        for name in (
            "report.json", "report.txt", "config.json", "trace.csv",
            "behavior.csv", "model.snapshot", "condition_ap.csv",
        ):
            assert (run.run_dir / name).exists(), name
        assert (run.run_dir / "report.json").read_text() == run.report.to_json()

    def test_text_summary_mentions_key_lines(self, baseline_run):
        text = baseline_run.report.text_summary()
        assert "bias audit report" in text
        assert "seed 0" in text
        assert "pre-mitigation" in text
        assert "correlation" in text


class TestEvaluateSide:
    @staticmethod
    def _recorded_side(options, test):
        """evaluate_side through a ForwardRecorder, and the same call on an
        unwrapped model with the same seed."""
        arch = {"kind": "tiny_cnn", "n_classes": 3, **SMALL_ARCH}
        model = build_model(arch, seed=0)
        recorder = ForwardRecorder(model)
        side = evaluate_side(model, test, options)
        plain = evaluate_side(build_model(arch, seed=0), test, options)
        assert canonical_json(side) == canonical_json(plain)  # no padding row was read
        return side, recorder

    def test_without_sensitivity_forwards_each_test_row_once(self, monkeypatch):
        monkeypatch.setattr(
            audit_mod, "sensitivity_scores",
            lambda model, images, tap: np.ones(SMALL_ARCH["channels"][-1]),
        )
        options = small_options(probe_per_class=7)
        test = small_data(n=62)  # 32 + 30 rows: the last chunk is padded
        side, recorder = self._recorded_side(options, test)
        recorder.assert_each_row_once(test.dataset.images)  # the probe reads this pass
        assert set(side["per_class"]) == {"disk", "bar", "cross"}

    def test_forwards_each_test_row_once_plus_the_sensitivity_rows(self):
        options = small_options(probe_per_class=7)
        test = small_data(n=62)  # 32 + 30 rows: the last chunk is padded
        _, recorder = self._recorded_side(options, test)
        rows = behavior_mod.balanced_probe(test.dataset, options.probe_per_class, options.seed)
        labels = test.dataset.labels[rows]
        per_class = [
            test.dataset.images[rows[labels == k]][: options.sensitivity_samples] for k in range(3)
        ]
        recorder.assert_each_row_once(test.dataset.images, *per_class)


class TestAugmentPasses:
    """The Augment step reads one light pass over the training split, and
    keeps per-layer attention maps only for its misclassified rows."""

    def test_one_attention_pass_over_the_misclassified_rows(self, vit_run, monkeypatch):
        train = vit_run.data.subset(vit_run.splits[0])
        calls = []
        forward_pass = audit_mod.forward_pass

        def spy(model, images, *args, **kwargs):
            calls.append((images.copy(), kwargs.get("attention", False)))
            return forward_pass(model, images, *args, **kwargs)

        monkeypatch.setattr(audit_mod, "forward_pass", spy)
        audit_mod._augment_training(vit_run, train)
        preds = evaluate(vit_run.model, train.dataset)["preds"]
        wrong = np.flatnonzero(preds != train.dataset.labels)
        assert 0 < len(wrong) < len(train.dataset)
        assert [flag for _, flag in calls] == [False, True]
        npt.assert_array_equal(calls[0][0], train.dataset.images)
        npt.assert_array_equal(calls[1][0], train.dataset.images[wrong])

    def test_peak_memory_stays_well_below_whole_split_maps(self, vit_run):
        # 8x8 patches of 2 px: each sample's maps (2 layers x 2 heads x
        # 64 x 64 doubles, 128 KiB) dwarf its 2 KiB image.
        model = TinyViT(
            n_classes=3, input_hw=(16, 16), patch=2, dim=8, n_heads=2, n_layers=2, seed=3
        )
        data = small_data(n=300)
        preds = evaluate(model, data.dataset)["preds"]
        # Relabel so that the model misclassifies exactly every tenth row.
        order = data.dataset.class_order
        records = tuple(
            replace(r, class_label=order[(preds[i] + (i % 10 == 0)) % 3])
            for i, r in enumerate(data.manifest.records)
        )
        train = SyntheticData.from_records(
            replace(data.manifest, records=records), data.dataset.images, order
        )
        run = replace(vit_run, model=model)
        maps = 2 * len(train.dataset) * 2 * model.n_patches**2 * 8  # bytes, whole split
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            _augmented, _plan, dup_ids = audit_mod._augment_training(run, train)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert len(dup_ids) <= 30
        assert peak < maps / 2, f"peak {peak / 2**20:.1f} MiB for {maps / 2**20:.1f} MiB of maps"


class TestSharedSampleIds:
    """Records are paired with rows by position, so distinct records that
    share a sample id each keep their own box and image."""

    def test_combined_resampling_keeps_each_records_row(self):
        data = with_shared_disk_ids(small_data(n=60, shares=(0.2, 0.5, 0.3)))
        plan = default_plan(class_counts(data.manifest), ResampleMode.COMBINED, seed=3)
        resampled = data.subset(resample_rows(data.manifest, plan))
        assert plan.target_counts == {"disk": 18, "bar": 18, "cross": 18}
        assert np.bincount(resampled.dataset.labels).tolist() == [18, 18, 18]
        assert_rows_match_records(resampled, data)

    def test_relevance_duplicates_keep_each_records_row(self, vit_run):
        train = with_shared_disk_ids(vit_run.data.subset(vit_run.splits[0]))
        run = replace(vit_run, options=replace(vit_run.options, tau_rel=1.01))
        augmented, _plan, dup_ids = audit_mod._augment_training(run, train)
        assert dup_ids
        assert_rows_match_records(augmented, train)
        preds = evaluate(vit_run.model, train.dataset)["preds"]
        row_by_box = {r.bbox: i for i, r in enumerate(train.manifest.records)}
        for record in augmented.manifest.records[-len(dup_ids):]:
            src = row_by_box[record.bbox]
            assert preds[src] != train.dataset.labels[src], "a well-classified row was duplicated"


class TestRunMitigation:
    def test_mitigation_reuses_the_audit_split(self, monkeypatch):
        calls = []
        split = audit_mod.stratified_split

        def spy(*args, **kwargs):
            calls.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(audit_mod, "stratified_split", spy)
        run = run_audit(small_data(), small_options())
        mitigated = run_mitigation(run, Strategy.COST_SENSITIVE)
        assert len(calls) == 1
        assert mitigated.splits is run.splits

    def test_pre_section_is_bit_identical(self, baseline_run):
        mitigated = run_mitigation(baseline_run, Strategy.COST_SENSITIVE)
        assert mitigated.report.pre is baseline_run.report.pre
        pre_json = canonical_json(baseline_run.report.to_json_dict()["pre"])
        post_run_pre_json = canonical_json(mitigated.report.to_json_dict()["pre"])
        assert pre_json == post_run_pre_json

    def test_verdicts_follow_deltas(self, baseline_run):
        mitigated = run_mitigation(baseline_run, Strategy.COST_SENSITIVE)
        options = baseline_run.options
        for c, verdict in mitigated.report.verdicts.items():
            d = mitigated.report.deltas[c]
            if d["fn_rate"] <= options.fn_delta_threshold and d["ap"] >= options.ap_delta_threshold:
                expected = "improved"
            elif d["fn_rate"] >= -options.fn_delta_threshold or d["ap"] <= -options.ap_delta_threshold:
                expected = "regressed"
            else:
                expected = "unchanged"
            assert verdict == expected, c

    def test_delta_keys(self, baseline_run):
        mitigated = run_mitigation(baseline_run, Strategy.RESAMPLE)
        for d in mitigated.report.deltas.values():
            assert set(d) == {"fn_rate", "ap", "recall", "mean_iou"}

    def test_cost_sensitive_on_balanced_data_barely_moves_iou(self, baseline_run):
        # equal shares -> unit weights -> same training trajectory
        mitigated = run_mitigation(baseline_run, Strategy.COST_SENSITIVE)
        delta = mitigated.report.post["macro_iou"] - baseline_run.report.pre["macro_iou"]
        assert abs(delta) < 0.02

    def test_resample_on_balanced_data_is_identity_plan(self, baseline_run):
        mitigated = run_mitigation(baseline_run, Strategy.RESAMPLE)
        plan = mitigated.report.mitigation["resample_plan"]
        counts = baseline_run.report.dataset["counts"]
        # per-class train-split counts: 70% of a balanced 90-sample set
        assert set(plan["target_counts"]) == set(counts)
        assert len(set(plan["target_counts"].values())) == 1

    def test_combined_records_plan_and_weights(self, baseline_run):
        mitigated = run_mitigation(baseline_run, Strategy.COMBINED)
        record = mitigated.report.mitigation
        assert record["strategy"] == "Combined"
        assert "resample_plan" in record
        assert "weights_history" in record
        total = sum(
            w["normalized"] for w in record["weights_history"][-1].values()
        )
        npt.assert_allclose(total, 3.0, atol=1e-9)

    def test_augment_requires_attention_model(self, baseline_run):
        with pytest.raises(AuditError, match="tiny_vit"):
            run_mitigation(baseline_run, Strategy.AUGMENT)

    def test_augment_with_vit(self, vit_run):
        mitigated = run_mitigation(vit_run, Strategy.AUGMENT)
        record = mitigated.report.mitigation
        assert record["strategy"] == "Augment"
        assert isinstance(record["augment_plan"], list)
        assert isinstance(record["relevance_duplicated"], list)
        assert record["added_samples"] >= 0
        assert record["added_samples"] == sum(
            r["count"] for r in record["augment_plan"]
        ) + len(record["relevance_duplicated"])
        assert mitigated.report.post is not None

    def test_mitigation_artifacts_use_strategy_suffix(self, baseline_run, tmp_path):
        mitigated = run_mitigation(baseline_run, Strategy.RESAMPLE, out_dir=tmp_path)
        assert mitigated.run_dir.name.endswith("-resample")
        assert (mitigated.run_dir / "report.json").exists()


class TestStrategiesCompose:
    """Resample and CostSensitive are steps; Combined takes both in turn,
    and Augment adds the attention plan's samples and the relevance
    duplicates to the training split."""

    KEYS = {
        Strategy.COST_SENSITIVE: {"strategy", "weights_history"},
        Strategy.RESAMPLE: {"strategy", "resample_plan"},
        Strategy.COMBINED: {"strategy", "resample_plan", "weights_history"},
        Strategy.AUGMENT: {"strategy", "augment_plan", "relevance_duplicated", "added_samples"},
    }

    @staticmethod
    def _retrain(run, strategy, monkeypatch):
        """The mitigated run plus the training set and loss of its training."""
        calls = []
        inner = audit_mod.train

        def spy(model, train_set, *args, **kwargs):
            calls.append((train_set, kwargs.get("loss_fn")))
            return inner(model, train_set, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(audit_mod, "train", spy)
            mitigated = run_mitigation(run, strategy)
        assert len(calls) == 1
        return mitigated, *calls[0]

    @staticmethod
    def _assert_same_rows(got, want):
        for name in ("images", "labels", "boxes"):
            npt.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.sample_ids == want.sample_ids

    @pytest.mark.parametrize("strategy", [Strategy.COST_SENSITIVE, Strategy.RESAMPLE, Strategy.COMBINED])
    def test_record_training_set_and_weights(self, baseline_run, monkeypatch, strategy):
        mitigated, train_set, loss_fn = self._retrain(baseline_run, strategy, monkeypatch)
        record = mitigated.report.mitigation
        assert set(record) == self.KEYS[strategy]
        train_d = baseline_run.data.subset(baseline_run.splits[0])
        if "resample_plan" in record:
            plan = default_plan(class_counts(train_d.manifest), ResampleMode.COMBINED, seed=baseline_run.options.seed)
            train_d = train_d.subset(resample_rows(train_d.manifest, plan))
            assert record["resample_plan"] == plan.to_json_dict()
        self._assert_same_rows(train_set, train_d.dataset)
        if "weights_history" not in record:
            assert loss_fn is None
            return
        weights = compute_class_weights(compute_distribution(train_d.manifest))
        assert record["weights_history"] == [weights.to_json_dict()]
        npt.assert_array_equal(loss_fn.keywords["weights"], weights.as_vector(train_d.dataset.class_order))

    def test_combined_trains_on_the_resampled_set_with_its_weights(self, monkeypatch):
        run = run_audit(small_data(shares=(0.5, 0.3, 0.2)), small_options())
        _, resampled, none = self._retrain(run, Strategy.RESAMPLE, monkeypatch)
        _, combined, loss_fn = self._retrain(run, Strategy.COMBINED, monkeypatch)
        assert none is None
        self._assert_same_rows(combined, resampled)
        counts = np.bincount(resampled.labels, minlength=3)
        assert len(set(counts.tolist())) == 1, "resampling equalizes the classes"
        train_d = run.data.subset(run.splits[0])
        plan = default_plan(class_counts(train_d.manifest), ResampleMode.COMBINED, seed=run.options.seed)
        rows = resample_rows(train_d.manifest, plan)
        weights = compute_class_weights(compute_distribution(train_d.subset(rows).manifest))
        npt.assert_array_equal(loss_fn.keywords["weights"], weights.as_vector(resampled.class_order))

    def test_augment_trains_on_the_split_plus_new_samples(self, vit_run, monkeypatch):
        mitigated, train_set, loss_fn = self._retrain(vit_run, Strategy.AUGMENT, monkeypatch)
        record = mitigated.report.mitigation
        assert set(record) == self.KEYS[Strategy.AUGMENT]
        assert loss_fn is None
        train_d = vit_run.data.subset(vit_run.splits[0])
        augmented, plan, dup_ids = audit_mod._augment_training(vit_run, train_d)
        self._assert_same_rows(train_set, augmented.dataset)
        assert record["augment_plan"] == [r.to_json_dict() for r in plan]
        assert record["relevance_duplicated"] == dup_ids
        assert len(train_set) == len(train_d.dataset) + record["added_samples"]
        self._assert_same_rows(train_set.subset(np.arange(len(train_d.dataset))), train_d.dataset)

    def test_augmentation_is_the_planner_of_the_mitigation(self, vit_run):
        train_d = vit_run.data.subset(vit_run.splits[0])
        options = vit_run.options
        plan, records, images, inference = audit_mod.attention_augmentation(
            vit_run.model, train_d, options.tau_att, options.kappa
        )
        augmented, mitigation_plan, dup_ids = audit_mod._augment_training(vit_run, train_d)
        assert mitigation_plan == plan
        n = len(train_d.dataset)
        assert list(augmented.manifest.records[n : n + len(records)]) == records
        npt.assert_array_equal(augmented.dataset.images[n : n + len(images), 0], np.reshape(images, (-1, 16, 16)))
        npt.assert_array_equal(inference.probs, evaluate(vit_run.model, train_d.dataset)["probs"])

    def test_augmentation_needs_a_vit(self, baseline_run):
        with pytest.raises(AuditError, match="tiny_vit"):
            audit_mod.attention_augmentation(baseline_run.model, baseline_run.data, 0.5, 1.0)


class ScriptedTrain:
    """Stands in for ``audit.train``: the i-th call trains nothing and
    returns a trace whose last row holds the i-th scripted recalls. It
    keeps each call's loss function."""

    def __init__(self, *recalls: dict) -> None:
        self.recalls = recalls
        self.losses: list = []

    def __call__(self, model, train_set, config, loss_fn=None, val_set=None, epoch_hook=None):
        recalls = self.recalls[len(self.losses)]
        self.losses.append(loss_fn)
        row = {f"recall_{c}": v for c, v in recalls.items()}
        return None, MetricTrace(class_order=train_set.class_order, rows=[row])


def _gap(recalls: dict) -> float:
    return max(recalls.values()) - min(recalls.values())


class TestRecalibrationLoop:
    WIDE = {"bar": 0.2, "cross": 0.9, "disk": 0.5}
    NARROW = {"bar": 0.91, "cross": 0.93, "disk": 0.92}

    @pytest.fixture
    def scripted(self, monkeypatch):
        def install(*recalls):
            stub = ScriptedTrain(*recalls)
            monkeypatch.setattr(audit_mod, "train", stub)
            return stub

        return install

    @staticmethod
    def _initial_weights(data, options):
        train_rows = audit_mod._split_data(data, options)[0]
        return compute_class_weights(compute_distribution(data.subset(train_rows).manifest))

    def test_small_gap_converges_on_the_first_row(self, scripted):
        data, options = small_data(n=60), small_options(epsilon_gap=0.05)
        stub = scripted(self.NARROW)
        history, rows = recalibration_loop(data, options)
        assert history == [self._initial_weights(data, options)]
        assert rows == [{"iteration": 0, "gap": _gap(self.NARROW), "recalls": self.NARROW}]
        assert len(stub.losses) == 1

    def test_zero_budget_trains_once_and_adjusts_nothing(self, scripted):
        data, options = small_data(n=60), small_options(max_recal_iterations=0)
        stub = scripted(self.WIDE)
        history, rows = recalibration_loop(data, options)
        assert history == [self._initial_weights(data, options)]
        assert rows == [{"iteration": 0, "gap": _gap(self.WIDE), "recalls": self.WIDE}]
        assert len(stub.losses) == 1

    @pytest.mark.parametrize("budget", [1, 3])
    def test_spent_budget_trains_every_adjustment(self, scripted, budget):
        data = small_data(n=60)
        options = small_options(epsilon_gap=0.05, max_recal_iterations=budget)
        stub = scripted(*[self.WIDE] * (budget + 1))
        history, rows = recalibration_loop(data, options)
        assert len(history) == budget + 1 == len(rows)
        assert [r["iteration"] for r in rows] == list(range(budget + 1))
        assert history[0] == self._initial_weights(data, options)
        for before, after, row in zip(history, history[1:], rows):
            assert after == dynamic_weight_adjust(before, row["recalls"], 0.9, options.eta)
        # row i holds the recalls of the training with history[i]'s weights
        rng = np.random.default_rng(0)
        logits, labels = rng.normal(size=(6, 3)), np.eye(3)[[0, 1, 2, 0, 1, 2]]
        order = data.dataset.class_order
        for weights, loss_fn in zip(history, stub.losses, strict=True):
            expected = weighted_ce_from_logits(logits, labels, weights.as_vector(order))
            npt.assert_array_equal(loss_fn(logits, labels)[1], expected[1])
            assert loss_fn(logits, labels)[0] == expected[0]

    def test_stops_when_a_retraining_closes_the_gap(self, scripted):
        stub = scripted(self.WIDE, self.NARROW)
        history, rows = recalibration_loop(small_data(n=60), small_options(max_recal_iterations=5))
        assert len(history) == len(rows) == len(stub.losses) == 2
        assert rows[-1]["gap"] < 0.05

    @pytest.mark.parametrize(
        "target, shrinks", [(None, set()), (0.5, {"cross"}), (0.1, {"bar", "cross", "disk"})]
    )
    def test_target_recall_decides_which_way_weights_move(self, scripted, target, shrinks):
        """The adjustment scales each class's weight up below the target
        and down above it; without a target the best recall is the
        target, so no class loses weight."""
        scripted(self.WIDE, self.WIDE)
        options = small_options(max_recal_iterations=1, target_recall=target)
        before, after = recalibration_loop(small_data(n=60), options)[0]
        assert {c for c in after.raw if after.raw[c] < before.normalized[c]} == shrinks
        grows = {c for c, v in self.WIDE.items() if v < (0.9 if target is None else target)}
        assert {c for c in after.raw if after.raw[c] > before.normalized[c]} == grows

    def test_non_finite_recall_rejected(self, scripted):
        scripted({"bar": float("nan"), "cross": 0.5, "disk": 0.5})
        with pytest.raises(AuditError, match="non-finite validation metric for class 'bar'"):
            recalibration_loop(small_data(n=60), small_options())

    def test_wide_epsilon_converges_on_first_pass(self):
        history, rows = recalibration_loop(small_data(n=60), small_options(epsilon_gap=1.1))
        assert len(history) == len(rows) == 1
        assert rows[0]["iteration"] == 0
        assert set(rows[0]["recalls"]) == {"bar", "cross", "disk"}

    def test_budget_stop_reports_not_converged(self):
        """Every adjustment is trained: the budget of 2 makes 3 rows, and
        the last row's gap stays above the unreachable epsilon of 0."""
        history, rows = recalibration_loop(
            small_data(n=60),
            small_options(epsilon_gap=0.0, max_recal_iterations=2),
        )
        assert len(history) == len(rows) == 3
        assert not rows[-1]["gap"] < 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"model_kind": "tiny_vit", "arch": dict(VIT_ARCH),
             "train": TrainConfig(learning_rate=2e-3, batch_size=16, epochs=2, dropout=0.1)},
        ],
        ids=["tiny_cnn", "tiny_vit-dropout"],
    )
    def test_trains_through_train_alone_with_the_tracked_loops_rows(self, call_counts, overrides):
        """One ``train`` call per row and no behavior probe; the history
        and rows equal those of a loop whose trainings all track behavior."""
        data = small_data(n=90, shares=(0.6, 0.2, 0.2))
        options = small_options(epsilon_gap=0.0, max_recal_iterations=2, **overrides)
        history, rows = recalibration_loop(data, options)
        assert dict(call_counts) == {"train": len(rows)}
        assert _tracked_recalibration_loop(data, options) == (history, rows)
        assert call_counts["observe"] and call_counts["sensitivity_scores"]  # the spies see a tracker


def _tracked_recalibration_loop(data, options):
    """The reference loop: every training has a ``BehaviorTracker`` epoch
    hook with gradient sensitivity on, whose scores nothing reads. It
    trains each weight map it makes, and stops after a training once the
    gap is below epsilon or the budget's adjustments are all made."""
    train_d, val_d = (data.subset(rows) for rows in audit_mod._split_data(data, options)[:2])
    history = [compute_class_weights(compute_distribution(train_d.manifest))]
    class_order = train_d.dataset.class_order
    rows = []
    while True:
        model = audit_mod.build_audit_model(options, len(class_order))
        tracker = behavior_mod.BehaviorTracker(
            val_d.dataset,
            behavior_mod.balanced_probe(val_d.dataset, options.probe_per_class, seed=options.seed),
            with_sensitivity=True,
            sensitivity_samples=options.sensitivity_samples,
        )
        weights = history[-1].as_vector(class_order)
        _snapshot, trace = audit_mod.train(
            model,
            train_d.dataset,
            replace(options.train, seed=options.seed),
            loss_fn=lambda logits, labels: weighted_ce_from_logits(logits, labels, weights),
            val_set=val_d.dataset,
            epoch_hook=tracker.observe,
        )
        recalls = trace.final_recalls()
        rows.append({"iteration": len(rows), "gap": _gap(recalls), "recalls": recalls})
        if rows[-1]["gap"] < options.epsilon_gap or len(rows) > options.max_recal_iterations:
            return history, rows
        target = options.target_recall if options.target_recall is not None else max(recalls.values())
        history.append(dynamic_weight_adjust(history[-1], recalls, target, options.eta))


class TestAuditOptions:
    def test_config_hash_is_stable(self):
        assert small_options().config_hash() == small_options().config_hash()

    def test_config_hash_tracks_fields(self):
        assert small_options().config_hash() != small_options(seed=3).config_hash()
        assert (
            small_options().config_hash()
            != small_options(iou_threshold=0.75).config_hash()
        )

    def test_options_serialize_canonically(self):
        blob = canonical_json(small_options().to_json_dict())
        assert '"seed":0' in blob
        assert json.loads(blob)["split"] == [0.7, 0.15, 0.15]

    @pytest.mark.parametrize(
        "field",
        ["iou_threshold", "tau_att", "kappa", "tau_rel", "eta", "target_recall", "epsilon_gap",
         "fn_delta_threshold", "ap_delta_threshold", "split"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_real_rejected_by_name(self, field, value):
        real = (0.7, value, 0.15) if field == "split" else value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AuditOptions(**{field: real})

    @pytest.mark.parametrize(
        "field, value",
        [("iou_threshold", 0.0), ("iou_threshold", 1.5), ("probe_per_class", 0), ("probe_per_class", -1),
         ("sensitivity_samples", 0), ("sensitivity_samples", -1), ("eta", -0.5), ("max_recal_iterations", -1),
         ("target_recall", -3.0), ("target_recall", 1.01), ("epsilon_gap", -1.0)],
    )
    def test_out_of_range_value_rejected_by_name(self, field, value):
        with pytest.raises(AuditError, match=f"{field} must be"):
            AuditOptions(**{field: value})

    def test_range_edges_accepted(self):
        AuditOptions(iou_threshold=1.0, probe_per_class=1, sensitivity_samples=1, eta=0.0, max_recal_iterations=0)
        for target in (0.0, 1.0):
            AuditOptions(target_recall=target, epsilon_gap=0.0)

    def test_config_hash_is_pinned(self):
        # Run-directory names embed the hash, so the serialized fields,
        # their values and their nesting must not drift.
        assert AuditOptions().config_hash() == "6638922d58e3"
        vit = AuditOptions(
            model_kind="tiny_vit",
            train=TrainConfig(lr_schedule=StepDecayLR(), max_steps=7, seed=3),
            split=(0.6, 0.2, 0.2),
            arch={"patch": 4, "dim": 8},
            target_recall=0.7,
        )
        assert vit.config_hash() == "3cb93dc7003c"


class TestBiasReportText:
    def test_undefined_correlation_line(self):
        report = BiasReport(
            dataset={"counts": {"a": 1}, "percentages": {"a": 100.0}, "total": 1},
            options={},
            seed=0,
            config_hash="abc",
            pre={
                "accuracy": 1.0, "map": 1.0, "nds": 1.0, "macro_iou": 1.0,
                "per_class": {
                    "a": {"ap": 1.0, "recall": 1.0, "mean_iou": 1.0, "fn_rate": 0.0,
                          "selectivity": 0.0}
                },
                "by_condition": {},
            },
            correlation={"coefficient": None, "undefined": True, "classes": ["a"]},
        )
        assert "undefined" in report.text_summary()
