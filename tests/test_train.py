"""Tests for splitting, schedules, the optimizer, training, and snapshots."""

from __future__ import annotations

import csv
import json
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens.nn.models import TinyCNN, build_model
from biaslens.cli import main
from biaslens.nn.optim import Adam, ConstantLR, LinearDecayLR, StepDecayLR
from biaslens.nn.snapshot import (
    MAGIC,
    ModelSnapshot,
    SnapshotError,
    load_snapshot,
    model_from_snapshot,
)
from biaslens.nn.train import (
    ArrayDataset,
    MetricTrace,
    TrainAbort,
    TrainConfig,
    evaluate,
    stratified_split,
    train,
)


SNAPSHOT_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def small_model(seed=0, box_head=False):
    return TinyCNN(
        n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=box_head, seed=seed
    )


def separable_dataset(n_per_class=30, seed=0, with_boxes=False):
    """Two classes with disjoint bright quadrants: trivially learnable."""
    rng = np.random.default_rng(seed)
    images, labels, boxes = [], [], []
    for k in range(2):
        for _ in range(n_per_class):
            img = rng.random((1, 8, 8)) * 0.1
            if k == 0:
                img[0, :4, :4] += 0.9
                boxes.append((0.25, 0.25, 0.5, 0.5))
            else:
                img[0, 4:, 4:] += 0.9
                boxes.append((0.75, 0.75, 0.5, 0.5))
            images.append(img)
            labels.append(k)
    return ArrayDataset(
        images=np.clip(np.array(images), 0.0, 1.0),
        labels=np.array(labels),
        class_order=("a", "b"),
        boxes=np.array(boxes) if with_boxes else None,
        sample_ids=tuple(f"s{i}" for i in range(2 * n_per_class)),
    )


class TestStratifiedSplit:
    def test_per_class_fractions(self):
        labels = np.array([0] * 20 + [1] * 20 + [2] * 20)
        train_idx, val_idx, test_idx = stratified_split(labels)
        for c in range(3):
            assert (labels[train_idx] == c).sum() == 14
            assert (labels[val_idx] == c).sum() == 3
            assert (labels[test_idx] == c).sum() == 3

    def test_deterministic_per_seed(self):
        labels = np.array([0] * 30 + [1] * 10)
        first = stratified_split(labels, seed=5)
        second = stratified_split(labels, seed=5)
        other = stratified_split(labels, seed=6)
        for a, b in zip(first, second):
            npt.assert_array_equal(a, b)
        assert any(not np.array_equal(a, b) for a, b in zip(first, other))

    def test_indices_come_back_sorted(self):
        labels = np.array([0, 1] * 25)
        for part in stratified_split(labels, seed=3):
            npt.assert_array_equal(part, np.sort(part))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError, match="fractions"):
            stratified_split(np.array([0, 1]), fractions=(0.5, 0.4, 0.2))

    @given(
        counts=st.lists(st.integers(3, 40), min_size=1, max_size=4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_splits_partition_the_indices(self, counts, seed):
        labels = np.concatenate([np.full(n, c) for c, n in enumerate(counts)])
        parts = stratified_split(labels, seed=seed)
        joined = np.concatenate(parts)
        assert len(joined) == len(labels)
        npt.assert_array_equal(np.sort(joined), np.arange(len(labels)))


class TestSchedules:
    def test_constant(self):
        sched = ConstantLR()
        assert [sched.lr_at(0.1, e, 30) for e in (0, 15, 29)] == [0.1, 0.1, 0.1]

    def test_step_decay_factor_every_ten(self):
        sched = StepDecayLR()
        npt.assert_allclose(sched.lr_at(1.0, 0, 30), 1.0)
        npt.assert_allclose(sched.lr_at(1.0, 9, 30), 1.0)
        npt.assert_allclose(sched.lr_at(1.0, 10, 30), 0.9)
        npt.assert_allclose(sched.lr_at(1.0, 25, 30), 0.81)

    def test_linear_decay_endpoints(self):
        sched = LinearDecayLR(to=1e-5)
        npt.assert_allclose(sched.lr_at(1e-3, 0, 11), 1e-3)
        npt.assert_allclose(sched.lr_at(1e-3, 10, 11), 1e-5)
        npt.assert_allclose(sched.lr_at(1e-3, 5, 11), (1e-3 + 1e-5) / 2)

    def test_linear_decay_single_epoch(self):
        assert LinearDecayLR().lr_at(0.5, 0, 1) == 0.5

    @pytest.mark.parametrize(
        "kind, schedule", [("constant", ConstantLR()), ("step", StepDecayLR()), ("linear", LinearDecayLR())]
    )
    def test_each_cli_choice_trains_the_default_schedule_of_its_kind(
        self, tmp_path, monkeypatch, capsys, kind, schedule
    ):
        requested = []

        def capture(options, dataset, weights):
            requested.append(options.train.lr_schedule)
            raise RuntimeError("options captured")

        monkeypatch.setattr("biaslens.cli.fit", capture)
        argv = ["train", "--n-samples", "6", "--image-size", "16", "--lr-schedule", kind]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert requested == [schedule]
        assert main(["train", "--help"]) == 0
        assert "{constant,step,linear}" in capsys.readouterr().out


class TestAdam:
    def test_first_step_is_signed_unit_step(self):
        params = {"w": np.array([[1.0]])}
        grads = {"w": np.array([[2.0]])}
        Adam().step(params, grads, lr=0.1)
        # bias correction makes the first update ~ lr * sign(g)
        npt.assert_allclose(params["w"], [[0.9]], atol=1e-8)

    def test_zero_lr_leaves_parameters_alone(self):
        params = {"w": np.array([[1.5, -0.5]]), "b": np.array([0.25])}
        grads = {"w": np.array([[1.0, 1.0]]), "b": np.array([3.0])}
        Adam(weight_decay=0.1).step(params, grads, lr=0.0)
        npt.assert_array_equal(params["w"], [[1.5, -0.5]])
        npt.assert_array_equal(params["b"], [0.25])

    def test_weight_decay_skips_one_dimensional_params(self):
        params = {"w": np.array([[2.0]]), "b": np.array([2.0])}
        grads = {"w": np.array([[0.0]]), "b": np.array([0.0])}
        Adam(weight_decay=0.5).step(params, grads, lr=0.1)
        assert params["w"][0, 0] < 2.0  # decay pulled the matrix entry down
        assert params["b"][0] == 2.0   # bias untouched

    def test_opposite_gradients_move_opposite_ways(self):
        params = {"w": np.array([[0.0, 0.0]])}
        grads = {"w": np.array([[1.0, -1.0]])}
        Adam().step(params, grads, lr=0.01)
        assert params["w"][0, 0] < 0 < params["w"][0, 1]


class TestEvaluate:
    def test_recalls_and_accuracy(self):
        data = separable_dataset(n_per_class=5)
        model = small_model()
        stats = evaluate(model, data)
        assert stats["probs"].shape == (10, 2)
        assert stats["preds"].shape == (10,)
        assert set(stats["recalls"]) == {"a", "b"}
        assert 0.0 <= stats["accuracy"] <= 1.0
        npt.assert_array_equal(stats["preds"], stats["probs"].argmax(axis=1))

    def test_absent_class_recall_is_nan(self):
        data = separable_dataset(n_per_class=4)
        only_a = data.subset(np.flatnonzero(data.labels == 0))
        stats = evaluate(small_model(), only_a)
        assert np.isnan(stats["recalls"]["b"])
        assert stats["recalls"]["a"] in (0.0, 1.0) or 0.0 <= stats["recalls"]["a"] <= 1.0

    def test_batch_size_never_changes_results(self):
        data = separable_dataset(n_per_class=6)
        model = small_model()
        big = evaluate(model, data, batch_size=256)
        tiny = evaluate(model, data, batch_size=2)
        npt.assert_array_equal(big["probs"], tiny["probs"])
        assert big["accuracy"] == tiny["accuracy"]


class TestTraining:
    def test_learns_separable_data(self):
        data = separable_dataset()
        model = small_model()
        config = TrainConfig(learning_rate=3e-3, batch_size=10, epochs=15, weight_decay=0.0)
        _, trace = train(model, data, config)
        stats = evaluate(model, data)
        assert stats["accuracy"] >= 0.95
        assert trace.rows[-1]["loss"] < trace.rows[0]["loss"]

    def test_identical_seeds_give_identical_snapshots(self, tmp_path):
        config = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=3, seed=9)
        paths = []
        for run in range(2):
            data = separable_dataset(seed=1)
            model = small_model(seed=4)
            snapshot, _ = train(model, data, config)
            path = tmp_path / f"run{run}.snapshot"
            snapshot.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_data_order_seed_changes_outcome(self):
        data = separable_dataset(seed=1)
        results = []
        for seed in (0, 1):
            model = small_model(seed=4)
            config = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, seed=seed)
            snapshot, _ = train(model, data, config)
            results.append(snapshot.params["cls.W"])
        assert not np.array_equal(results[0], results[1])

    def test_zero_learning_rate_changes_nothing(self):
        data = separable_dataset(n_per_class=8)
        model = small_model()
        before = {k: v.copy() for k, v in model.named_parameters().items()}
        train(model, data, TrainConfig(learning_rate=0.0, epochs=2, batch_size=8))
        for name, arr in model.named_parameters().items():
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_non_finite_loss_aborts_with_location(self):
        data = separable_dataset(n_per_class=8)
        model = small_model()
        calls = []

        def exploding(logits, labels_oh):
            calls.append(None)
            if len(calls) == 3:
                return float("nan"), np.zeros_like(logits)
            return 0.5, np.zeros_like(logits)

        with pytest.raises(TrainAbort, match="non-finite") as exc:
            train(model, data, TrainConfig(batch_size=8, epochs=2), loss_fn=exploding)
        assert exc.value.epoch == 1
        assert exc.value.batch == 0

    def test_box_head_trains_and_improves(self):
        data = separable_dataset(with_boxes=True)
        model = small_model(box_head=True)
        before = evaluate(model, data)
        err_before = float(np.mean((before["boxes"] - data.boxes) ** 2))
        train(model, data, TrainConfig(learning_rate=3e-3, batch_size=10, epochs=15))
        after = evaluate(model, data)
        err_after = float(np.mean((after["boxes"] - data.boxes) ** 2))
        assert err_after < err_before

    def test_epoch_hook_adds_columns(self):
        data = separable_dataset(n_per_class=6)
        seen = []

        def hook(model, epoch, row):
            seen.append(epoch)
            return {"probe": float(epoch) * 2.0}

        _, trace = train(
            small_model(), data, TrainConfig(batch_size=6, epochs=3), epoch_hook=hook
        )
        assert seen == [0, 1, 2]
        assert [row["probe"] for row in trace.rows] == [0.0, 2.0, 4.0]
        assert "probe" in trace.column_names()

    def test_validation_set_drives_trace_recalls(self):
        data = separable_dataset(n_per_class=10)
        val = data.subset(np.arange(0, 20, 2))
        _, trace = train(
            small_model(), data, TrainConfig(batch_size=8, epochs=2), val_set=val
        )
        recalls = trace.final_recalls()
        assert set(recalls) == {"a", "b"}
        for r in recalls.values():
            assert 0.0 <= r <= 1.0

    def test_max_steps_caps_updates_across_epochs(self):
        data = separable_dataset(n_per_class=10)  # 20 samples -> 3 batches/epoch
        counted = []

        def counting(logits, labels_oh):
            counted.append(None)
            return 0.5, np.zeros_like(logits)

        _, trace = train(
            small_model(), data,
            TrainConfig(batch_size=8, epochs=10, max_steps=7),
            loss_fn=counting,
        )
        assert len(counted) == 7
        # epoch 2 contributes the seventh step and is the last row recorded
        assert [row["epoch"] for row in trace.rows] == [0, 1, 2]

    def test_max_steps_equalizes_work_on_different_sized_sets(self):
        small = separable_dataset(n_per_class=5)
        large = separable_dataset(n_per_class=50)
        config = TrainConfig(batch_size=5, epochs=100, max_steps=20, seed=3)
        results = []
        for data in (small, large):
            steps = []
            train(small_model(), data, config,
                  loss_fn=lambda lg, oh: (steps.append(None) or 0.5, np.zeros_like(lg)))
            results.append(len(steps))
        assert results == [20, 20]


class TestMetricTrace:
    def test_csv_columns_and_nan_blanking(self, tmp_path):
        trace = MetricTrace(class_order=("a", "b"))
        trace.rows.append({"epoch": 0, "loss": 1.5, "lr": 1e-3, "recall_a": 0.5, "recall_b": float("nan")})
        trace.rows.append({"epoch": 1, "loss": 1.0, "lr": 1e-3, "recall_a": 0.75, "recall_b": 1.0, "extra": 7})
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["epoch", "loss", "lr", "recall_a", "recall_b", "extra"]
        assert parsed[1][4] == ""  # nan blanked
        assert parsed[2][5] == "7"

    def test_final_recalls_reads_last_row(self):
        trace = MetricTrace(class_order=("a",))
        trace.rows.append({"epoch": 0, "recall_a": 0.25})
        trace.rows.append({"epoch": 1, "recall_a": 0.75})
        assert trace.final_recalls() == {"a": 0.75}


class TestArrayDataset:
    def test_subset_keeps_alignment(self):
        data = separable_dataset(n_per_class=5, with_boxes=True)
        sub = data.subset(np.array([1, 3, 3]))
        assert len(sub) == 3
        npt.assert_array_equal(sub.labels, data.labels[[1, 3, 3]])
        npt.assert_array_equal(sub.boxes, data.boxes[[1, 3, 3]])
        assert sub.sample_ids == ("s1", "s3", "s3")

    def test_one_hot_shape(self):
        data = separable_dataset(n_per_class=3)
        oh = data.one_hot()
        assert oh.shape == (6, 2)
        npt.assert_array_equal(oh.sum(axis=1), np.ones(6))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="sample count"):
            ArrayDataset(images=np.zeros((3, 1, 4, 4)), labels=np.zeros(2), class_order=("a",))

    def test_bad_box_shape_rejected(self):
        with pytest.raises(ValueError, match="boxes"):
            ArrayDataset(
                images=np.zeros((2, 1, 4, 4)),
                labels=np.zeros(2),
                class_order=("a",),
                boxes=np.zeros((2, 3)),
            )


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        model = small_model(seed=3)
        snapshot = ModelSnapshot.from_model(model, {"note": 1})
        path = tmp_path / "m.snapshot"
        snapshot.save(path)
        loaded = load_snapshot(path)
        assert loaded.arch == snapshot.arch
        assert loaded.seed == 3
        assert loaded.config == {"note": 1}
        for name, arr in snapshot.params.items():
            npt.assert_array_equal(loaded.params[name], arr, err_msg=name)

    def test_model_from_snapshot_reproduces_forward(self, tmp_path, rng):
        model = small_model(seed=3)
        x = rng.random((2, 1, 8, 8))
        expected = model.forward(x).logits
        path = tmp_path / "m.snapshot"
        ModelSnapshot.from_model(model).save(path)
        rebuilt = model_from_snapshot(load_snapshot(path))
        npt.assert_array_equal(rebuilt.forward(x).logits, expected)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snapshot"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 32)
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    def test_truncated_blob_rejected(self, tmp_path):
        path = tmp_path / "m.snapshot"
        ModelSnapshot.from_model(small_model()).save(path)
        clipped = path.read_bytes()[:-16]
        path.write_bytes(clipped)
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.snapshot"
        ModelSnapshot.from_model(small_model()).save(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SnapshotError, match="trailing"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"", "truncated header"),
            (b"\x02\x00\x00", "truncated header"),
            (struct.pack("<Q", 2) + b"[]", "malformed header"),
            (struct.pack("<Q", 4) + b"\xff\xfe{}", "malformed header"),
            (struct.pack("<Q", 2**63) + b"{}", "truncated header"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, tail, message):
        path = tmp_path / "m.snapshot"
        path.write_bytes(MAGIC + tail)
        with pytest.raises(SnapshotError, match=message):
            load_snapshot(path)

    @settings(max_examples=200, deadline=None)
    @given(
        st.binary(max_size=64)
        | st.builds(
            lambda header, blob: struct.pack("<Q", len(header)) + header + blob,
            st.builds(
                lambda obj: json.dumps(obj).encode("utf-8"),
                st.fixed_dictionaries(
                    {},
                    optional={
                        "arch": st.just({}) | SNAPSHOT_JSON,
                        "seed": st.integers() | SNAPSHOT_JSON,
                        "config": st.just({}) | SNAPSHOT_JSON,
                        "params": st.lists(
                            st.fixed_dictionaries(
                                {},
                                optional={
                                    "name": st.text(max_size=3) | SNAPSHOT_JSON,
                                    "shape": st.lists(st.integers(-2, 3), max_size=3)
                                    | st.lists(st.integers(), max_size=3)
                                    | SNAPSHOT_JSON,
                                },
                            )
                            | SNAPSHOT_JSON,
                            max_size=3,
                        )
                        | SNAPSHOT_JSON,
                    },
                )
                | SNAPSHOT_JSON,
            ),
            st.binary(max_size=80),
        )
    )
    def test_any_bytes_after_magic_load_or_raise_snapshot_error(self, tmp_path_factory, tail):
        path = tmp_path_factory.getbasetemp() / "fuzz.snapshot"
        path.write_bytes(MAGIC + tail)
        try:
            assert isinstance(load_snapshot(path), ModelSnapshot)
        except SnapshotError as exc:
            assert str(path) in str(exc)

    def test_parameters_of_an_incompatible_model_rejected(self):
        snapshot = ModelSnapshot.from_model(small_model())
        other = TinyCNN(n_classes=2, input_hw=(8, 8), channels=(4, 5), kernel=3, box_head=False)
        with pytest.raises(Exception, match="mismatch|shape"):
            other.load_parameters(snapshot.params)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(dropout=1.0)
        with pytest.raises(ValueError, match="max_steps"):
            TrainConfig(max_steps=0)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "dropout", "box_loss_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_real_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})
