"""Tests for sensitivity/selectivity, per-epoch tracking, attention analysis,
relevance propagation, and heatmap export."""

from __future__ import annotations

import csv
import logging

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslens.behavior import (
    AttentionSummary,
    BehaviorError,
    BehaviorRecord,
    BehaviorScores,
    BehaviorTracker,
    RelevanceMap,
    UnsupportedArchitectureError,
    balanced_probe,
    export_heatmap,
    extract_attention,
    lrp_propagate,
    lrp_step,
    mass_by_cell,
    patch_centers_in_box,
    relevance_mass_in_box,
    selectivity_score,
    sensitivity_score,
    sensitivity_scores,
    unit_activation_matrix,
    unit_class_activations,
)
from biaslens.manifest import Condition
from biaslens.nn.models import ForwardResult, TinyCNN, TinyViT
from biaslens.nn.snapshot import ModelSnapshot
from biaslens.nn.train import ArrayDataset, TrainConfig, evaluate, forward_pass, train

from conftest import ForwardRecorder, make_record


class LinearProbeModel:
    """Minimal trunk stub: one tap whose activations are x @ W. A unit
    that reads 0 can still have a gradient, so its tap is not rectified."""

    rectified_taps = False

    def __init__(self, w: np.ndarray) -> None:
        self.w = np.asarray(w, dtype=np.float64)

    def forward(self, x, train=False):
        act = np.asarray(x, dtype=np.float64) @ self.w
        self._n = len(act)
        return ForwardResult(
            logits=act, probs=act, box=None, trunk=[("lin", act)], attention=None
        )

    def release(self):
        pass

    def backward_from_tap(self, tap, seed):
        return seed @ self.w.T

    def unit_input_grads(self, tap, units):
        for unit in units:
            seed = np.zeros((self._n, self.w.shape[1]))
            seed[:, unit] = 1.0
            yield self.backward_from_tap(tap, seed)


def tiny_vit(**overrides):
    kwargs = dict(
        n_classes=2, input_hw=(32, 32), patch=8, dim=8, n_heads=2, n_layers=2,
        box_head=False, seed=5,
    )
    kwargs.update(overrides)
    return TinyViT(**kwargs)


def uniform_attention_vit(**overrides):
    """ViT whose query/key projections are zeroed: attention exactly 1/P."""
    model = tiny_vit(**overrides)
    for name, arr in model.named_parameters().items():
        if name.endswith(".Wq") or name.endswith(".Wk"):
            arr[...] = 0.0
    return model


def vit_dataset(n=4, seed=0, hw=(32, 32)):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    return ArrayDataset(
        images=rng.random((n, 1, *hw)),
        labels=labels,
        class_order=("disk", "bar"),
        sample_ids=tuple(f"s{i}" for i in range(n)),
    )


def row_stochastic(rng, p):
    raw = rng.random((p, p)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestSelectivity:
    def test_hand_case(self):
        scores = selectivity_score({"a": 0.9, "b": 0.0, "c": 0.0})
        npt.assert_allclose(scores["a"], 2.0 / 3.0, atol=1e-4)
        npt.assert_allclose(scores["a"], 0.6667, atol=1e-4)

    def test_class_at_average_scores_zero(self):
        scores = selectivity_score({"a": 0.5, "b": 0.5})
        assert scores == {"a": 0.0, "b": 0.0}

    def test_all_zero_activations_score_zero(self):
        scores = selectivity_score({"a": 0.0, "b": 0.0, "c": 0.0})
        assert set(scores.values()) == {0.0}

    def test_below_average_class_is_negative(self):
        scores = selectivity_score({"a": 1.0, "b": 0.0})
        assert scores["b"] == -1.0
        assert scores["a"] > 0

    def test_needs_two_classes(self):
        with pytest.raises(BehaviorError, match="two classes"):
            selectivity_score({"a": 1.0})

    @given(
        values=st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_in_unit_interval(self, values):
        acts = {f"c{i}": v for i, v in enumerate(values)}
        for s in selectivity_score(acts).values():
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


class TestSensitivity:
    def test_linear_map_hand_case(self):
        # activation a = 2 x1 - x2: mean |da/dx| = (2 + 1) / 2 = 1.5
        model = LinearProbeModel(np.array([[2.0], [-1.0]]))
        score = sensitivity_score(model, np.zeros((3, 2)), "lin", unit=0)
        npt.assert_allclose(score, 1.5)

    def test_disconnected_unit_is_dead_and_logged(self, caplog):
        model = LinearProbeModel(np.array([[2.0, 0.0], [-1.0, 0.0]]))
        with caplog.at_level(logging.WARNING, logger="biaslens.behavior"):
            score = sensitivity_score(model, np.zeros((2, 2)), "lin", unit=1)
        assert score == 0.0
        assert any("dead" in rec.message for rec in caplog.records)

    def test_dead_units_share_one_log_record(self, caplog):
        model = LinearProbeModel(np.array([[2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        with caplog.at_level(logging.WARNING, logger="biaslens.behavior"):
            scores = sensitivity_scores(model, np.zeros((2, 2)), "lin")
        assert scores.tolist() == [1.5, 0.0, 0.0]
        assert [rec.getMessage() for rec in caplog.records] == [
            "units [1, 2] at tap 'lin' are dead (zero gradient path)"
        ]

    def test_matches_finite_differences_on_conv_net(self):
        rng = np.random.default_rng(2)
        model = TinyCNN(
            n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False, seed=1
        )
        x = rng.random((1, 1, 8, 8))
        unit = 1
        score = sensitivity_score(model, x, "conv2", unit)

        def unit_mean(images):
            act = dict(model.forward(images).trunk)["conv2"]
            return float(act[:, unit].mean(axis=(1, 2)).sum())

        eps = 1e-6
        grads = np.zeros(64)
        flat = x.reshape(-1)
        for i in range(64):
            orig = flat[i]
            flat[i] = orig + eps
            up = unit_mean(x)
            flat[i] = orig - eps
            down = unit_mean(x)
            flat[i] = orig
            grads[i] = (up - down) / (2 * eps)
        npt.assert_allclose(score, np.abs(grads).mean(), atol=1e-6)

    def test_empty_sample_set_rejected(self):
        model = LinearProbeModel(np.eye(2))
        with pytest.raises(BehaviorError, match="non-empty"):
            sensitivity_score(model, np.zeros((0, 2)), "lin", unit=0)


def reference_sensitivity(model, images, tap, unit):
    """One unit's score with a forward of its own, as computed before
    every unit of a tap read one forward."""
    res = model.forward(images, train=False)
    act = dict(res.trunk)[tap]
    seed = np.zeros_like(act)
    if act.ndim == 4:
        seed[:, unit] = 1.0 / (act.shape[2] * act.shape[3])
    elif act.ndim == 3:
        seed[:, :, unit] = 1.0 / act.shape[1]
    else:
        seed[:, unit] = 1.0
    grad = model.backward_from_tap(tap, seed)
    per_sample = np.abs(grad.reshape(grad.shape[0], -1)).mean(axis=1)
    return float(per_sample.mean())


class TestSensitivityScores:
    """sensitivity_scores equals the one-forward-per-unit reference bit
    for bit, for every unit of every tap."""

    @staticmethod
    def _assert_matches_reference(model, images, units_by_tap):
        for tap, n_units in units_by_tap.items():
            scores = sensitivity_scores(model, images, tap)
            expected = [reference_sensitivity(model, images, tap, u) for u in range(n_units)]
            assert scores.shape == (n_units,)
            assert scores.tolist() == expected
            assert sensitivity_score(model, images, tap, n_units - 1) == expected[-1]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_tiny_cnn(self, seed, n):
        rng = np.random.default_rng(seed)
        model = TinyCNN(
            n_classes=2, input_hw=(8, 8), channels=(3, 4), box_head=False, seed=seed % 1000
        )
        self._assert_matches_reference(
            model, rng.random((n, 1, 8, 8)), {"conv1": 3, "conv2": 4}
        )

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_tiny_vit(self, seed, n):
        rng = np.random.default_rng(seed)
        model = tiny_vit(input_hw=(16, 16), patch=4, seed=seed % 1000)
        self._assert_matches_reference(
            model, rng.random((n, 1, 16, 16)), {"block0": 8, "block1": 8}
        )

    @given(
        w=st.lists(st.floats(-4, 4, allow_nan=False), min_size=6, max_size=6),
        n=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_linear_probe(self, w, n):
        model = LinearProbeModel(np.array(w).reshape(2, 3))
        self._assert_matches_reference(model, np.zeros((n, 2)), {"lin": 3})

    @staticmethod
    def _with_dead_channel(seed, tap, unit):
        """A TinyCNN whose ``unit`` at ``tap`` reads 0 on every input: its
        conv weights are 0 and its bias is negative, so ReLU closes it."""
        model = TinyCNN(
            n_classes=2, input_hw=(8, 8), channels=(3, 4), box_head=False, seed=seed % 1000
        )
        params = model.named_parameters()
        params[f"{tap}.W"][unit] = 0.0
        params[f"{tap}.b"][unit] = -1.0
        return model

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        tap_unit=st.sampled_from([("conv1", u) for u in range(3)] + [("conv2", u) for u in range(4)]),
    )
    @settings(max_examples=20, deadline=None)
    def test_dead_unit_skips_its_backward(self, seed, n, tap_unit):
        tap, dead = tap_unit
        model = self._with_dead_channel(seed, tap, dead)
        images = np.random.default_rng(seed).random((n, 1, 8, 8))
        act = dict(model.forward(images).trunk)[tap]
        live = [u for u in range(act.shape[1]) if act[:, u].any()]
        assert dead not in live
        probed = []
        unit_input_grads = model.unit_input_grads

        def spy(tap, units):
            probed.extend(units)
            return unit_input_grads(tap, units)

        model.unit_input_grads = spy
        scores = sensitivity_scores(model, images, tap)
        assert probed == live
        del model.unit_input_grads
        expected = [reference_sensitivity(model, images, tap, u) for u in range(act.shape[1])]
        assert scores.tolist() == expected
        assert scores[dead] == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("tap", ["conv1", "conv2"])
    def test_non_finite_weight_of_another_unit_leaves_a_score(self, tap):
        """TinyCNN's kernel reads only unit u's weights of the conv under
        the tap. ``backward_from_tap`` also multiplies the other channels'
        zero seed by their weights, so an inf in channel 0 turns 0 * inf
        into NaN there; the kernel keeps the finite model's score."""
        images = np.random.default_rng(0).random((3, 1, 8, 8))
        model = TinyCNN(
            n_classes=2, input_hw=(8, 8), channels=(3, 4), box_head=False, seed=4
        )
        finite = sensitivity_scores(model, images, tap)
        model.named_parameters()[f"{tap}.W"][0, 0, 1, 1] = np.inf
        scores = sensitivity_scores(model, images, tap)
        assert scores[1:].tolist() == finite[1:].tolist()
        assert not np.isfinite(scores[0])
        assert np.isnan(reference_sensitivity(model, images, tap, 1))

    def test_skipped_dead_unit_is_in_the_warning(self, caplog):
        model = self._with_dead_channel(0, "conv2", 2)
        images = np.random.default_rng(0).random((2, 1, 8, 8))
        with caplog.at_level(logging.WARNING, logger="biaslens.behavior"):
            scores = sensitivity_scores(model, images, "conv2")
        dead = np.flatnonzero(scores == 0.0).tolist()
        assert 2 in dead
        assert [rec.getMessage() for rec in caplog.records] == [
            f"units {dead} at tap 'conv2' are dead (zero gradient path)"
        ]


class TestUnitActivations:
    def test_batch_size_never_changes_results(self, rng):
        model = tiny_vit()
        images = rng.random((5, 1, 32, 32))
        full = unit_activation_matrix(model, images, batch_size=256)
        split = unit_activation_matrix(model, images, batch_size=2)
        assert list(full) == list(split) == ["block0", "block1"]
        for tap in full:
            npt.assert_array_equal(full[tap], split[tap])
        assert full["block0"].shape == (5, 8)

    def test_class_means_require_every_class(self):
        data = vit_dataset(n=4)
        means = forward_pass(tiny_vit(), data.images).unit_means
        with pytest.raises(BehaviorError, match="bar"):
            unit_class_activations(means, data, np.flatnonzero(data.labels == 0))

    def test_class_means_shape(self):
        data = vit_dataset(n=6)
        means = forward_pass(tiny_vit(), data.images).unit_means
        out = unit_class_activations(means, data, np.arange(6))["block1"]
        assert set(out) == set(range(8))
        assert set(out[0]) == {"disk", "bar"}


CHUNKED_MODELS = {
    "tiny_cnn": lambda: TinyCNN(n_classes=3, channels=(4, 8), seed=1),
    "tiny_vit": lambda: TinyViT(n_classes=3, patch=4, dim=16, n_heads=2, n_layers=2, seed=1),
}


@pytest.fixture(scope="module", params=sorted(CHUNKED_MODELS))
def one_pass(request):
    """A model, 300 images, and one inference pass over all of them that
    keeps the attention maps."""
    model = CHUNKED_MODELS[request.param]()
    images = np.random.default_rng(7).random((300, 1, 32, 32))
    return model, images, forward_pass(model, images, attention=True)


@pytest.fixture(scope="module")
def vit_pass():
    """The ``one_pass`` ViT, its 300 images, and their attention summary."""
    model = CHUNKED_MODELS["tiny_vit"]()
    images = np.random.default_rng(7).random((300, 1, 32, 32))
    data = ArrayDataset(images=images, labels=np.arange(300) % 3, class_order=("a", "b", "c"))
    return model, images, extract_attention(model, data)


class TestSinglePass:
    """Every reader of a dataset reads one batched pass; the batch size
    changes no bit of the probabilities, boxes, unit means, patch mass or
    attention."""

    @settings(max_examples=8, deadline=None)
    @example(n=5, cuts=[], batch_size=2)
    @given(
        n=st.integers(1, 300),
        cuts=st.lists(st.integers(1, 299), max_size=6),
        batch_size=st.integers(1, 40),
    )
    def test_any_chunking_is_bit_identical_to_one_pass(self, one_pass, n, cuts, batch_size):
        model, images, whole = one_pass
        bounds = sorted({0, n, *(c for c in cuts if c < n)})
        pieces = [
            forward_pass(model, images[a:b], batch_size, attention=True)
            for a, b in zip(bounds, bounds[1:])
        ]
        npt.assert_array_equal(np.concatenate([p.probs for p in pieces]), whole.probs[:n])
        npt.assert_array_equal(np.concatenate([p.boxes for p in pieces]), whole.boxes[:n])
        for tap, means in whole.unit_means.items():
            npt.assert_array_equal(
                np.concatenate([p.unit_means[tap] for p in pieces]), means[:n]
            )
        is_vit = model.kind == "tiny_vit"
        assert (whole.attention is not None, whole.patch_mass is not None) == (is_vit, is_vit)
        if is_vit:
            npt.assert_array_equal(
                np.concatenate([p.patch_mass for p in pieces]), whole.patch_mass[:n]
            )
            assert len(whole.attention) == 2
            for layer, attention in enumerate(whole.attention):
                npt.assert_array_equal(
                    np.concatenate([p.attention[layer] for p in pieces]), attention[:n]
                )

    def test_pass_is_bit_identical_at_batch_2_and_256(self):
        model = tiny_vit(box_head=True)
        data = vit_dataset(n=5)
        small = forward_pass(model, data.images, batch_size=2, attention=True)
        large = forward_pass(model, data.images, batch_size=256, attention=True)
        npt.assert_array_equal(small.probs, large.probs)
        summary = extract_attention(model, data)
        assert len(small.attention) == 2
        for a, b, c in zip(small.attention, large.attention, summary.per_layer, strict=True):
            npt.assert_array_equal(a, b)
            npt.assert_array_equal(a, c)
        npt.assert_array_equal(small.patch_mass, large.patch_mass)
        npt.assert_array_equal(small.patch_mass, summary.patch_mass)
        npt.assert_array_equal(small.boxes, large.boxes)

    @settings(max_examples=8, deadline=None)
    @example(n=5, cuts=[], batch_size=2)
    @given(
        n=st.integers(1, 300),
        cuts=st.lists(st.integers(1, 299), max_size=6),
        batch_size=st.integers(1, 40),
    )
    def test_vit_pass_keeps_patch_mass_without_maps(self, vit_pass, n, cuts, batch_size):
        """Without ``attention`` a ViT pass keeps no per-layer map, and its
        patch mass is the final map's head mean then query mean, bit for
        bit, however the samples are cut into passes and chunks."""
        model, images, summary = vit_pass
        bounds = sorted({0, n, *(c for c in cuts if c < n)})
        pieces = [
            forward_pass(model, images[a:b], batch_size) for a, b in zip(bounds, bounds[1:])
        ]
        assert all(p.attention is None for p in pieces)
        expected = summary.per_layer[-1][:n].mean(axis=1).mean(axis=1)
        npt.assert_array_equal(np.concatenate([p.patch_mass for p in pieces]), expected)
        npt.assert_array_equal(summary.patch_mass[:n], expected)

    def test_evaluate_is_bit_identical_at_batch_2_and_256(self):
        model = tiny_vit(box_head=True)
        data = vit_dataset(n=5)
        small, large = evaluate(model, data, batch_size=2), evaluate(model, data)
        npt.assert_array_equal(small["probs"], large["probs"])
        npt.assert_array_equal(small["boxes"], large["boxes"])
        assert small["recalls"] == large["recalls"]

    @settings(max_examples=12, deadline=None)
    @example(n=1, picks=[0], drawn=[0] * 70)
    @given(
        n=st.integers(1, 70),
        picks=st.lists(st.integers(0, 69), min_size=1),
        drawn=st.lists(st.integers(0, 2), min_size=70, max_size=70),
    )
    def test_probe_class_means_from_the_split_pass_equal_a_probe_pass(self, one_pass, n, picks, drawn):
        """The class means of sorted probe rows read from a pass over the
        whole split are the bits of forwarding only the probe rows."""
        model, images, _ = one_pass
        rows = np.array(sorted({p % n for p in picks}))
        k = min(3, len(rows))
        labels = np.asarray(drawn[:n]) % k
        labels[rows[:k]] = np.arange(k)  # every class holds a probe row
        split = ArrayDataset(images=images[:n], labels=labels, class_order=("a", "b", "c")[:k])
        read = unit_class_activations(forward_pass(model, split.images).unit_means, split, rows)
        probe = unit_activation_matrix(model, split.images[rows])
        assert list(read) == list(probe) == model.trunk_taps
        for tap, acts in probe.items():
            for unit, by_class in read[tap].items():
                assert by_class == {
                    c: float(acts[labels[rows] == j, unit].mean())
                    for j, c in enumerate(split.class_order)
                }

    def test_train_with_a_tracker_forwards_each_validation_row_once_per_epoch(self):
        def model():
            return TinyCNN(n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False)

        train_set = vit_dataset(n=12, seed=1, hw=(8, 8))
        val = vit_dataset(n=38, hw=(8, 8))  # 32 + 6 rows: the last chunk is padded
        rows = balanced_probe(val, per_class=5)
        recorded = model()
        recorder = ForwardRecorder(recorded)
        tracker, plain = BehaviorTracker(val, rows), BehaviorTracker(val, rows)
        config = TrainConfig(batch_size=4, epochs=3)
        train(recorded, train_set, config, val_set=val, epoch_hook=tracker.observe)
        train(model(), train_set, config, val_set=val, epoch_hook=plain.observe)
        recorder.assert_each_row_once(*[val.images] * 3)  # and no probe pass
        assert sorted({r.epoch for r in tracker.scores.records}) == [0, 1, 2]
        assert {r.layer for r in tracker.scores.records} == {"conv1", "conv2"}
        # no padding row was read
        assert [r.selectivity for r in tracker.scores.records] == [
            r.selectivity for r in plain.scores.records
        ]


class TestRelevancePropagation:
    def test_step_hand_case_exact(self):
        attention = np.array([[0.6, 0.4], [0.1, 0.9]])
        out = lrp_step(attention, np.array([0.8, 0.2]))
        npt.assert_allclose(out, [0.50, 0.50], atol=1e-12)

    def test_step_identity_attention(self):
        r = np.array([0.3, 0.5, 0.2])
        npt.assert_array_equal(lrp_step(np.eye(3), r), r)

    def test_step_shape_mismatch_rejected(self):
        with pytest.raises(BehaviorError, match="disagree"):
            lrp_step(np.ones((2, 3)), np.ones(2))

    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_step_conserves_total(self, seed, p):
        rng = np.random.default_rng(seed)
        r = rng.random(p)
        out = lrp_step(row_stochastic(rng, p), r)
        npt.assert_allclose(out.sum(), r.sum(), atol=1e-9)

    def test_propagate_initializes_uniform(self, rng):
        layers = [row_stochastic(rng, 4)[None, None].repeat(2, axis=1)]
        rmap = lrp_propagate(layers, class_index=0)
        npt.assert_allclose(rmap.per_layer[0], np.full(4, 0.25), atol=1e-15)

    @given(seed=st.integers(0, 2**31 - 1), n_layers=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_propagate_conserves_at_every_step(self, seed, n_layers):
        rng = np.random.default_rng(seed)
        layers = [row_stochastic(rng, 9)[None] for _ in range(n_layers)]
        rmap = lrp_propagate(layers, class_index=1)
        assert len(rmap.per_layer) == n_layers + 1
        for step in rmap.per_layer:
            npt.assert_allclose(step.sum(), 1.0, atol=1e-9)

    def test_heads_averaged_uniformly(self, rng):
        a1 = row_stochastic(rng, 4)
        a2 = row_stochastic(rng, 4)
        two_heads = lrp_propagate([np.stack([a1, a2])], class_index=0)
        merged = lrp_propagate([((a1 + a2) / 2.0)[None]], class_index=0)
        npt.assert_allclose(two_heads.final, merged.final, atol=1e-15)

    def test_four_dim_input_selects_sample(self, rng):
        batch = np.stack([row_stochastic(rng, 4)[None] for _ in range(3)])  # (N, 1, P, P)
        direct = lrp_propagate([batch[2]], class_index=0)
        via_index = lrp_propagate([batch], class_index=0, sample=2)
        npt.assert_array_equal(via_index.final, direct.final)

    def test_grid_defaults_to_square(self, rng):
        rmap = lrp_propagate([row_stochastic(rng, 16)[None]], class_index=0)
        assert rmap.grid == (4, 4)
        assert rmap.as_grid().shape == (4, 4)

    def test_missing_attention_rejected(self):
        with pytest.raises(BehaviorError, match="forward pass"):
            lrp_propagate(None, class_index=0)
        with pytest.raises(BehaviorError, match="forward pass"):
            lrp_propagate([], class_index=0)

    def test_vit_forward_feeds_propagation(self, rng):
        model = tiny_vit()
        res = model.forward(rng.random((2, 1, 32, 32)))
        rmap = lrp_propagate(res.attention, class_index=1, sample=1, grid=model.grid)
        npt.assert_allclose(rmap.final.sum(), 1.0, atol=1e-9)
        assert rmap.as_grid().shape == model.grid

    def test_mass_in_box_uniform_map(self):
        rmap = RelevanceMap(
            class_index=0, per_layer=(np.full(16, 1 / 16.0),), grid=(4, 4)
        )
        npt.assert_allclose(relevance_mass_in_box(rmap, patch=8, bbox=(0, 0, 32, 32)), 1.0)
        npt.assert_allclose(relevance_mass_in_box(rmap, patch=8, bbox=(0, 0, 5, 21)), 3 / 16.0)

    def test_mass_in_box_zero_total(self):
        rmap = RelevanceMap(class_index=0, per_layer=(np.zeros(4),), grid=(2, 2))
        assert relevance_mass_in_box(rmap, patch=8, bbox=(0, 0, 16, 16)) == 0.0


class TestPatchCenters:
    def test_three_of_sixteen(self):
        mask = patch_centers_in_box((4, 4), 8, (0, 0, 5, 21))
        assert mask.sum() == 3
        assert mask.reshape(4, 4)[:3, 0].all()

    def test_whole_frame_covers_everything(self):
        assert patch_centers_in_box((4, 4), 8, (0, 0, 32, 32)).all()

    def test_box_between_centers_is_empty(self):
        assert not patch_centers_in_box((4, 4), 8, (5, 5, 7, 7)).any()


class TestAttentionExtraction:
    def test_cnn_is_rejected(self):
        model = TinyCNN(n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3)
        data = vit_dataset(n=2, hw=(8, 8))
        with pytest.raises(UnsupportedArchitectureError, match="tiny_vit"):
            extract_attention(model, data)

    def test_parameters_are_untouched(self):
        model = tiny_vit()
        before = {k: v.copy() for k, v in model.named_parameters().items()}
        extract_attention(model, vit_dataset(n=3))
        for name, arr in model.named_parameters().items():
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_single_sample_class_mean_is_that_sample(self, rng):
        model = tiny_vit()
        data = vit_dataset(n=2)
        summary = extract_attention(model, data)
        res = model.forward(data.images)
        expected = res.attention[-1][0].mean(axis=0)
        npt.assert_allclose(summary.mean_by_class["disk"], expected, atol=1e-15)

    def test_duplicated_sample_leaves_class_mean_unchanged(self, rng):
        model = tiny_vit()
        data = vit_dataset(n=2)
        base = extract_attention(model, data)
        tripled = data.subset(np.array([0, 0, 0, 1]))
        dup = extract_attention(model, tripled)
        npt.assert_allclose(
            dup.mean_by_class["disk"], base.mean_by_class["disk"], atol=1e-12
        )

    def test_uniform_attention_has_uniform_patch_mass(self):
        model = uniform_attention_vit()
        summary = extract_attention(model, vit_dataset(n=3))
        npt.assert_allclose(summary.patch_mass, np.full((3, 16), 1 / 16.0), atol=1e-15)

    @staticmethod
    def _one_mass(summary, row, record):
        """``mass_by_cell`` of one summary row and its record."""
        cells = mass_by_cell(summary, summary.patch_mass[row : row + 1], [record])
        return cells[(record.class_label, record.condition)]

    def test_mass_on_gt_under_uniform_attention(self):
        model = uniform_attention_vit()
        summary = extract_attention(model, vit_dataset(n=2))
        record = make_record(bbox=(0, 0, 5, 21), image_size=(32, 32))
        npt.assert_allclose(self._one_mass(summary, 0, record), 3 / 16.0, atol=1e-12)
        whole = make_record(bbox=(0, 0, 32, 32), image_size=(32, 32))
        npt.assert_allclose(self._one_mass(summary, 0, whole), 1.0, atol=1e-12)
        half = make_record(bbox=(0, 0, 32, 13), image_size=(32, 32))
        npt.assert_allclose(self._one_mass(summary, 1, half), 0.5, atol=1e-12)

    def test_frame_mismatch_rejected(self):
        summary = extract_attention(tiny_vit(), vit_dataset(n=2))
        record = make_record(bbox=(0, 0, 10, 10), image_size=(16, 16))
        with pytest.raises(BehaviorError, match="frame"):
            self._one_mass(summary, 0, record)

    def test_condition_means_only_with_conditions(self):
        data = vit_dataset(n=4)
        bare = extract_attention(tiny_vit(), data)
        assert bare.mean_by_condition == {}
        tagged = extract_attention(
            tiny_vit(), data, conditions=("Normal", "Night", "Normal", "Night")
        )
        assert set(tagged.mean_by_condition) == {"Normal", "Night"}

    def test_snapshot_input_equals_model_input(self):
        model = tiny_vit()
        data = vit_dataset(n=2)
        direct = extract_attention(model, data)
        via_snap = extract_attention(ModelSnapshot.from_model(model), data)
        npt.assert_allclose(via_snap.patch_mass, direct.patch_mass, atol=1e-15)

    def test_mass_by_cell_averages_within_cells(self):
        model = uniform_attention_vit()
        summary = extract_attention(model, vit_dataset(n=3))
        records = [
            make_record(sample_id="s0", class_label="disk", bbox=(0, 0, 5, 21),
                        condition=Condition.NORMAL, image_size=(32, 32)),
            make_record(sample_id="s1", class_label="disk", bbox=(0, 0, 32, 13),
                        condition=Condition.NORMAL, image_size=(32, 32)),
            make_record(sample_id="s2", class_label="bar", bbox=(0, 0, 32, 32),
                        condition=Condition.NIGHT, image_size=(32, 32)),
        ]
        cells = mass_by_cell(summary, summary.patch_mass, records)
        npt.assert_allclose(cells[("disk", Condition.NORMAL)], (3 / 16 + 0.5) / 2, atol=1e-12)
        npt.assert_allclose(cells[("bar", Condition.NIGHT)], 1.0, atol=1e-12)

    def test_mass_by_cell_needs_one_record_per_sample(self):
        summary = extract_attention(uniform_attention_vit(), vit_dataset(n=3))
        with pytest.raises(BehaviorError, match="2 records for 3"):
            mass_by_cell(summary, summary.patch_mass, [make_record(sample_id=f"s{i}") for i in range(2)])


class TestBehaviorTracking:
    @staticmethod
    def _dataset(n_per_class=8, seed=0):
        rng = np.random.default_rng(seed)
        images, labels = [], []
        for k in range(2):
            for _ in range(n_per_class):
                img = rng.random((1, 8, 8)) * 0.1
                if k == 0:
                    img[0, :4, :4] += 0.9
                else:
                    img[0, 4:, 4:] += 0.9
                images.append(img)
                labels.append(k)
        return ArrayDataset(
            images=np.clip(np.array(images), 0, 1),
            labels=np.array(labels),
            class_order=("a", "b"),
        )

    def test_tracker_collects_per_epoch_records(self):
        data = self._dataset()
        tracker = BehaviorTracker(data, np.arange(len(data)))
        model = TinyCNN(n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False)
        train(
            model, data, TrainConfig(batch_size=8, epochs=3), epoch_hook=tracker.observe
        )
        assert sorted({r.epoch for r in tracker.scores.records}) == [0, 1, 2]
        per_epoch = [r for r in tracker.scores.records if r.epoch == 0]
        # (2 conv1 + 3 conv2 units) x 2 classes
        assert len(per_epoch) == 10
        assert sum(r.layer == "conv2" for r in per_epoch) == 6

    def test_tracker_feeds_trace_columns(self):
        data = self._dataset()
        tracker = BehaviorTracker(data, np.arange(len(data)))
        model = TinyCNN(n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False)
        _, trace = train(
            model, data, TrainConfig(batch_size=8, epochs=2), epoch_hook=tracker.observe
        )
        assert "selectivity_a" in trace.rows[0]
        assert "selectivity_b" in trace.column_names()

    def test_probe_missing_class_rejected(self):
        data = self._dataset()
        with pytest.raises(BehaviorError, match="'b'"):
            BehaviorTracker(data, np.flatnonzero(data.labels == 0))

    def test_observe_rejects_a_pass_over_another_set(self):
        """Without a ``val_set``, ``train`` evaluates the training set, which
        is not the set the tracker's probe rows index."""
        data = self._dataset()
        val = data.subset(np.arange(0, len(data), 2))
        tracker = BehaviorTracker(val, np.arange(len(val)))
        model = TinyCNN(n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False)
        with pytest.raises(BehaviorError, match="dataset's 8 rows"):
            train(model, data, TrainConfig(batch_size=8, epochs=1), epoch_hook=tracker.observe)

    def test_sensitivity_forwards_once_per_tap_and_class(self):
        def model():
            return TinyCNN(n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False)

        data = self._dataset(n_per_class=5)
        rows = balanced_probe(data, per_class=4)
        tracker = BehaviorTracker(data, rows, with_sensitivity=True, sensitivity_samples=3)
        plain = BehaviorTracker(data, rows, with_sensitivity=True, sensitivity_samples=3)
        recorded, other = model(), model()
        recorder = ForwardRecorder(recorded)
        tracker.observe(recorded, 0, evaluate(recorded, data))
        plain.observe(other, 0, evaluate(other, data))
        # the evaluation pass, then the first 3 probe rows per (tap, class)
        per_class = [data.images[rows[data.labels[rows] == k]][:3] for k in range(2)]
        recorder.assert_each_row_once(data.images, *per_class * 2)
        assert tracker.scores.records == plain.scores.records  # no padding row was read
        order = [(r.layer, r.neuron, r.class_label) for r in tracker.scores.records]
        assert order == [
            (tap, unit, c)
            for tap, units in (("conv1", 2), ("conv2", 3))
            for unit in range(units)
            for c in ("a", "b")
        ]

    def test_with_sensitivity_fills_the_column(self):
        data = self._dataset(n_per_class=4)
        tracker = BehaviorTracker(data, np.arange(len(data)), with_sensitivity=True,
                                  sensitivity_samples=2)
        model = TinyCNN(n_classes=2, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False)
        tracker.observe(model, 0, evaluate(model, data))
        assert all(np.isfinite(r.sensitivity) for r in tracker.scores.records)

    def test_scores_csv_layout(self, tmp_path):
        scores = BehaviorScores()
        scores.records.append(BehaviorRecord(0, "conv1", 2, "a", 0.5, -0.25))
        path = tmp_path / "behavior.csv"
        scores.write_csv(path)
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["epoch", "layer", "neuron", "class", "sensitivity", "selectivity"]
        assert parsed[1] == ["0", "conv1", "2", "a", "0.5", "-0.25"]


class TestBalancedProbe:
    def test_takes_per_class_counts(self):
        data = vit_dataset(n=10)
        rows = balanced_probe(data, per_class=3, seed=0)
        assert (data.labels[rows] == 0).sum() == 3
        assert (data.labels[rows] == 1).sum() == 3
        assert (np.diff(rows) > 0).all()

    def test_caps_at_available(self):
        data = vit_dataset(n=4)
        probe = balanced_probe(data, per_class=50)
        assert len(probe) == 4

    def test_deterministic(self):
        data = vit_dataset(n=10)
        first = balanced_probe(data, per_class=2, seed=7)
        second = balanced_probe(data, per_class=2, seed=7)
        npt.assert_array_equal(first, second)

    def test_missing_class_rejected(self):
        data = vit_dataset(n=6)
        only_disk = data.subset(np.flatnonzero(data.labels == 0))
        with pytest.raises(BehaviorError, match="bar"):
            balanced_probe(only_disk, per_class=2)


class TestHeatmapExport:
    def test_constant_map_exports_mid_gray(self, tmp_path):
        pgm_path, csv_path = export_heatmap(np.full((3, 4), 7.5), tmp_path / "m")
        assert pgm_path.exists() and csv_path.exists()
        with csv_path.open() as fh:
            values = [[int(v) for v in row] for row in csv.reader(fh)]
        assert values == [[128] * 4] * 3

    def test_full_range_normalization(self, tmp_path):
        heat = np.array([[0.0, 0.5], [1.0, 0.25]])
        _, csv_path = export_heatmap(heat, tmp_path / "m")
        with csv_path.open() as fh:
            values = [[int(v) for v in row] for row in csv.reader(fh)]
        assert values[0][0] == 0
        assert values[1][0] == 255
        assert values[0][1] == 128  # rint(0.5 * 255) = 128

    def test_suffixed_path_is_normalized(self, tmp_path):
        pgm_path, csv_path = export_heatmap(np.zeros((2, 2)), tmp_path / "map.pgm")
        assert pgm_path == tmp_path / "map.pgm"
        assert csv_path == tmp_path / "map.csv"

    def test_pgm_header(self, tmp_path):
        pgm_path, _ = export_heatmap(np.array([[0.0, 1.0]]), tmp_path / "m")
        content = pgm_path.read_bytes()
        assert content.startswith(b"P2") or content.startswith(b"P5")

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(BehaviorError, match="non-finite"):
            export_heatmap(np.array([[0.0, float("inf")]]), tmp_path / "m")

    def test_one_dimensional_rejected(self, tmp_path):
        with pytest.raises(BehaviorError, match="2-D"):
            export_heatmap(np.zeros(4), tmp_path / "m")
