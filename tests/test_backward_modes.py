"""One-sided backward passes and released forward caches.

A backward with ``params=False`` must return the input gradient of the
full backward, bit for bit, and leave every gradient array as it was; one
with ``inputs=False`` must accumulate the same parameter gradients and
return None. ``release()`` must leave no array that a forward made."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens import behavior
from biaslens.audit import AuditOptions, run_audit
from biaslens.nn import attention, layers, models
from biaslens.nn.attention import MultiHeadSelfAttention
from biaslens.nn.layers import GELU, Conv2D, Dense, Dropout, Layer, LayerNorm, MaxPool2D, ReLU
from biaslens.nn.models import SpatialBoxHead, TinyCNN, TinyViT, _PositionEmbedding, build_model
from biaslens.nn.train import ArrayDataset, TrainConfig, forward_pass, train
from biaslens.synthetic import SyntheticConfig, generate_synthetic

SENTINEL = -7.25


def layer_cases(rng: np.random.Generator, n: int) -> dict[type, tuple[Layer, np.ndarray]]:
    """One instance and one forward input per layer class."""
    return {
        Dense: (Dense(5, 3, rng), rng.standard_normal((n, 2, 5))),
        Conv2D: (Conv2D(2, 3, 3, rng, padding=1), rng.standard_normal((n, 2, 6, 5))),
        ReLU: (ReLU(), rng.standard_normal((n, 3, 4))),
        GELU: (GELU(), rng.standard_normal((n, 3, 4))),
        Dropout: (Dropout(0.5, rng), rng.standard_normal((n, 3, 4))),
        LayerNorm: (LayerNorm(4), rng.standard_normal((n, 3, 4))),
        MaxPool2D: (MaxPool2D(), rng.standard_normal((n, 2, 4, 6))),
        MultiHeadSelfAttention: (MultiHeadSelfAttention(4, 2, rng), rng.standard_normal((n, 3, 4))),
        _PositionEmbedding: (_PositionEmbedding(3, 4, rng), rng.standard_normal((n, 3, 4))),
        SpatialBoxHead: (SpatialBoxHead(4, (2, 2), rng), rng.standard_normal((n, 4, 4))),
    }


def randomize(layer: Layer, rng: np.random.Generator) -> None:
    """Nonzero values in every parameter, biases and LayerNorm's included."""
    for arr in layer.params.values():
        arr[...] = rng.standard_normal(arr.shape)


def fill_grads(owner, value: float) -> dict[str, np.ndarray]:
    """Set every gradient array of a layer or model to ``value``; return
    the arrays themselves."""
    grads = owner.grads if isinstance(owner, Layer) else owner.named_grads()
    for g in grads.values():
        g[...] = value
    return grads


def assert_grads_untouched(grads: dict[str, np.ndarray], before: dict[str, np.ndarray]) -> None:
    for name, g in grads.items():
        assert g is before[name], name
        assert g.tobytes() == np.full(g.shape, SENTINEL).tobytes(), name


class TestOneSidedLayerBackward:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_each_mode_matches_the_full_backward(self, seed, n):
        rng = np.random.default_rng(seed)
        for cls, (layer, x) in layer_cases(rng, n).items():
            name = cls.__name__
            randomize(layer, rng)
            dy = rng.standard_normal(layer.forward(x, train=True).shape)
            fill_grads(layer, 0.0)
            dx = layer.backward(dy)
            full = {k: g.copy() for k, g in layer.grads.items()}

            before = dict(fill_grads(layer, SENTINEL))
            assert layer.backward(dy, params=False).tobytes() == dx.tobytes(), name
            assert_grads_untouched(layer.grads, before)

            if "inputs" in inspect.signature(layer.backward).parameters:
                fill_grads(layer, 0.0)
                assert layer.backward(dy, inputs=False) is None, name
                for k, g in layer.grads.items():
                    assert g.tobytes() == full[k].tobytes(), (name, k)


def tiny_cnn(**overrides):
    kwargs = dict(n_classes=3, input_hw=(8, 8), channels=(2, 3), box_head=True, seed=3)
    kwargs.update(overrides)
    return TinyCNN(**kwargs)


def tiny_vit(**overrides):
    kwargs = dict(
        n_classes=3, input_hw=(8, 8), patch=4, dim=8, n_heads=2, n_layers=2, box_head=True, seed=3
    )
    kwargs.update(overrides)
    return TinyViT(**kwargs)


class TestOneSidedModelBackward:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3), vit=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_training_backward_without_input_gradient(self, seed, n, vit):
        rng = np.random.default_rng(seed)
        model = (tiny_vit if vit else tiny_cnn)(seed=seed % 1000)
        res = model.forward(rng.random((n, 1, 8, 8)), train=True)
        grad_logits = rng.standard_normal(res.logits.shape)
        grad_box = rng.standard_normal(res.box.shape)
        model.zero_grads()
        assert model.backward(grad_logits, grad_box).shape == (n, 1, 8, 8)
        full = {k: g.copy() for k, g in model.named_grads().items()}
        model.zero_grads()
        assert model.backward(grad_logits, grad_box, input_grad=False) is None
        for k, g in model.named_grads().items():
            assert g.tobytes() == full[k].tobytes(), k

    @pytest.mark.parametrize("build", [tiny_cnn, tiny_vit])
    def test_backward_from_tap_leaves_every_gradient_untouched(self, rng, build):
        model = build()
        res = model.forward(rng.random((2, 1, 8, 8)))
        before = dict(fill_grads(model, SENTINEL))
        for tap, act in res.trunk:
            assert model.backward_from_tap(tap, np.ones_like(act)).shape == (2, 1, 8, 8)
        assert_grads_untouched(model.named_grads(), before)

    @pytest.mark.parametrize("build", [tiny_cnn, tiny_vit])
    def test_unit_input_grads_leave_every_gradient_untouched(self, rng, build):
        model = build()
        res = model.forward(rng.random((2, 1, 8, 8)))
        before = dict(fill_grads(model, SENTINEL))
        for tap, act in res.trunk:
            units = range(act.shape[2] if act.ndim == 3 else act.shape[1])
            for g in model.unit_input_grads(tap, units):
                assert g.shape == (2, 1, 8, 8)
        assert_grads_untouched(model.named_grads(), before)


class TestCnnUnitInputGrads:
    """TinyCNN's one-channel kernel yields, per unit, the bits that
    ``backward_from_tap`` gives for the seed that is ``1 / (h * w)`` on
    that unit's channel and 0 elsewhere."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        kernel=st.sampled_from([1, 3, 5]),
        in_channels=st.integers(1, 2),
        grid=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        channels=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        n=st.integers(1, 16),
        dead=st.sampled_from([None, "conv1", "conv2"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_backward_from_tap_of_the_one_channel_seed(
        self, seed, kernel, in_channels, grid, channels, n, dead
    ):
        rng = np.random.default_rng(seed)
        h, w = 4 * grid[0], 4 * grid[1]
        model = TinyCNN(
            n_classes=2, input_hw=(h, w), in_channels=in_channels, channels=channels,
            kernel=kernel, box_head=False, seed=seed % 1000,
        )
        if dead is not None:  # zero weights and a negative bias close channel 0
            model.named_parameters()[f"{dead}.W"][0] = 0.0
            model.named_parameters()[f"{dead}.b"][0] = -1.0
        res = model.forward(rng.standard_normal((n, in_channels, h, w)))
        for tap, act in res.trunk:
            units = range(act.shape[1])
            for u, g in zip(units, model.unit_input_grads(tap, units), strict=True):
                seed_grad = np.zeros_like(act)
                seed_grad[:, u] = 1.0 / (act.shape[2] * act.shape[3])
                ref = model.backward_from_tap(tap, seed_grad)
                assert g.shape == ref.shape == (n, in_channels, h, w)
                assert g.tobytes() == ref.tobytes(), (tap, u)


class TestTrainSkipsTheImageGradient:
    @pytest.mark.parametrize("build, first", [(tiny_cnn, "_conv1"), (tiny_vit, "_embed")])
    def test_first_layer_never_returns_an_input_gradient(self, rng, monkeypatch, build, first):
        model = build()
        layer = getattr(model, first)
        results = []
        backward = layer.backward

        def spy(*args, **kwargs):
            out = backward(*args, **kwargs)
            results.append(out)
            return out

        monkeypatch.setattr(layer, "backward", spy)
        data = ArrayDataset(
            images=rng.random((6, 1, 8, 8)),
            labels=np.arange(6) % 3,
            class_order=("a", "b", "c"),
            boxes=np.full((6, 4), 0.5),
        )
        train(model, data, TrainConfig(batch_size=4, epochs=2))
        assert len(results) == 4
        assert all(out is None for out in results)


def reachable_arrays(obj) -> dict[str, np.ndarray]:
    """path -> array, for every ndarray reachable from ``obj`` through the
    attributes of biaslens objects, lists, tuples and dicts. An object
    reachable by several paths is listed under the first."""
    found: dict[str, np.ndarray] = {}
    seen: set[int] = set()

    def walk(value, path):
        if isinstance(value, np.ndarray):
            found[path] = value
        elif id(value) in seen:
            return
        elif isinstance(value, (list, tuple)):
            seen.add(id(value))
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        elif isinstance(value, dict):
            seen.add(id(value))
            for key, item in value.items():
                walk(item, f"{path}[{key!r}]")
        elif type(value).__module__.startswith("biaslens"):
            seen.add(id(value))
            for key, item in vars(value).items():
                walk(item, f"{path}.{key}")

    walk(obj, type(obj).__name__)
    return found


def assert_no_new_arrays(obj, before: dict[str, np.ndarray]) -> None:
    """Every array ``obj`` reaches is the one it reached ``before``."""
    new = [path for path, arr in reachable_arrays(obj).items() if before.get(path) is not arr]
    assert new == []


def layer_classes() -> set[type]:
    return {
        cls
        for module in (layers, attention, models)
        for cls in vars(module).values()
        if inspect.isclass(cls) and issubclass(cls, Layer) and cls is not Layer
        and cls.__module__ == module.__name__
    }


class TestReleaseLeavesNoForwardArray:
    """A new layer or model whose caches outlive release() fails here."""

    def test_every_layer_class_is_covered(self, rng):
        assert set(layer_cases(rng, 1)) == layer_classes()

    @pytest.mark.parametrize("train_mode", [True, False])
    def test_every_layer(self, rng, train_mode):
        for layer, x in layer_cases(rng, 2).values():
            before = reachable_arrays(layer)
            layer.backward(np.ones_like(layer.forward(x, train=train_mode)))
            layer.release()
            assert_no_new_arrays(layer, before)

    @pytest.mark.parametrize("build", [tiny_cnn, tiny_vit])
    @pytest.mark.parametrize("train_mode", [True, False])
    def test_every_model(self, rng, build, train_mode):
        model = build(**({"dropout": 0.5} if build is tiny_vit else {}))
        before = reachable_arrays(model)
        res = model.forward(rng.random((2, 1, 8, 8)), train=train_mode)
        model.backward(np.ones_like(res.logits), np.ones_like(res.box))
        model.release()
        assert_no_new_arrays(model, before)


def assert_released_and_reusable(model, x: np.ndarray) -> None:
    """``model`` holds no array that a fresh model lacks, and a forward
    plus backward on it gives the bits of the same on a fresh model with
    its parameters."""
    fresh = build_model(model.arch, seed=model.seed)
    fresh.load_parameters(model.named_parameters())
    assert set(reachable_arrays(model)) <= set(reachable_arrays(fresh))
    outs = []
    for m in (model, fresh):
        res = m.forward(x)
        m.zero_grads()
        dx = m.backward(np.ones_like(res.logits), np.ones_like(res.box))
        outs.append([res.logits, res.box, dx, *m.named_grads().values()])
    for a, b in zip(*outs):
        assert a.tobytes() == b.tobytes()


class TestPassesReleaseTheModel:
    @pytest.mark.parametrize("build", [tiny_cnn, tiny_vit])
    def test_forward_pass(self, rng, build):
        model = build()
        forward_pass(model, rng.random((5, 1, 8, 8)), batch_size=4, attention=True)
        assert_released_and_reusable(model, rng.random((3, 1, 8, 8)))

    @pytest.mark.parametrize("build", [tiny_cnn, tiny_vit])
    def test_sensitivity_scores(self, rng, build):
        model = build()
        behavior.sensitivity_scores(model, rng.random((3, 1, 8, 8)), model.trunk_taps[-1])
        assert_released_and_reusable(model, rng.random((3, 1, 8, 8)))

    def test_run_audit(self, rng):
        data = generate_synthetic(
            SyntheticConfig(n_samples=90, shares=(1 / 3, 1 / 3, 1 / 3), image_hw=(16, 16), seed=0)
        )
        options = AuditOptions(
            train=TrainConfig(batch_size=16, epochs=2), probe_per_class=4, sensitivity_samples=2,
            arch={"input_hw": (16, 16), "channels": (2, 3)}, track_sensitivity=True,
        )
        run = run_audit(data, options)
        assert_released_and_reusable(run.model, rng.random((2, 1, 16, 16)))
