"""Gradient and invariant checks for the numpy models and attention."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens.losses import softmax, weighted_cross_entropy
from biaslens.nn.attention import MultiHeadSelfAttention, attention_weights
from biaslens.nn.layers import GELU, Conv2D, Dense, LayerNorm, MaxPool2D, ReLU, ShapeError
from biaslens.nn.models import TinyCNN, TinyViT, build_model

FD_EPS = 1e-5


def one_hot(indices, k):
    out = np.zeros((len(indices), k))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def ce_loss(model, x, labels, weights=None):
    res = model.forward(x)
    return weighted_cross_entropy(res.probs, labels, weights)


def numeric_param_grads(model, loss_of_model):
    """Central-difference gradient of a scalar loss over every parameter."""
    numeric = {}
    for name, arr in model.named_parameters().items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            up = loss_of_model()
            flat[i] = orig - FD_EPS
            down = loss_of_model()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * FD_EPS)
        numeric[name] = g
    return numeric


def numeric_input_grad(x, loss_of_input):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_EPS
        up = loss_of_input(x)
        flat[i] = orig - FD_EPS
        down = loss_of_input(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * FD_EPS)
    return g


def assert_grads_close(analytic, numeric, rtol=1e-5, atol=1e-6):
    assert set(analytic) == set(numeric)
    for name in sorted(analytic):
        npt.assert_allclose(analytic[name], numeric[name], rtol=rtol, atol=atol, err_msg=name)


def tiny_cnn(**overrides):
    kwargs = dict(
        n_classes=3, input_hw=(8, 8), channels=(2, 3), kernel=3, box_head=False, seed=7
    )
    kwargs.update(overrides)
    return TinyCNN(**kwargs)


def tiny_vit(**overrides):
    kwargs = dict(
        n_classes=3, input_hw=(8, 8), patch=4, dim=8, n_heads=2, n_layers=1,
        mlp_ratio=2.0, dropout=0.0, box_head=False, seed=7,
    )
    kwargs.update(overrides)
    return TinyViT(**kwargs)


class TestAttentionWeights:
    def test_hand_case(self):
        # scores [[0, ln 3], [0, 0]] with d_k = 1
        q = np.array([[1.0], [0.0]])
        k = np.array([[0.0], [np.log(3.0)]])
        a = attention_weights(q, k, d_k=1)
        npt.assert_allclose(a[0], [0.25, 0.75], atol=1e-12)
        npt.assert_allclose(a[1], [0.5, 0.5], atol=1e-12)

    def test_zero_queries_and_keys_give_uniform_rows(self):
        a = attention_weights(np.zeros((5, 4)), np.zeros((5, 4)), d_k=4)
        npt.assert_allclose(a, np.full((5, 5), 0.2), atol=1e-15)

    @given(seed=st.integers(0, 2**31 - 1), p=st.integers(1, 8), d=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, seed, p, d):
        rng = np.random.default_rng(seed)
        a = attention_weights(rng.normal(size=(p, d)), rng.normal(size=(p, d)), d_k=d)
        npt.assert_allclose(a.sum(axis=-1), np.ones(p), atol=1e-12)
        assert np.all(a >= 0)

    def test_permuting_keys_permutes_columns(self, rng):
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(5, 3))
        perm = np.array([2, 0, 4, 1, 3])
        npt.assert_allclose(
            attention_weights(q, k[perm], d_k=3), attention_weights(q, k, d_k=3)[:, perm]
        )

    def test_bad_dk_rejected(self):
        with pytest.raises(ShapeError, match="d_k"):
            attention_weights(np.zeros((2, 2)), np.zeros((2, 2)), d_k=0)

    def test_mismatched_feature_dims_rejected(self):
        with pytest.raises(ShapeError, match="differ"):
            attention_weights(np.zeros((2, 3)), np.zeros((2, 4)), d_k=3)


class TestMultiHeadAttention:
    def test_cached_weights_are_row_stochastic(self, rng):
        layer = MultiHeadSelfAttention(dim=8, n_heads=2, rng=np.random.default_rng(0))
        layer.forward(rng.normal(size=(3, 5, 8)))
        a = layer.last_attention
        assert a.shape == (3, 2, 5, 5)
        npt.assert_allclose(a.sum(axis=-1), np.ones((3, 2, 5)), atol=1e-12)

    def test_zeroed_projections_give_uniform_attention(self, rng):
        layer = MultiHeadSelfAttention(dim=8, n_heads=2, rng=np.random.default_rng(0))
        layer.params["Wq"][...] = 0.0
        layer.params["Wk"][...] = 0.0
        layer.forward(rng.normal(size=(1, 4, 8)))
        npt.assert_allclose(layer.last_attention, np.full((1, 2, 4, 4), 0.25), atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        layer = MultiHeadSelfAttention(dim=6, n_heads=2, rng=np.random.default_rng(1))
        x = rng.normal(size=(2, 4, 6))
        probe = rng.normal(size=(2, 4, 6))

        def loss():
            return float((layer.forward(x) * probe).sum())

        loss()
        layer.zero_grads()
        dx = layer.backward(probe)
        numeric = {}
        for name, arr in layer.params.items():
            g = np.zeros_like(arr)
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_EPS
                up = loss()
                flat[i] = orig - FD_EPS
                down = loss()
                flat[i] = orig
                gflat[i] = (up - down) / (2 * FD_EPS)
            numeric[name] = g
        assert_grads_close(layer.grads, numeric)

        def input_loss(x_now):
            return float((layer.forward(x_now) * probe).sum())

        npt.assert_allclose(dx, numeric_input_grad(x, input_loss), rtol=1e-5, atol=1e-6)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            MultiHeadSelfAttention(dim=6, n_heads=4, rng=np.random.default_rng(0))


class TestLayerNorm:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        ln = LayerNorm(5)
        ln.params["gamma"][...] = rng.normal(size=5)
        ln.params["beta"][...] = rng.normal(size=5)
        x = rng.normal(size=(2, 3, 5)) * 2.0 + 0.5
        probe = rng.normal(size=(2, 3, 5))

        def loss():
            return float((ln.forward(x) * probe).sum())

        loss()
        ln.zero_grads()
        dx = ln.backward(probe)
        numeric = {}
        for name, arr in ln.params.items():
            g = np.zeros_like(arr)
            for i in range(arr.size):
                orig = arr[i]
                arr[i] = orig + FD_EPS
                up = loss()
                arr[i] = orig - FD_EPS
                down = loss()
                arr[i] = orig
                g[i] = (up - down) / (2 * FD_EPS)
            numeric[name] = g
        assert_grads_close(ln.grads, numeric)

        def input_loss(x_now):
            return float((ln.forward(x_now) * probe).sum())

        npt.assert_allclose(dx, numeric_input_grad(x, input_loss), rtol=1e-5, atol=1e-6)


def maxpool_reference(x, size, dy):
    """Pooling by argmax over gathered windows; the first maximum wins."""
    n, c, h, w = x.shape
    oh, ow = h // size, w // size
    windows = x.reshape(n, c, oh, size, ow, size).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(n, c, oh, ow, size * size)
    argmax = windows.argmax(axis=-1)[..., None]
    out = np.take_along_axis(windows, argmax, axis=-1)[..., 0]
    dwin = np.zeros(windows.shape)
    np.put_along_axis(dwin, argmax, dy[..., None], axis=-1)
    dx = dwin.reshape(n, c, oh, ow, size, size).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
    return out, dx


def conv_reference(x, weight, bias, stride, padding, dy):
    """Direct nested-loop convolution: output, input, weight and bias grads."""
    n, c, h, w = x.shape
    o, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    dxp, dw, db = np.zeros(xp.shape), np.zeros(weight.shape), np.zeros(o)
    for s in range(n):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    rows = slice(i * stride, i * stride + k)
                    cols = slice(j * stride, j * stride + k)
                    out[s, f, i, j] = np.sum(xp[s, :, rows, cols] * weight[f]) + bias[f]
                    dxp[s, :, rows, cols] += dy[s, f, i, j] * weight[f]
                    dw[f] += dy[s, f, i, j] * xp[s, :, rows, cols]
                    db[f] += dy[s, f, i, j]
    return out, dxp[:, :, padding : padding + h, padding : padding + w], dw, db


class TestMaxPool2DReference:
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(2, 3),
        grid=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        levels=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_argmax_reference(self, seed, size, grid, levels):
        # Rounding to a few levels makes ties common; levels=0 makes every
        # window all-equal zeros of either sign.
        rng = np.random.default_rng(seed)
        n, c, oh, ow = grid
        x = np.round(rng.standard_normal((n, c, oh * size, ow * size)) * levels)
        dy = rng.standard_normal((n, c, oh, ow))
        pool = MaxPool2D(size)
        out = pool.forward(x)
        dx = pool.backward(dy)
        ref_out, ref_dx = maxpool_reference(x, size, dy)
        assert out.shape == ref_out.shape and dx.shape == ref_dx.shape
        assert out.tobytes() == ref_out.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()


def gelu_reference(x, dy):
    """GELU forward and input gradient, each computing erf itself."""
    from scipy.special import erf

    out = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return out, dy * (cdf + x * pdf)


# Floats with every special value ReLU must get right: signed zeros,
# subnormals, infinities and NaN.
SPECIAL_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
)


class TestReLUReference:
    """``ReLU.forward`` is ``max(x, 0)``: the same bits as the masked
    select ``where(x > 0, x, 0)`` for every number, and NaN stays NaN
    instead of being zeroed."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(SPECIAL_FLOATS, min_size=1, max_size=40))
    def test_forward_matches_masked_select_and_keeps_nan(self, values):
        x = np.array(values, dtype=np.float64)
        y = ReLU().forward(x.copy())
        nan = np.isnan(x)
        npt.assert_array_equal(np.isnan(y), nan)
        reference = np.where(x > 0, x, 0.0)
        npt.assert_array_equal(y[~nan].view(np.int64), reference[~nan].view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(SPECIAL_FLOATS, min_size=1, max_size=40))
    def test_backward_passes_gradient_where_input_was_positive(self, values):
        x = np.array(values, dtype=np.float64)
        layer = ReLU()
        layer.forward(x)
        dy = np.arange(1.0, len(x) + 1.0)
        npt.assert_array_equal(layer.backward(dy), np.where(x > 0, dy, 0.0))


class TestGELUReference:
    @given(
        seed=st.integers(0, 2**31 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 9)),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_uncached_formula(self, seed, shape, scale):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * scale
        dy = rng.standard_normal(shape)
        gelu = GELU()
        out = gelu.forward(x)
        dx = gelu.backward(dy)
        ref_out, ref_dx = gelu_reference(x, dy)
        assert out.tobytes() == ref_out.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()

    def test_special_values_match_uncached_formula(self):
        x = np.array([0.0, -0.0, 5e-324, -1e-310, 40.0, -40.0, np.inf, -np.inf, np.nan])
        dy = np.linspace(-1.0, 1.0, x.size)
        gelu = GELU()
        with np.errstate(invalid="ignore"):
            out, dx = gelu.forward(x), gelu.backward(dy)
            ref_out, ref_dx = gelu_reference(x, dy)
        assert out.tobytes() == ref_out.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()


def softmax_reference(logits):
    """Row softmax with a fresh array per step."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def layernorm_reference(x, gamma, beta, eps, dy):
    """LayerNorm through ``x.var``: output, input, gamma and beta grads."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_sigma
    out = xhat * gamma + beta
    axes = tuple(range(dy.ndim - 1))
    dxhat = dy * gamma
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_sigma * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return out, dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def attention_reference(params, n_heads, x, dy):
    """Multi-head self-attention, every intermediate a fresh array:
    output, weights, input grad and parameter grads."""
    n, p, d = x.shape
    d_k = d // n_heads

    def split(t):
        return t.reshape(n, p, n_heads, d_k).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(n, p, d)

    q = split(x @ params["Wq"] + params["bq"])
    k = split(x @ params["Wk"] + params["bk"])
    v = split(x @ params["Wv"] + params["bv"])
    a = softmax_reference(q @ k.transpose(0, 1, 3, 2) / math.sqrt(d_k))
    merged = merge(a @ v)
    out = merged @ params["Wo"] + params["bo"]

    dy2 = dy.reshape(-1, d)
    grads = {"Wo": merged.reshape(-1, d).T @ dy2, "bo": dy2.sum(axis=0)}
    dctx = split(dy @ params["Wo"].T)
    da = dctx @ v.transpose(0, 1, 3, 2)
    dv = a.transpose(0, 1, 3, 2) @ dctx
    ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
    ds /= math.sqrt(d_k)
    dq = ds @ k
    dk = ds.transpose(0, 1, 3, 2) @ q
    dx = np.zeros_like(x)
    x2 = x.reshape(-1, d)
    for name_w, name_b, grad in (("Wq", "bq", dq), ("Wk", "bk", dk), ("Wv", "bv", dv)):
        g2 = merge(grad).reshape(-1, d)
        grads[name_w] = x2.T @ g2
        grads[name_b] = g2.sum(axis=0)
        dx += merge(grad) @ params[name_w].T
    return out, a, dx, grads


def _maybe_strided(rng, shape, strided):
    """A standard-normal array of ``shape``, as a transposed, non-contiguous
    view when ``strided``."""
    if not strided:
        return rng.standard_normal(shape)
    return rng.standard_normal(shape[::-1]).transpose(*range(len(shape) - 1, -1, -1))


class TestKernelReferences:
    """The in-place kernels against the formulas they replaced, bit for bit."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 9)),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_softmax(self, seed, shape, scale):
        logits = np.random.default_rng(seed).standard_normal(shape) * scale
        assert softmax(logits).tobytes() == softmax_reference(logits).tobytes()

    def test_softmax_special_values(self):
        logits = np.array([[0.0, -0.0, 5e-324], [1e308, -1e308, 0.0], [-np.inf, 0.0, 1.0]])
        with np.errstate(over="ignore"):
            assert softmax(logits).tobytes() == softmax_reference(logits).tobytes()

    @given(
        seed=st.integers(0, 2**31 - 1),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 17)),
        scale=st.floats(1e-3, 1e3),
        offset=st.floats(-1e3, 1e3),
        strided=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_layernorm(self, seed, shape, scale, offset, strided):
        rng = np.random.default_rng(seed)
        x = _maybe_strided(rng, shape, strided) * scale + offset
        dy = _maybe_strided(rng, shape, strided)
        ln = LayerNorm(shape[-1])
        ln.params["gamma"][...] = rng.standard_normal(shape[-1])
        ln.params["beta"][...] = rng.standard_normal(shape[-1])
        out = ln.forward(x)
        dx = ln.backward(dy)
        ref = layernorm_reference(x, ln.params["gamma"], ln.params["beta"], ln.eps, dy)
        assert out.tobytes() == ref[0].tobytes()
        assert dx.tobytes() == ref[1].tobytes()
        assert ln.grads["gamma"].tobytes() == ref[2].tobytes()
        assert ln.grads["beta"].tobytes() == ref[3].tobytes()

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 3),
        p=st.integers(1, 9),
        heads=st.integers(1, 3),
        d_k=st.integers(1, 4),
        scale=st.floats(1e-2, 1e2),
    )
    @settings(max_examples=60, deadline=None)
    def test_attention(self, seed, n, p, heads, d_k, scale):
        rng = np.random.default_rng(seed)
        dim = heads * d_k
        layer = MultiHeadSelfAttention(dim, heads, rng)
        for name in ("bq", "bk", "bv", "bo"):
            layer.params[name][...] = rng.standard_normal(dim)
        x = rng.standard_normal((n, p, dim)) * scale
        dy = rng.standard_normal((n, p, dim))
        out = layer.forward(x)
        dx = layer.backward(dy)
        ref_out, ref_a, ref_dx, ref_grads = attention_reference(layer.params, heads, x, dy)
        assert out.tobytes() == ref_out.tobytes()
        assert layer.last_attention.tobytes() == ref_a.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()
        for name, grad in ref_grads.items():
            assert layer.grads[name].tobytes() == grad.tobytes(), name

    @given(
        seed=st.integers(0, 2**31 - 1),
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        dims=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    )
    @settings(max_examples=60, deadline=None)
    def test_dense_forward(self, seed, lead, dims):
        rng = np.random.default_rng(seed)
        dense = Dense(dims[0], dims[1], rng)
        dense.params["b"][...] = rng.standard_normal(dims[1])
        x = rng.standard_normal((*lead, dims[0]))
        ref = x @ dense.params["W"] + dense.params["b"]
        assert dense.forward(x).tobytes() == ref.tobytes()


class TestKernelAliasing:
    """No kernel writes an array it was given or one it handed out before."""

    @given(seed=st.integers(0, 2**31 - 1), shape=st.tuples(st.integers(1, 4), st.integers(1, 6)))
    @settings(max_examples=50, deadline=None)
    def test_softmax_leaves_logits_unchanged(self, seed, shape):
        logits = np.random.default_rng(seed).standard_normal(shape)
        before = logits.copy()
        out = softmax(logits)
        assert logits.tobytes() == before.tobytes()
        assert not np.shares_memory(out, logits)

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 3),
        p=st.integers(1, 6),
        dim=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_forward_and_backward_write_only_their_results(self, seed, n, p, dim):
        rng = np.random.default_rng(seed)
        layers = [Dense(dim, dim + 1, rng), LayerNorm(dim), GELU(), MultiHeadSelfAttention(dim, 1, rng)]
        if dim % 2 == 0:
            layers.append(MultiHeadSelfAttention(dim, 2, rng))
        for layer in layers:
            name = type(layer).__name__
            x = rng.standard_normal((n, p, dim))
            x_before = x.copy()
            out = layer.forward(x)
            assert x.tobytes() == x_before.tobytes(), name
            out_before = out.copy()
            attention = getattr(layer, "last_attention", None)
            attention_before = None if attention is None else attention.copy()
            dy = rng.standard_normal(out.shape)
            dy_before = dy.copy()
            # Sensitivity probes run several backward passes per forward.
            dx_first = layer.backward(dy)
            dx_second = layer.backward(dy)
            assert dx_first.tobytes() == dx_second.tobytes(), name
            for arr in (x, out, dy, attention):
                if arr is not None:
                    assert not np.shares_memory(dx_first, arr), name
            assert x.tobytes() == x_before.tobytes(), name
            assert out.tobytes() == out_before.tobytes(), name
            assert dy.tobytes() == dy_before.tobytes(), name
            if attention is not None:
                assert layer.last_attention is attention, name
                assert attention.tobytes() == attention_before.tobytes(), name


class TestConv2DReference:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_nested_loop_convolution(self, rng, stride, padding):
        conv = Conv2D(2, 3, 3, rng, stride=stride, padding=padding)
        conv.params["b"][...] = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 8, 7))
        out = conv.forward(x)
        dy = rng.standard_normal(out.shape)
        conv.zero_grads()
        dx = conv.backward(dy)
        ref_out, ref_dx, ref_dw, ref_db = conv_reference(
            x, conv.params["W"], conv.params["b"], stride, padding, dy
        )
        npt.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        npt.assert_allclose(dx, ref_dx, rtol=0, atol=1e-12)
        npt.assert_allclose(conv.grads["W"], ref_dw, rtol=0, atol=1e-12)
        npt.assert_allclose(conv.grads["b"], ref_db, rtol=0, atol=1e-12)

    def test_batch_forward_equals_per_sample_forwards(self, rng):
        conv = Conv2D(4, 8, 3, rng, padding=1)
        x = rng.standard_normal((8, 4, 16, 16))
        batch = conv.forward(x)
        singles = np.concatenate([conv.forward(x[i : i + 1]) for i in range(len(x))])
        npt.assert_array_equal(batch, singles)


class TestTinyCNNGradients:
    def test_classifier_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        model = tiny_cnn()
        x = rng.random((2, 1, 8, 8))
        labels = one_hot([0, 2], 3)
        weights = np.array([0.2, 1.4, 1.4])

        loss, grad_logits = ce_loss(model, x, labels, weights)
        model.zero_grads()
        dx = model.backward(grad_logits)

        numeric = numeric_param_grads(model, lambda: ce_loss(model, x, labels, weights)[0])
        assert_grads_close(model.named_grads(), numeric)
        npt.assert_allclose(
            dx,
            numeric_input_grad(x, lambda xn: ce_loss(model, xn, labels, weights)[0]),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_box_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        model = tiny_cnn(box_head=True)
        x = rng.random((2, 1, 8, 8))
        probe = rng.normal(size=(2, 4))

        def loss():
            return float((model.forward(x).box * probe).sum())

        loss()
        model.zero_grads()
        model.backward(np.zeros((2, 3)), grad_box=probe)
        numeric = numeric_param_grads(model, loss)
        assert_grads_close(model.named_grads(), numeric)

    def test_zero_upstream_gradient_stays_zero(self, rng):
        model = tiny_cnn()
        x = rng.random((2, 1, 8, 8))
        model.forward(x)
        model.zero_grads()
        dx = model.backward(np.zeros((2, 3)))
        npt.assert_array_equal(dx, np.zeros_like(x))
        for name, g in model.named_grads().items():
            npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_backward_from_tap_matches_input_shape(self, rng):
        model = tiny_cnn()
        x = rng.random((2, 1, 8, 8))
        res = model.forward(x)
        taps = dict(res.trunk)
        g = model.backward_from_tap("conv2", np.ones_like(taps["conv2"]))
        assert g.shape == x.shape

    def test_box_outputs_lie_in_unit_interval(self, rng):
        model = tiny_cnn(box_head=True)
        res = model.forward(rng.random((4, 1, 8, 8)))
        assert np.all(res.box > 0.0) and np.all(res.box < 1.0)

    def test_missing_box_head_rejected(self, rng):
        model = tiny_cnn()
        model.forward(rng.random((1, 1, 8, 8)))
        with pytest.raises(ShapeError, match="box head"):
            model.backward(np.zeros((1, 3)), grad_box=np.ones((1, 4)))


class TestTinyViTGradients:
    def test_classifier_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        model = tiny_vit()
        x = rng.random((2, 1, 8, 8))
        labels = one_hot([1, 2], 3)

        _, grad_logits = ce_loss(model, x, labels)
        model.zero_grads()
        dx = model.backward(grad_logits)

        numeric = numeric_param_grads(model, lambda: ce_loss(model, x, labels)[0])
        assert_grads_close(model.named_grads(), numeric)
        npt.assert_allclose(
            dx,
            numeric_input_grad(x, lambda xn: ce_loss(model, xn, labels)[0]),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_box_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        model = tiny_vit(box_head=True)
        x = rng.random((1, 1, 8, 8))
        probe = rng.normal(size=(1, 4))

        def loss():
            return float((model.forward(x).box * probe).sum())

        loss()
        model.zero_grads()
        model.backward(np.zeros((1, 3)), grad_box=probe)
        numeric = numeric_param_grads(model, loss)
        assert_grads_close(model.named_grads(), numeric)

    def test_attention_stack_is_row_stochastic(self, rng):
        model = tiny_vit(n_layers=2)
        res = model.forward(rng.random((3, 1, 8, 8)))
        assert len(res.attention) == 2
        for a in res.attention:
            assert a.shape == (3, 2, 4, 4)
            npt.assert_allclose(a.sum(axis=-1), np.ones((3, 2, 4)), atol=1e-12)

    def test_backward_from_tap_matches_input_shape(self, rng):
        model = tiny_vit()
        x = rng.random((2, 1, 8, 8))
        res = model.forward(x)
        taps = dict(res.trunk)
        g = model.backward_from_tap("block0", np.ones_like(taps["block0"]))
        assert g.shape == x.shape

    def test_patch_must_tile_input(self):
        with pytest.raises(ShapeError, match="tile"):
            tiny_vit(patch=3)


class TestEvaluationDeterminism:
    def test_eval_forward_is_reproducible(self, rng):
        x = rng.random((3, 1, 8, 8))
        for model in (tiny_cnn(), tiny_vit(dropout=0.5)):
            first = model.forward(x, train=False)
            second = model.forward(x, train=False)
            npt.assert_array_equal(first.logits, second.logits)
            npt.assert_array_equal(first.probs, second.probs)

    def test_dropout_only_acts_in_training(self, rng):
        model = tiny_vit(dropout=0.5)
        x = rng.random((4, 1, 8, 8))
        eval_out = model.forward(x, train=False).logits
        train_out = model.forward(x, train=True).logits
        assert not np.array_equal(train_out, eval_out)
        npt.assert_array_equal(model.forward(x, train=False).logits, eval_out)

    def test_zero_dropout_training_matches_eval(self, rng):
        model = tiny_vit(dropout=0.0)
        x = rng.random((2, 1, 8, 8))
        npt.assert_array_equal(
            model.forward(x, train=True).logits, model.forward(x, train=False).logits
        )

    def test_batch_permutation_permutes_outputs(self, rng):
        x = rng.random((5, 1, 8, 8))
        perm = np.array([3, 0, 4, 1, 2])
        for model in (tiny_cnn(), tiny_vit()):
            base = model.forward(x).probs
            permuted = model.forward(x[perm]).probs
            npt.assert_array_equal(permuted, base[perm])


class TestBuildModel:
    def test_arch_roundtrip_preserves_forward(self, rng):
        model = tiny_cnn()
        rebuilt = build_model(model.arch, seed=model.seed)
        x = rng.random((2, 1, 8, 8))
        npt.assert_array_equal(rebuilt.forward(x).logits, model.forward(x).logits)

    def test_vit_roundtrip_preserves_forward(self, rng):
        model = tiny_vit()
        rebuilt = build_model(model.arch, seed=model.seed)
        x = rng.random((2, 1, 8, 8))
        npt.assert_array_equal(rebuilt.forward(x).logits, model.forward(x).logits)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            build_model({"kind": "resnet50"})

    def test_load_parameters_rejects_name_mismatch(self):
        model = tiny_cnn()
        params = model.named_parameters()
        params.pop("cls.b")
        with pytest.raises(ShapeError, match="mismatch"):
            tiny_cnn().load_parameters(params)

    def test_load_parameters_rejects_shape_mismatch(self):
        model = tiny_cnn()
        params = {k: v.copy() for k, v in model.named_parameters().items()}
        params["cls.b"] = np.zeros(7)
        with pytest.raises(ShapeError, match="shape"):
            tiny_cnn().load_parameters(params)

    def test_loaded_parameters_reproduce_outputs(self, rng):
        donor = tiny_cnn(seed=1)
        receiver = tiny_cnn(seed=2)
        receiver.load_parameters(donor.named_parameters())
        x = rng.random((2, 1, 8, 8))
        npt.assert_array_equal(receiver.forward(x).logits, donor.forward(x).logits)

    def test_bad_input_shape_rejected(self):
        model = tiny_cnn()
        with pytest.raises(ShapeError, match="expected input"):
            model.forward(np.zeros((2, 1, 8, 9)))
