"""Differentiable layers over float64 numpy arrays.

Every layer caches what its backward pass needs during forward and
accumulates parameter gradients into preallocated arrays, so gradients
from several heads can sum into a shared trunk. Call zero_grads()
between steps.

A backward pass computes only what its caller reads: ``params=False``
leaves the parameter gradients untouched, and ``inputs=False`` (on the
layers a model puts first) returns None instead of the input gradient.
``release()`` drops the forward caches once no backward will read them.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    pass


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` with the bias added into the product's own buffer."""
    out = x @ w
    out += b
    return out


class Layer:
    """Base: parameter-free identity-ish layer with grad bookkeeping."""

    # The attributes forward sets for backward; release() drops them.
    _caches: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def release(self) -> None:
        """Drop the forward caches; parameters, gradients and constants stay."""
        for name in self._caches:
            setattr(self, name, None)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    _caches = ("_x",)

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.params = {
            "W": fan_in_uniform(rng, (in_dim, out_dim), in_dim),
            "b": np.zeros(out_dim),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"Dense expects last dim {self.in_dim}, got {x.shape}")
        self._x = x
        return affine(x, self.params["W"], self.params["b"])

    def backward(
        self, dy: np.ndarray, params: bool = True, inputs: bool = True
    ) -> np.ndarray | None:
        x = self._x
        dy2 = dy.reshape(-1, self.out_dim)
        if params:
            self.grads["W"] += x.reshape(-1, self.in_dim).T @ dy2
            self.grads["b"] += dy2.sum(axis=0)
        return (dy2 @ self.params["W"].T).reshape(x.shape) if inputs else None


class ReLU(Layer):
    _caches = ("_mask",)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)  # NaN stays NaN; -0.0 becomes +0.0

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        return dy * self._mask


class GELU(Layer):
    """Exact (erf) Gaussian error linear unit.

    Forward keeps ``1 + erf(x/sqrt 2)`` so backward needs no second erf.
    scipy is imported here, on first use, so only models with a GELU load it.
    Both passes build their result in one buffer and write nothing they
    were given or cached.
    """

    _caches = ("_x", "_e")

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        from scipy.special import erf

        self._x = x
        e = x / math.sqrt(2.0)
        erf(e, out=e)
        e += 1.0
        self._e = e
        out = 0.5 * x
        out *= e
        return out

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        x = self._x
        # dy * (0.5 * e + x * exp(-0.5 * x * x) / sqrt(2 pi))
        g = -0.5 * x
        g *= x
        np.exp(g, out=g)
        g /= math.sqrt(2.0 * math.pi)
        g *= x
        g += 0.5 * self._e
        g *= dy
        return g


class Dropout(Layer):
    """Inverted dropout; identity (and rng-silent) when evaluating."""

    _caches = ("_mask",)

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: np.ndarray | float = 1.0

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = 1.0
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        return dy * self._mask


class LayerNorm(Layer):
    _caches = ("_inv_sigma", "_xhat")
    eps = 1e-5

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.dim = dim
        self.params = {"gamma": np.ones(dim), "beta": np.zeros(dim)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        # Centers once; mean(square(x - mu)) is np.var's own arithmetic.
        xc = x - x.mean(axis=-1, keepdims=True)
        var = np.square(xc).mean(axis=-1, keepdims=True)
        self._inv_sigma = 1.0 / np.sqrt(var + self.eps)
        xc *= self._inv_sigma
        self._xhat = xc
        out = xc * self.params["gamma"]
        out += self.params["beta"]
        return out

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        # inv_sigma * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
        # in the buffers dxhat and one scratch array t.
        xhat, inv_sigma = self._xhat, self._inv_sigma
        t = np.empty_like(xhat)
        if params:
            axes = tuple(range(dy.ndim - 1))
            np.multiply(dy, xhat, out=t)
            self.grads["gamma"] += t.sum(axis=axes)
            self.grads["beta"] += dy.sum(axis=axes)
        dxhat = dy * self.params["gamma"]
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        np.multiply(dxhat, xhat, out=t)
        mean_dxhat_xhat = t.mean(axis=-1, keepdims=True)
        dxhat -= mean_dxhat
        np.multiply(xhat, mean_dxhat_xhat, out=t)
        dxhat -= t
        dxhat *= inv_sigma
        return dxhat


class Conv2D(Layer):
    """Stride-1 2-D convolution via im2col and batched GEMM; input layout
    (N, C, H, W).

    Forward unfolds each sample's receptive fields into a (C*k*k, OH*OW)
    column matrix and multiplies it by the (O, C*k*k) weight matrix.
    Backward forms the input gradient as ``W.T @ dy`` folded back onto the
    image, and the weight gradient as the per-sample ``dy @ cols.T``
    summed over the batch. Each product is a stacked ``np.matmul``: one
    BLAS GEMM per sample, so a sample's result does not depend on the
    batch it came in.
    """

    _caches = ("_cols",)

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        padding: int = 0,
    ) -> None:
        super().__init__()
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.padding = kernel, padding
        fan_in = in_channels * kernel * kernel
        self.params = {
            "W": fan_in_uniform(rng, (out_channels, in_channels, kernel, kernel), fan_in),
            "b": np.zeros(out_channels),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _im2col(self, xp: np.ndarray, oh: int, ow: int) -> np.ndarray:
        n, c, _, _ = xp.shape
        k = self.kernel
        cols = np.empty((n, c, k, k, oh, ow))
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = xp[:, :, i : i + oh, j : j + ow]
        return cols.reshape(n, c * k * k, oh * ow)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(f"Conv2D expects {self.in_channels} channels, got shape {x.shape}")
        k, p = self.kernel, self.padding
        oh = h + 2 * p - k + 1
        ow = w + 2 * p - k + 1
        if p:
            xp = np.zeros((n, c, h + 2 * p, w + 2 * p))
            xp[:, :, p : p + h, p : p + w] = x
        else:
            xp = x
        cols = self._im2col(xp, oh, ow)
        self._cols, self._x_shape, self._out_hw = cols, x.shape, (oh, ow)
        w_col = self.params["W"].reshape(self.out_channels, -1)
        out = w_col @ cols
        out += self.params["b"][:, None]
        return out.reshape(n, self.out_channels, oh, ow)

    def backward(
        self, dy: np.ndarray, params: bool = True, inputs: bool = True
    ) -> np.ndarray | None:
        n, _, h, w = self._x_shape
        oh, ow = self._out_hw
        k, p = self.kernel, self.padding
        dy2 = dy.reshape(n, self.out_channels, oh * ow)
        if params:
            self.grads["W"] += (dy2 @ self._cols.transpose(0, 2, 1)).sum(axis=0).reshape(
                self.params["W"].shape
            )
            self.grads["b"] += dy2.sum(axis=(0, 2))
        if not inputs:
            return None
        w_col = self.params["W"].reshape(self.out_channels, -1)
        dcols = (w_col.T @ dy2).reshape(n, self.in_channels, k, k, oh, ow)
        dxp = np.zeros((n, self.in_channels, h + 2 * p, w + 2 * p))
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
        return dxp[:, :, p : p + h, p : p + w] if p else dxp


class MaxPool2D(Layer):
    """2x2 non-overlapping max pooling; ties resolve to the first maximum.

    Forward takes the elementwise maximum of the four strided views
    ``x[:, :, i::2, j::2]``. In the same pass it marks, view by view
    in row-major order, where each window's first maximum sits: a bool
    "first winner" mask, one plane per view, with as many elements as
    ``x``. Backward writes each view of the input gradient as the bits of
    ``dy`` selected by that view's mask plane. The mask, not ``x``, is
    what stays cached: it is an eighth of the bytes.
    """

    _caches = ("_mask",)
    _VIEWS = tuple(
        (slice(None), slice(None), slice(i, None, 2), slice(j, None, 2))
        for i in range(2)
        for j in range(2)
    )

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"MaxPool2D size 2 does not divide input {h}x{w}")
        views = self._VIEWS
        out = x[views[0]].copy()
        for v in views[1:]:
            # On a tie np.maximum returns its second argument, so the
            # earlier view's value stays, down to the sign of a zero.
            np.maximum(x[v], out, out=out)
        mask = np.empty((4, n, c, h // 2, w // 2), dtype=bool)
        taken = np.zeros(out.shape, dtype=bool)
        for win, v in zip(mask, views):
            np.equal(x[v], out, out=win)
            win &= ~taken
            taken |= win
        self._mask, self._in_shape = mask, x.shape
        return out

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        # dy's bits ANDed with all ones where a window routes, 0 elsewhere:
        # the bits of where(win, dy, 0.0), signed zeros and NaN included.
        dx = np.empty(self._in_shape)
        bits = np.ascontiguousarray(dy, dtype=np.float64).view(np.int64)
        for win, v in zip(self._mask, self._VIEWS):
            routes = np.negative(win.view(np.int8), dtype=np.int64)
            np.bitwise_and(bits, routes, out=dx.view(np.int64)[v])
        return dx
