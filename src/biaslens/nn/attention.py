"""Scaled dot-product attention with extractable, row-stochastic weights.

The weight matrix softmax(QK^T/sqrt(d_k)) is kept separate from the
attended output (weights @ V): relevance propagation needs the
row-stochastic weights on their own.
"""

from __future__ import annotations

import math

import numpy as np

from ..losses import softmax
from .layers import Layer, ShapeError, affine, fan_in_uniform


def attention_weights(q: np.ndarray, k: np.ndarray, d_k: int) -> np.ndarray:
    """Row-softmax(QK^T / sqrt(d_k)); each row sums to 1."""
    if d_k <= 0:
        raise ShapeError(f"d_k must be positive, got {d_k}")
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"Q and K feature dims differ: {q.shape} vs {k.shape}")
    scores = q @ np.swapaxes(k, -1, -2)
    scores /= math.sqrt(d_k)
    return softmax(scores)


class MultiHeadSelfAttention(Layer):
    """Multi-head self-attention over token sequences (N, P, d).

    After a forward pass ``last_attention`` holds the per-head weight
    tensor with shape (N, heads, P, P).
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if dim % n_heads:
            raise ShapeError(f"embed dim {dim} not divisible by {n_heads} heads")
        self.dim, self.n_heads = dim, n_heads
        self.d_k = dim // n_heads
        self.params = {
            name: fan_in_uniform(rng, (dim, dim), dim) for name in ("Wq", "Wk", "Wv", "Wo")
        }
        self.params.update(
            {name: np.zeros(dim) for name in ("bq", "bk", "bv", "bo")}
        )
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.last_attention: np.ndarray | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        n, p, _ = x.shape
        return x.reshape(n, p, self.n_heads, self.d_k).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n, _, p, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, p, self.dim)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[-1] != self.dim:
            raise ShapeError(f"attention expects (N, P, {self.dim}), got {x.shape}")
        self._x = x
        q = self._split_heads(affine(x, self.params["Wq"], self.params["bq"]))
        k = self._split_heads(affine(x, self.params["Wk"], self.params["bk"]))
        v = self._split_heads(affine(x, self.params["Wv"], self.params["bv"]))
        a = attention_weights(q, k, self.d_k)
        ctx = a @ v
        merged = self._merge_heads(ctx)
        self._q, self._k, self._v, self._a, self._merged = q, k, v, a, merged
        self.last_attention = a
        return affine(merged, self.params["Wo"], self.params["bo"])

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, q, k, v, a = self._x, self._q, self._k, self._v, self._a
        n, p, d = x.shape
        dy2 = dy.reshape(-1, d)
        self.grads["Wo"] += self._merged.reshape(-1, d).T @ dy2
        self.grads["bo"] += dy2.sum(axis=0)
        dctx = self._split_heads(dy @ self.params["Wo"].T)

        da = dctx @ v.transpose(0, 1, 3, 2)
        dv = a.transpose(0, 1, 3, 2) @ dctx
        # ds = a * (da - rowsum(da * a)) / sqrt(d_k), in the buffers da and ds.
        ds = da * a
        da -= ds.sum(axis=-1, keepdims=True)
        np.multiply(a, da, out=ds)
        ds /= math.sqrt(self.d_k)
        dq = ds @ k
        dk = ds.transpose(0, 1, 3, 2) @ q

        dx = np.zeros_like(x)
        x2 = x.reshape(-1, d)
        for name_w, name_b, grad in (("Wq", "bq", dq), ("Wk", "bk", dk), ("Wv", "bv", dv)):
            merged = self._merge_heads(grad)
            g2 = merged.reshape(-1, d)
            self.grads[name_w] += x2.T @ g2
            self.grads[name_b] += g2.sum(axis=0)
            dx += merged @ self.params[name_w].T
        return dx
