"""Two desk-scale architectures with dual heads (class logits + box
regressor) and hooks for behavior analysis: cached trunk activations,
per-layer attention weights, and backprop from any trunk tap down to the
input pixels."""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..losses import softmax
from .attention import MultiHeadSelfAttention
from .layers import (
    Conv2D,
    Dense,
    Dropout,
    GELU,
    Layer,
    LayerNorm,
    MaxPool2D,
    ReLU,
    ShapeError,
    fan_in_uniform,
)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class SpatialBoxHead(Layer):
    """Center-form box readout over a grid of feature cells.

    Each cell gets a score linear in its features; the softmaxed scores
    form an occupancy distribution whose mean over the normalized cell
    centers is the predicted box center, while the box size is a sigmoid
    readout of the occupancy-pooled features. Because the score weights
    are shared across cells, the readout generalizes across object
    positions from far fewer samples than a dense per-cell regressor.
    """

    _caches = ("_cells", "_alpha", "_pooled", "_size")

    def __init__(
        self, feat_dim: int, grid_hw: tuple[int, int], rng: np.random.Generator
    ) -> None:
        super().__init__()
        gh, gw = grid_hw
        ys, xs = np.meshgrid(
            (np.arange(gh) + 0.5) / gh, (np.arange(gw) + 0.5) / gw, indexing="ij"
        )
        self._centers = np.stack([xs.ravel(), ys.ravel()], axis=1)  # (K, 2) as (cx, cy)
        self.feat_dim = feat_dim
        self.params = {
            "score_w": fan_in_uniform(rng, (feat_dim,), feat_dim),
            "score_b": np.zeros(1),
            "size_W": fan_in_uniform(rng, (feat_dim, 2), feat_dim),
            "size_b": np.zeros(2),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, cells: np.ndarray, train: bool = False) -> np.ndarray:
        k = len(self._centers)
        if cells.ndim != 3 or cells.shape[1:] != (k, self.feat_dim):
            raise ShapeError(
                f"box head expects cells (N, {k}, {self.feat_dim}), got {cells.shape}"
            )
        self._cells = cells
        self._alpha = softmax(cells @ self.params["score_w"] + self.params["score_b"])  # (N, K)
        center = self._alpha @ self._centers
        self._pooled = np.einsum("nk,nkc->nc", self._alpha, cells)
        self._size = _sigmoid(self._pooled @ self.params["size_W"] + self.params["size_b"])
        return np.concatenate([center, self._size], axis=1)

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        cells, alpha = self._cells, self._alpha
        d_pre = dy[:, 2:] * self._size * (1.0 - self._size)
        if params:
            self.grads["size_W"] += self._pooled.T @ d_pre
            self.grads["size_b"] += d_pre.sum(axis=0)
        g_pooled = d_pre @ self.params["size_W"].T  # (N, C)
        g_alpha = dy[:, :2] @ self._centers.T
        g_alpha += np.einsum("nc,nkc->nk", g_pooled, cells)
        g_s = alpha * (g_alpha - (alpha * g_alpha).sum(axis=1, keepdims=True))
        if params:
            self.grads["score_w"] += np.einsum("nk,nkc->c", g_s, cells)
            self.grads["score_b"] += g_s.sum()
        return (
            g_s[:, :, None] * self.params["score_w"]
            + alpha[:, :, None] * g_pooled[:, None, :]
        )


@dataclass
class ForwardResult:
    logits: np.ndarray
    probs: np.ndarray
    box: np.ndarray | None
    trunk: list[tuple[str, np.ndarray]]
    attention: tuple[np.ndarray, ...] | None  # per layer: (N, heads, P, P)


class _ModelBase:
    kind = "base"

    # True when every trunk tap is a ReLU output: a unit that reads 0 on
    # every sample then has no gradient path to the input.
    rectified_taps = False

    def __init__(self) -> None:
        self._named_layers: dict[str, Layer] = {}
        self._layers: list[Layer] = []  # every layer, parameter-free ones too
        self.arch: dict = {}
        self.seed: int = 0

    def named_parameters(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for prefix, layer in self._named_layers.items():
            for pname, arr in layer.params.items():
                out[f"{prefix}.{pname}"] = arr
        return out

    def named_grads(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for prefix, layer in self._named_layers.items():
            for pname, arr in layer.grads.items():
                out[f"{prefix}.{pname}"] = arr
        return out

    def zero_grads(self) -> None:
        for layer in self._named_layers.values():
            layer.zero_grads()

    def release(self) -> None:
        """Drop every layer's forward caches, so that a model between
        passes holds only its parameters, gradients and constants. The
        next backward needs a forward first."""
        for layer in self._layers:
            layer.release()

    def load_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        own = self.named_parameters()
        if set(own) != set(params):
            missing = sorted(set(own) ^ set(params))
            raise ShapeError(f"parameter name mismatch: {missing}")
        for name, arr in params.items():
            if own[name].shape != arr.shape:
                raise ShapeError(
                    f"parameter {name!r}: expected shape {own[name].shape}, got {arr.shape}"
                )
            own[name][...] = arr

    def n_parameters(self) -> int:
        return sum(a.size for a in self.named_parameters().values())

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        c = self.arch["in_channels"]
        h, w = self.arch["input_hw"]
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(f"expected input (N, {c}, {h}, {w}), got {x.shape}")
        return x


class TinyCNN(_ModelBase):
    """conv-relu-pool x2 -> flatten -> dense heads."""

    kind = "tiny_cnn"
    rectified_taps = True

    def __init__(
        self,
        *,
        n_classes: int = 3,
        input_hw: tuple[int, int] = (32, 32),
        in_channels: int = 1,
        channels: tuple[int, int] = (8, 16),
        kernel: int = 3,
        box_head: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.seed = seed
        self.arch = {
            "kind": self.kind,
            "n_classes": n_classes,
            "input_hw": list(input_hw),
            "in_channels": in_channels,
            "channels": list(channels),
            "kernel": kernel,
            "box_head": box_head,
        }
        rng = np.random.default_rng(seed)
        pad = kernel // 2
        c1, c2 = channels
        self._conv1 = Conv2D(in_channels, c1, kernel, rng, padding=pad)
        self._conv2 = Conv2D(c1, c2, kernel, rng, padding=pad)
        h, w = input_hw
        if h % 4 or w % 4:
            raise ShapeError(f"input {h}x{w} must be divisible by 4 (two 2x2 pools)")
        feat_dim = c2 * (h // 4) * (w // 4)
        self._trunk: list[Layer] = [
            self._conv1,
            ReLU(),
            MaxPool2D(2),
            self._conv2,
            ReLU(),
            MaxPool2D(2),
        ]
        self._tap_index = {"conv1": 1, "conv2": 4}  # post-ReLU positions
        self._cls = Dense(feat_dim, n_classes, rng)
        self._feat_grid = (h // 4, w // 4)
        self._box = SpatialBoxHead(c2, self._feat_grid, rng) if box_head else None
        self._named_layers = {"conv1": self._conv1, "conv2": self._conv2, "cls": self._cls}
        self._layers = [*self._trunk, self._cls]
        if self._box is not None:
            self._named_layers["box"] = self._box
            self._layers.append(self._box)

    @property
    def trunk_taps(self) -> list[str]:
        return list(self._tap_index)

    def forward(self, x: np.ndarray, train: bool = False) -> ForwardResult:
        h = self._check_input(x)
        taps = {i: name for name, i in self._tap_index.items()}
        trunk = []
        for i, layer in enumerate(self._trunk):
            h = layer.forward(h, train)
            if i in taps:
                trunk.append((taps[i], h))
        n, c = h.shape[:2]  # h: (N, C, gh, gw)
        self._fmap_shape = h.shape
        logits = self._cls.forward(h.reshape(n, -1))
        box = None
        if self._box is not None:
            box = self._box.forward(h.reshape(n, c, -1).transpose(0, 2, 1))
        return ForwardResult(logits, softmax(logits), box, trunk, None)

    def backward(
        self,
        grad_logits: np.ndarray,
        grad_box: np.ndarray | None = None,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Accumulate every parameter gradient; return the input gradient,
        or None without computing it when ``input_grad`` is False."""
        g = self._cls.backward(grad_logits).reshape(self._fmap_shape)
        if grad_box is not None:
            if self._box is None:
                raise ShapeError("model has no box head")
            g_cells = self._box.backward(grad_box)
            g = g + g_cells.transpose(0, 2, 1).reshape(self._fmap_shape)
        for layer in reversed(self._trunk[1:]):
            g = layer.backward(g)
        return self._conv1.backward(g, inputs=input_grad)

    def backward_from_tap(self, tap: str, seed_grad: np.ndarray) -> np.ndarray:
        """Backprop an upstream gradient at a trunk tap down to the input;
        no parameter gradient is computed or touched."""
        idx = self._tap_index[tap]
        g = seed_grad
        for layer in reversed(self._trunk[: idx + 1]):
            g = layer.backward(g, params=False)
        return g

    def unit_input_grads(self, tap: str, units: Iterable[int]) -> Iterator[np.ndarray]:
        """Yield, for each unit (channel) of ``tap`` in turn, the input
        gradient of its spatial mean, from the caches of the last forward.

        Each equals ``backward_from_tap`` of the seed that is ``1 / (h * w)``
        on channel u and 0 elsewhere, bit for bit while the weights are
        finite, but no work is spent on the zero channels. The seed reaches
        the conv under the tap through channel u's ReLU mask alone, and
        that conv's transpose is k*k multiply-adds of shifted copies of one
        plane. Below ``conv2``, pool1's routing and relu1's mask are one
        bitwise select, and conv1's transpose is one GEMM per pool-parity
        plane plus flat shifted adds. Masks and buffers are built once per
        call. No parameter gradient is computed or touched.
        """
        mask = self._trunk[self._tap_index[tap]]._mask  # (N, C, h, w)
        n, _, h, w = mask.shape
        transpose = _PlaneTranspose(self._conv1 if tap == "conv1" else self._conv2, n, h, w)
        if tap == "conv1":
            finish = transpose.image
        else:
            finish = _PooledConvTranspose(self._conv1, self._trunk[2]._mask, self._trunk[1]._mask)
        for u in units:
            yield finish(transpose(u, mask[:, u], 1.0 / (h * w)))


class _PlaneTranspose:
    """The input gradient of a stride-1, same-size conv whose output
    gradient is one (N, h, w) plane on channel u and 0 on every other:
    the k*k products ``W[u, :, i, j] * plane`` added at their shifts in
    col2im's (i, j) order, which gives the GEMM-plus-col2im sums bit for
    bit.

    Every array is flat, so that each shift is one contiguous add over
    all channels and samples. A channel is ``stride`` long: N samples of
    ``rows`` rows of ``r``, padded input rows from ``pad`` on, then k rows
    of zeros. What a shift carries past a row, sample or channel is zeros,
    or lands outside the input. Built once per probe call; its buffers
    serve every unit.
    """

    def __init__(self, conv: Conv2D, n: int, h: int, w: int) -> None:
        k = conv.kernel
        self.conv, self.n, self.h, self.w, self.pad = conv, n, h, w, conv.padding
        self.rows, self.r = h + self.pad + 1, w + k - 1
        self.size = n * self.rows * self.r
        self.stride = self.size + k * self.r
        self._plane = np.zeros(self.stride)
        self._seed = self._plane[: self.size].reshape(n, self.rows, self.r)[:, :h, :w]
        self._term = np.empty((conv.in_channels, self.stride))
        self._sum = np.empty(conv.in_channels * self.stride + k * self.r)

    def __call__(self, unit: int, mask: np.ndarray, scale: float) -> np.ndarray:
        """``scale * mask`` through channel ``unit``'s transpose, flat
        (C_in * stride,). The array is overwritten by the next call."""
        np.copyto(self._seed, mask)
        np.multiply(self._plane, scale, out=self._plane)
        weights, r, span = self.conv.params["W"][unit], self.r, self._term.size
        term = self._term.reshape(span)
        self._sum.fill(0.0)
        for i in range(self.conv.kernel):
            for j in range(self.conv.kernel):
                np.multiply(weights[:, i, j, None], self._plane, out=self._term)
                out = self._sum[i * r + j : i * r + j + span]
                np.add(out, term, out=out)
        return self._sum[self.pad * r : self.pad * r + span]

    def image(self, g: np.ndarray) -> np.ndarray:
        """A fresh (N, C_in, h, w) input gradient from a flat ``g``."""
        g = g.reshape(-1, self.stride)[:, : self.size].reshape(-1, self.n, self.rows, self.r)
        return g[:, :, : self.h, self.pad : self.pad + self.w].transpose(1, 0, 2, 3).copy()


class _PooledConvTranspose:
    """``conv``'s input gradient from the gradient at the 2x2 pool over
    its ReLU, laid out flat as :class:`_PlaneTranspose` returns it.

    The pool's routing and the ReLU's mask become one int64 mask per
    pool-parity plane (a, b), all ones where the pool routes to pixel
    (2y + a, 2x + b) and the ReLU passes it; the routed gradient is those
    bits selected, and one GEMM per parity plane transposes it. col2im
    then adds each (i, j) column block of parity (a, b) as one flat shift
    into the parity plane of the padded input that it lands on, so every
    pixel sums its terms in col2im's (i, j) order; the planes interleave
    once at the end. Built once per probe call, from that forward's masks.
    """

    def __init__(self, conv: Conv2D, pool_mask: np.ndarray, relu_mask: np.ndarray) -> None:
        _, n, c, h, w = pool_mask.shape
        k, p, cin = conv.kernel, conv.padding, conv.in_channels
        self.conv, self.n, self.h, self.w = conv, n, h, w
        self.rows, self.r = h + p + 1, w + 2 * p
        self.size = n * self.rows * self.r
        self.stride = self.size + k * self.r
        route = np.zeros((4, c, self.stride), dtype=np.int64)
        for ab, win in enumerate(pool_mask):
            a, b = divmod(ab, 2)
            plane = route[ab, :, : self.size].reshape(c, n, self.rows, self.r)
            passed = win & relu_mask[:, :, a::2, b::2]
            np.copyto(plane[:, :, :h, p : p + w], passed.transpose(1, 0, 2, 3))
        np.negative(route, out=route)  # 1 -> all ones
        self._route = route.reshape(4, -1)
        self._routed = np.empty((c, self.stride))
        self._routed_bits = self._routed.reshape(-1).view(np.int64)
        # Rows ordered (i, j, c_in), so that an (i, j) block is contiguous.
        self._w_cols = conv.params["W"].transpose(2, 3, 1, 0).reshape(-1, c)
        self._cols = np.empty((4, k * k * cin, self.stride))
        self._planes = np.empty((4, cin * self.stride + (p + 1) * self.r))

    def __call__(self, g: np.ndarray) -> np.ndarray:
        k, p, cin = self.conv.kernel, self.conv.padding, self.conv.in_channels
        r, span = self.r, cin * self.stride
        for route, cols in zip(self._route, self._cols):
            np.bitwise_and(g.view(np.int64), route, out=self._routed_bits)
            np.matmul(self._w_cols, self._routed, out=cols)
        cols = self._cols.reshape(4, k * k, span)
        planes = self._planes
        planes.fill(0.0)
        for i in range(k):
            for j in range(k):
                for ab in range(4):
                    a, b = divmod(ab, 2)
                    off = ((a + i) >> 1) * r + ((b + j) >> 1)
                    out = planes[((a + i) & 1) * 2 + ((b + j) & 1), off : off + span]
                    np.add(out, cols[ab, i * k + j], out=out)
        full = planes[:, :span].reshape(2, 2, cin, self.stride)[..., : self.size]
        full = full.reshape(2, 2, cin, self.n, self.rows, r).transpose(3, 2, 4, 0, 5, 1)
        full = full.reshape(self.n, cin, 2 * self.rows, 2 * r)
        # Data sits at column offset p in a plane, so 2p once interleaved,
        # and the image at padded column p: crop from column 3p.
        return full[:, :, p : p + 2 * self.h, 3 * p : 3 * p + 2 * self.w]


class _TransformerBlock:
    """Pre-LN block: x + attn(LN(x)), then x + MLP(LN(x))."""

    def __init__(
        self, dim: int, n_heads: int, mlp_dim: int, dropout: float, rng: np.random.Generator
    ) -> None:
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Dense(dim, mlp_dim, rng)
        self.gelu = GELU()
        self.drop = Dropout(dropout, rng)
        self.fc2 = Dense(mlp_dim, dim, rng)

    def sublayers(self) -> dict[str, Layer]:
        return {
            "ln1": self.ln1,
            "attn": self.attn,
            "ln2": self.ln2,
            "fc1": self.fc1,
            "fc2": self.fc2,
        }

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        u = self.ln1.forward(x, train)
        x1 = x + self.attn.forward(u, train)
        v = self.ln2.forward(x1, train)
        m = self.fc2.forward(self.drop.forward(self.gelu.forward(self.fc1.forward(v, train), train), train), train)
        return x1 + m

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        dm = self.gelu.backward(self.drop.backward(self.fc2.backward(dy, params)))
        dx1 = dy + self.ln2.backward(self.fc1.backward(dm, params), params)
        du = self.attn.backward(dx1, params)
        return dx1 + self.ln1.backward(du, params)


class TinyViT(_ModelBase):
    """Patch-embed transformer with learned position embeddings,
    pre-LN blocks, mean-pooled features, and dual heads."""

    kind = "tiny_vit"

    def __init__(
        self,
        *,
        n_classes: int = 3,
        input_hw: tuple[int, int] = (32, 32),
        in_channels: int = 1,
        patch: int = 8,
        dim: int = 32,
        n_heads: int = 4,
        n_layers: int = 4,
        mlp_ratio: float = 2.0,
        dropout: float = 0.0,
        box_head: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        h, w = input_hw
        if h % patch or w % patch:
            raise ShapeError(f"patch {patch} does not tile input {h}x{w}")
        self.seed = seed
        self.arch = {
            "kind": self.kind,
            "n_classes": n_classes,
            "input_hw": list(input_hw),
            "in_channels": in_channels,
            "patch": patch,
            "dim": dim,
            "n_heads": n_heads,
            "n_layers": n_layers,
            "mlp_ratio": mlp_ratio,
            "dropout": dropout,
            "box_head": box_head,
        }
        rng = np.random.default_rng(seed)
        self.patch = patch
        self.grid = (h // patch, w // patch)
        self.n_patches = self.grid[0] * self.grid[1]
        self.dim = dim
        patch_dim = in_channels * patch * patch
        self._embed = Dense(patch_dim, dim, rng)
        self._pos = _PositionEmbedding(self.n_patches, dim, rng)
        self._embed_drop = Dropout(dropout, rng)
        mlp_dim = int(round(dim * mlp_ratio))
        self._blocks = [
            _TransformerBlock(dim, n_heads, mlp_dim, dropout, rng) for _ in range(n_layers)
        ]
        self._final_ln = LayerNorm(dim)
        self._cls = Dense(dim, n_classes, rng)
        self._box = SpatialBoxHead(dim, self.grid, rng) if box_head else None

        self._named_layers = {"embed": self._embed, "pos": self._pos}
        for i, blk in enumerate(self._blocks):
            for name, sub in blk.sublayers().items():
                self._named_layers[f"block{i}.{name}"] = sub
        self._named_layers["final_ln"] = self._final_ln
        self._named_layers["cls"] = self._cls
        if self._box is not None:
            self._named_layers["box"] = self._box
        self._layers = [*self._named_layers.values(), self._embed_drop]
        self._layers += [layer for blk in self._blocks for layer in (blk.gelu, blk.drop)]

    @property
    def trunk_taps(self) -> list[str]:
        return [f"block{i}" for i in range(len(self._blocks))]

    def _patchify(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.patch
        gh, gw = self.grid
        t = x.reshape(n, c, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)
        return t.reshape(n, gh * gw, c * p * p)

    def _unpatchify(self, dp: np.ndarray) -> np.ndarray:
        n = dp.shape[0]
        c = self.arch["in_channels"]
        p = self.patch
        gh, gw = self.grid
        t = dp.reshape(n, gh, gw, c, p, p).transpose(0, 3, 1, 4, 2, 5)
        return t.reshape(n, c, gh * p, gw * p)

    def forward(self, x: np.ndarray, train: bool = False) -> ForwardResult:
        x = self._check_input(x)
        tokens = self._pos.forward(self._embed.forward(self._patchify(x)))
        h = self._embed_drop.forward(tokens, train)
        outs = []
        for blk in self._blocks:
            h = blk.forward(h, train)
            outs.append(h)
        hn = self._final_ln.forward(h)
        logits = self._cls.forward(hn.mean(axis=1))
        box = None
        if self._box is not None:
            box = self._box.forward(hn)
        trunk = [(f"block{i}", outs[i]) for i in range(len(outs))]
        attention = tuple(blk.attn.last_attention for blk in self._blocks)
        return ForwardResult(logits, softmax(logits), box, trunk, attention)

    def _head_grad_to_tokens(
        self, grad_logits: np.ndarray, grad_box: np.ndarray | None
    ) -> np.ndarray:
        g_pool = self._cls.backward(grad_logits)
        n = g_pool.shape[0]
        d_hn = np.broadcast_to(
            g_pool[:, None, :] / self.n_patches, (n, self.n_patches, self.dim)
        ).copy()
        if grad_box is not None:
            if self._box is None:
                raise ShapeError("model has no box head")
            d_hn += self._box.backward(grad_box)
        return self._final_ln.backward(d_hn)

    def backward(
        self,
        grad_logits: np.ndarray,
        grad_box: np.ndarray | None = None,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """As TinyCNN.backward: ``input_grad=False`` skips the input gradient."""
        g = self._head_grad_to_tokens(grad_logits, grad_box)
        for blk in reversed(self._blocks):
            g = blk.backward(g)
        return self._embed_to_input(g, inputs=input_grad)

    def _embed_to_input(
        self, g_tokens: np.ndarray, params: bool = True, inputs: bool = True
    ) -> np.ndarray | None:
        g = self._embed_drop.backward(g_tokens)
        g = self._embed.backward(self._pos.backward(g, params), params, inputs)
        return None if g is None else self._unpatchify(g)

    def backward_from_tap(self, tap: str, seed_grad: np.ndarray) -> np.ndarray:
        """As TinyCNN.backward_from_tap."""
        idx = self.trunk_taps.index(tap)
        g = seed_grad
        for blk in reversed(self._blocks[: idx + 1]):
            g = blk.backward(g, params=False)
        return self._embed_to_input(g, params=False)

    def unit_input_grads(self, tap: str, units: Iterable[int]) -> Iterator[np.ndarray]:
        """As TinyCNN.unit_input_grads, for each unit's patch mean: one
        ``backward_from_tap`` per unit, from the seed that is ``1 / P`` on
        that unit of every patch and 0 elsewhere."""
        shape = self._final_ln._xhat.shape  # (N, P, dim), as at every tap
        for u in units:
            seed = np.zeros(shape)
            seed[:, :, u] = 1.0 / shape[1]
            yield self.backward_from_tap(tap, seed)


class _PositionEmbedding(Layer):
    """Learned additive position embedding over (N, P, d) token grids."""

    def __init__(self, n_patches: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.params = {"pos": rng.uniform(-0.02, 0.02, size=(n_patches, dim))}
        self.grads = {"pos": np.zeros_like(self.params["pos"])}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return x + self.params["pos"]

    def backward(self, dy: np.ndarray, params: bool = True) -> np.ndarray:
        if params:
            self.grads["pos"] += dy.sum(axis=0)
        return dy


def build_model(arch: Mapping[str, object], seed: int | None = None):
    """Construct a model from an architecture description (snapshot header).
    An unknown kind or a key its constructor does not take is a ValueError."""
    kind = arch.get("kind")
    cls = next((c for c in (TinyCNN, TinyViT) if c.kind == kind), None)
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r}")
    kwargs = {k: v for k, v in arch.items() if k != "kind"}
    unknown = sorted(set(kwargs) - set(inspect.signature(cls).parameters))
    if unknown:
        raise ValueError(f"unknown {kind} arch keys: {unknown}")
    for key in ("input_hw", "channels"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])  # type: ignore[arg-type]
    if seed is not None:
        kwargs["seed"] = seed
    return cls(**kwargs)  # type: ignore[arg-type]
