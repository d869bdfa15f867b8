"""Layers for the numpy deep-learning substrate.

The substrate replaces the paper's C++ CNN library / DL4J / TensorFlow
backends with a small, deterministic, pure-numpy implementation.  Layers
follow a classic forward/backward contract:

* ``forward(x, train)`` caches whatever the backward pass needs and returns
  the layer output;
* ``backward(grad_out)`` returns the gradient w.r.t. the layer input and
  stores parameter gradients in ``self.grads`` (same keys as ``self.params``);
  ``backward_params`` stores them only (a model's first layer).

Convolution uses im2col so that the inner loop is a single GEMM, which keeps
the CNNs in Table 1 of the paper trainable on a laptop-scale simulator.
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Tanh",
    "Softmax",
    "Dropout",
    "Embedding",
    "GlobalAveragePool1D",
    "im2col",
    "col2im",
]


class Layer:
    """Base class for all layers.

    Sub-classes populate ``params`` / ``grads`` with identically-keyed numpy
    arrays.  Layers without parameters leave both dicts empty.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Accumulate ``self.grads`` only: the backward pass of a model's
        first layer, whose input gradient nobody reads."""
        self.backward(grad_out)

    def zero_grad(self) -> None:
        for key in self.grads:
            self.grads[key][...] = 0.0

    @property
    def num_parameters(self) -> int:
        return sum(int(p.size) for p in self.params.values())


class Dense(Layer):
    """Fully-connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "W": initializers.glorot_uniform((in_features, out_features), rng),
            "b": initializers.zeros((out_features,)),
        }
        self.grads = {key: np.zeros_like(val) for key, val in self.params.items()}
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "forward must run before backward"
        self.grads["W"] += self._x.T @ grad_out
        self.grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.params["W"].T


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N * out_h * out_w, C * kh * kw)`` patches.

    Returns the patch matrix together with the output spatial dimensions.
    """
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    # One gather from a strided view of every window, straight into patch
    # order. GEMM rounds by memory layout, so the layout is part of the
    # result: a single image's patches stay column-major, as the transpose
    # of a window-offset-major unfold leaves them.
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        (n, out_h, out_w, c, kh, kw),
        (sn, stride * sh, stride * sw, sc, sh, sw),
        writeable=False,
    )
    cols = np.ascontiguousarray(windows).reshape(n * out_h * out_w, -1)
    return (np.asfortranarray(cols) if n == 1 else cols), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patches back into an image."""
    n, c, h, w = x_shape
    x_padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    if stride == kh == kw:
        # Windows tile without overlap: every pixel takes at most one
        # patch value, so one add does what the loop below would.
        tiles = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 4, 2, 5)
        x_padded[:, :, : kh * out_h, : kw * out_w] += tiles.reshape(
            n, c, kh * out_h, kw * out_w
        )
        return x_padded[:, :, pad:-pad, pad:-pad] if pad > 0 else x_padded
    # One gather into (n, c, kh, kw, out_h, out_w) order, so each
    # scatter-add below reads a contiguous block.
    cols = np.ascontiguousarray(
        cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    )
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if pad > 0:
        return x_padded[:, :, pad:-pad, pad:-pad]
    return x_padded


class Conv2D(Layer):
    """2-D convolution over ``(N, C, H, W)`` input, implemented via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: int = 0,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.params = {
            "W": initializers.he_normal(shape, rng),
            "b": initializers.zeros((out_channels,)),
        }
        self.grads = {key: np.zeros_like(val) for key, val in self.params.items()}
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        k = self.kernel_size
        cols, out_h, out_w = im2col(x, k, k, self.stride, self.pad)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ w_mat.T + self.params["b"]
        n = x.shape[0]
        # Contiguous NCHW, so the activation and pooling that follow (and
        # their backward passes) stream memory in the same order.
        out = np.ascontiguousarray(
            out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        )
        self._cache = (x.shape, cols, out_h, out_w)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        grad_cols = self._accumulate(grad_out) @ w_mat
        x_shape, _, out_h, out_w = self._cache
        k = self.kernel_size
        return col2im(grad_cols, x_shape, k, k, self.stride, self.pad, out_h, out_w)

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._accumulate(grad_out)

    def _accumulate(self, grad_out: np.ndarray) -> np.ndarray:
        """Add the ``W``/``b`` gradients; returns ``grad_out`` as a matrix."""
        assert self._cache is not None, "forward must run before backward"
        _, cols, out_h, out_w = self._cache
        n = grad_out.shape[0]
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, self.out_channels)
        self.grads["W"] += (grad_mat.T @ cols).reshape(self.params["W"].shape)
        self.grads["b"] += grad_mat.sum(axis=0)
        return grad_mat


class _Pool2D(Layer):
    """Shared machinery for max/average pooling."""

    def __init__(self, pool_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._cache: tuple | None = None

    def _unfold(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        k = self.pool_size
        n, c, h, w = x.shape
        cols, out_h, out_w = im2col(
            x.reshape(n * c, 1, h, w), k, k, self.stride, pad=0
        )
        return cols, out_h, out_w


class MaxPool2D(_Pool2D):
    """Max pooling over ``(N, C, H, W)``."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        cols, out_h, out_w = self._unfold(x)
        arg = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), arg]
        n, c = x.shape[0], x.shape[1]
        self._cache = (x.shape, arg, out_h, out_w, cols.shape)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "forward must run before backward"
        x_shape, arg, out_h, out_w, cols_shape = self._cache
        n, c, h, w = x_shape
        grad_cols = np.zeros(cols_shape, dtype=grad_out.dtype)
        grad_cols[np.arange(cols_shape[0]), arg] = grad_out.reshape(-1)
        k = self.pool_size
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), k, k, self.stride, 0, out_h, out_w
        )
        return grad_x.reshape(n, c, h, w)


class AvgPool2D(_Pool2D):
    """Average pooling over ``(N, C, H, W)``."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        cols, out_h, out_w = self._unfold(x)
        out = cols.mean(axis=1)
        n, c = x.shape[0], x.shape[1]
        self._cache = (x.shape, out_h, out_w, cols.shape)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "forward must run before backward"
        x_shape, out_h, out_w, cols_shape = self._cache
        n, c, h, w = x_shape
        k = self.pool_size
        grad_cols = np.repeat(
            grad_out.reshape(-1, 1) / (k * k), cols_shape[1], axis=1
        )
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), k, k, self.stride, 0, out_h, out_w
        )
        return grad_x.reshape(n, c, h, w)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "forward must run before backward"
        return grad_out.reshape(self._shape)


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "forward must run before backward"
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._out is not None, "forward must run before backward"
        return grad_out * (1.0 - self._out**2)


class Softmax(Layer):
    """Softmax over the last axis.

    Only used standalone for inference; training goes through the fused
    softmax-cross-entropy loss in :mod:`repro.nn.losses` for stability.
    """

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._out = exp / exp.sum(axis=-1, keepdims=True)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._out is not None, "forward must run before backward"
        dot = (grad_out * self._out).sum(axis=-1, keepdims=True)
        return self._out * (grad_out - dot)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Embedding(Layer):
    """Token embedding lookup for ``(N, T)`` integer input."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        self.params = {"W": initializers.uniform((vocab_size, dim), rng)}
        self.grads = {"W": np.zeros_like(self.params["W"])}
        self._idx: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        idx = x.astype(np.int64)
        if idx.min() < 0 or idx.max() >= self.vocab_size:
            raise ValueError("token index out of range")
        self._idx = idx
        return self.params["W"][idx]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._idx is not None, "forward must run before backward"
        np.add.at(self.grads["W"], self._idx, grad_out)
        return np.zeros(self._idx.shape, dtype=np.float64)


class GlobalAveragePool1D(Layer):
    """Mean over the time axis of ``(N, T, D)`` input."""

    def __init__(self) -> None:
        super().__init__()
        self._t: int | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._t = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._t is not None, "forward must run before backward"
        expanded = np.repeat(grad_out[:, None, :], self._t, axis=1)
        return expanded / self._t
