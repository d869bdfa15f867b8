"""Unit tests for the nn layers: shapes, semantics and analytic gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gradcheck import max_relative_error, numerical_gradient
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    GlobalAveragePool1D,
    MaxPool2D,
    ReLU,
    Softmax,
    Tanh,
    col2im,
    im2col,
)

RNG = np.random.default_rng(0)


def _layer_gradcheck(layer, x, tol=1e-6, param_checks=True):
    """Check input and parameter gradients against finite differences."""
    out = layer.forward(x.copy(), train=False)
    upstream = np.random.default_rng(1).normal(size=out.shape)

    def loss_of_input(x_in):
        return float((layer.forward(x_in, train=False) * upstream).sum())

    layer.zero_grad()
    layer.forward(x.copy(), train=False)
    grad_in = layer.backward(upstream)
    numeric = numerical_gradient(loss_of_input, x.copy())
    assert max_relative_error(grad_in, numeric) < tol

    if not param_checks:
        return
    for key in layer.params:
        def loss_of_param(p, key=key):
            original = layer.params[key]
            layer.params[key] = p
            value = float((layer.forward(x.copy(), train=False) * upstream).sum())
            layer.params[key] = original
            return value

        numeric_p = numerical_gradient(loss_of_param, layer.params[key].copy())
        assert max_relative_error(layer.grads[key], numeric_p) < tol, key


class TestDense:
    def test_output_shape(self):
        layer = Dense(8, 3, RNG)
        out = layer.forward(np.ones((5, 8)))
        assert out.shape == (5, 3)

    def test_gradients(self):
        layer = Dense(6, 4, np.random.default_rng(2))
        _layer_gradcheck(layer, np.random.default_rng(3).normal(size=(3, 6)))

    def test_grad_accumulates_until_zeroed(self):
        layer = Dense(4, 2, np.random.default_rng(2))
        x = np.ones((2, 4))
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        first = layer.grads["W"].copy()
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        assert np.allclose(layer.grads["W"], 2 * first)
        layer.zero_grad()
        assert np.allclose(layer.grads["W"], 0.0)


class TestConv2D:
    def test_output_shape(self):
        layer = Conv2D(3, 8, kernel_size=3, rng=RNG)
        out = layer.forward(np.zeros((2, 3, 10, 10)))
        assert out.shape == (2, 8, 8, 8)

    def test_output_shape_with_stride_and_pad(self):
        layer = Conv2D(1, 4, kernel_size=3, rng=RNG, stride=2, pad=1)
        out = layer.forward(np.zeros((1, 1, 9, 9)))
        assert out.shape == (1, 4, 5, 5)

    def test_gradients(self):
        layer = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(4))
        _layer_gradcheck(layer, np.random.default_rng(5).normal(size=(2, 2, 6, 6)))

    def test_matches_direct_convolution(self):
        layer = Conv2D(1, 1, kernel_size=2, rng=np.random.default_rng(6))
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        w = layer.params["W"][0, 0]
        b = layer.params["b"][0]
        expected = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i : i + 2, j : j + 2] * w).sum() + b
        assert np.allclose(out[0, 0], expected)

    def test_output_is_contiguous_nchw(self):
        layer = Conv2D(2, 3, kernel_size=3, rng=np.random.default_rng(9))
        out = layer.forward(np.random.default_rng(10).normal(size=(2, 2, 6, 6)))
        assert out.shape == (2, 3, 4, 4)
        assert out.flags.c_contiguous


def _reference_unfold(x, k, stride, pad):
    """im2col by definition: one row per (image, out_y, out_x) window,
    its (channel, i, j) pixels in C order."""
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, _, h, w = x.shape
    out_h, out_w = (h - k) // stride + 1, (w - k) // stride + 1
    rows = [
        x[b, :, y * stride : y * stride + k, z * stride : z * stride + k].reshape(-1)
        for b in range(n)
        for y in range(out_h)
        for z in range(out_w)
    ]
    return np.array(rows), out_h, out_w


class TestIm2Col:
    @pytest.mark.parametrize(
        "n, c, k, stride, pad",
        [(1, 1, 5, 1, 0), (3, 2, 3, 2, 1), (4, 3, 2, 2, 0), (1, 4, 3, 1, 2)],
    )
    def test_matches_reference_unfold_and_layout(self, n, c, k, stride, pad):
        x = np.random.default_rng(8).normal(size=(n, c, 9, 7))
        cols, out_h, out_w = im2col(x, k, k, stride, pad)
        expected, expected_h, expected_w = _reference_unfold(x, k, stride, pad)
        assert (out_h, out_w) == (expected_h, expected_w)
        assert np.array_equal(cols, expected)
        # GEMM rounds by memory layout: a single image's patches are
        # column-major, a batch's row-major.
        assert cols.flags.f_contiguous if n == 1 else cols.flags.c_contiguous

    def test_roundtrip_counts_overlaps(self):
        x = np.random.default_rng(7).normal(size=(1, 1, 5, 5))
        cols, oh, ow = im2col(x, 3, 3, stride=1, pad=0)
        back = col2im(cols, x.shape, 3, 3, 1, 0, oh, ow)
        # Each pixel is counted once per patch containing it.
        counts = col2im(np.ones_like(cols), x.shape, 3, 3, 1, 0, oh, ow)
        assert np.allclose(back, x * counts)

    def test_patch_content(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols, oh, ow = im2col(x, 2, 2, stride=2, pad=0)
        assert oh == ow == 2
        assert np.allclose(cols[0], [0, 1, 4, 5])
        assert np.allclose(cols[3], [10, 11, 14, 15])


class TestPooling:
    def test_maxpool_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = AvgPool2D(2).forward(x)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_gradients(self):
        _layer_gradcheck(
            MaxPool2D(2), np.random.default_rng(8).normal(size=(2, 2, 4, 4))
        )

    def test_avgpool_gradients(self):
        _layer_gradcheck(
            AvgPool2D(2), np.random.default_rng(9).normal(size=(2, 2, 4, 4))
        )

    def test_non_square_stride(self):
        out = MaxPool2D(3, stride=3).forward(np.zeros((1, 1, 9, 9)))
        assert out.shape == (1, 1, 3, 3)


class TestActivations:
    def test_relu_forward_and_grad(self):
        x = np.array([[-1.0, 0.5], [2.0, -3.0]])
        layer = ReLU()
        out = layer.forward(x)
        assert np.allclose(out, [[0, 0.5], [2, 0]])
        grad = layer.backward(np.ones_like(x))
        assert np.allclose(grad, [[0, 1], [1, 0]])

    def test_tanh_gradients(self):
        _layer_gradcheck(Tanh(), np.random.default_rng(10).normal(size=(3, 5)))

    def test_softmax_rows_sum_to_one(self):
        out = Softmax().forward(np.random.default_rng(11).normal(size=(4, 7)))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= 0).all()

    def test_softmax_gradients(self):
        _layer_gradcheck(Softmax(), np.random.default_rng(12).normal(size=(3, 4)))


class TestFlattenDropoutEmbedding:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(13).normal(size=(2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_dropout_off_at_inference(self):
        layer = Dropout(0.5, np.random.default_rng(14))
        x = np.ones((4, 4))
        assert np.allclose(layer.forward(x, train=False), x)

    def test_dropout_preserves_expectation(self):
        layer = Dropout(0.3, np.random.default_rng(15))
        x = np.ones((200, 200))
        out = layer.forward(x, train=True)
        assert abs(out.mean() - 1.0) < 0.02

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, RNG)

    def test_embedding_lookup(self):
        layer = Embedding(10, 4, np.random.default_rng(16))
        idx = np.array([[1, 2], [3, 1]])
        out = layer.forward(idx)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out[0, 0], layer.params["W"][1])
        assert np.allclose(out[1, 1], layer.params["W"][1])

    def test_embedding_gradient_scatter(self):
        layer = Embedding(5, 2, np.random.default_rng(17))
        idx = np.array([[0, 0]])
        layer.forward(idx)
        layer.backward(np.ones((1, 2, 2)))
        # Token 0 used twice: gradient accumulates.
        assert np.allclose(layer.grads["W"][0], [2.0, 2.0])
        assert np.allclose(layer.grads["W"][1:], 0.0)

    def test_embedding_out_of_range(self):
        layer = Embedding(5, 2, RNG)
        with pytest.raises(ValueError):
            layer.forward(np.array([[7]]))

    def test_global_average_pool(self):
        layer = GlobalAveragePool1D()
        x = np.random.default_rng(18).normal(size=(2, 4, 3))
        out = layer.forward(x)
        assert np.allclose(out, x.mean(axis=1))
        grad = layer.backward(np.ones((2, 3)))
        assert np.allclose(grad, 0.25)
