"""2-D convolution via im2col, with structured-pruning mask support.

Inputs are NCHW.  Only "valid" convolutions with unit dilation are
implemented — the paper's three models (Table II) use 5x5 and 1x12 valid
kernels exclusively, so padding support would be dead code on this target.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Layer, Parameter


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Unfold NCHW input into ``(N, out_h * out_w, C * kh * kw)`` patches."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    shape = (n, c, out_h, out_w, kh, kw)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # (N, out_h, out_w, C, kh, kw) -> (N, out_h*out_w, C*kh*kw)
    patches = patches.transpose(0, 2, 3, 1, 4, 5)
    cols = patches.reshape(n, out_h * out_w, c * kh * kw)
    # The reshape already copies unless the patches happen to merge into
    # a strided view of ``x`` (e.g. a 1x1 kernel); copy only then.
    if np.may_share_memory(cols, x):
        cols = cols.copy()
    return cols


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
) -> np.ndarray:
    """Fold ``(N, out_h*out_w, C*kh*kw)`` patch gradients back to NCHW."""
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    grad = np.zeros(x_shape, dtype=np.float64)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            grad[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    return grad


class Conv2D(Layer):
    """Valid 2-D convolution: ``(N, C_in, H, W) -> (N, C_out, H', W')``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        *,
        stride: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        kh, kw = kernel_size
        if min(in_channels, out_channels, kh, kw, stride) <= 0:
            raise ConfigurationError("Conv2D dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        fan_in = in_channels * kh * kw
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels, kh, kw), fan_in=fan_in),
            name="conv.weight",
        )
        self.bias = Parameter(zeros(out_channels), name="conv.bias") if bias else None
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        kh, kw = self.kernel_size
        n, _, h, w = x.shape
        if h < kh or w < kw:
            raise ConfigurationError(
                f"input {h}x{w} smaller than kernel {kh}x{kw}"
            )
        out_h = (h - kh) // self.stride + 1
        out_w = (w - kw) // self.stride + 1
        cols = im2col(x, kh, kw, self.stride)  # (N, P, C*kh*kw)
        w_mat = self.weight.data.reshape(self.out_channels, -1)  # (O, C*kh*kw)
        y = cols @ w_mat.T  # (N, P, O)
        if self.bias is not None:
            y = y + self.bias.data
        self._cache = (x.shape, cols)
        return y.transpose(0, 2, 1).reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self._param_grads(grad_out)
        x_shape, _ = self._cache
        kh, kw = self.kernel_size
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = g @ w_mat  # (N, P, C*kh*kw)
        return col2im(grad_cols, x_shape, kh, kw, self.stride)

    def backward_params(self, grad_out: np.ndarray) -> None:
        # Skips col2im and the ``g @ w_mat`` product; the weight and
        # bias grads are the ones backward() accumulates, bit for bit.
        self._param_grads(grad_out)

    def _param_grads(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate the weight and bias grads; returns ``grad_out`` as
        ``(N, P, O)``."""
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        x_shape, cols = self._cache
        n = x_shape[0]
        g = grad_out.reshape(n, self.out_channels, -1).transpose(0, 2, 1)  # (N, P, O)
        # dW: sum over batch and positions.
        grad_w = np.einsum("npo,npk->ok", g, cols)
        self.weight.grad += grad_w.reshape(self.weight.data.shape)
        self.weight.apply_mask()
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 1))
        return g

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape):
        c, h, w = input_shape
        if c != self.in_channels:
            raise ConfigurationError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        kh, kw = self.kernel_size
        return (
            self.out_channels,
            (h - kh) // self.stride + 1,
            (w - kw) // self.stride + 1,
        )

    def __repr__(self) -> str:
        kh, kw = self.kernel_size
        return (
            f"Conv2D({self.in_channels} -> {self.out_channels}, "
            f"kernel={kh}x{kw}, stride={self.stride})"
        )
