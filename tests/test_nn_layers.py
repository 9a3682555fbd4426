"""Gradient checks and behavioural tests for every layer."""

import itertools

import numpy as np
import pytest

from repro.bcm import bcm_to_dense
from repro.errors import ConfigurationError
from repro.nn import (
    BCMDense,
    Conv2D,
    CosineDense,
    Dense,
    Flatten,
    HardClip,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.layers import conv as conv_module
from repro.nn.layers import im2col
from repro.rad.zoo import build_model
from tests.gradcheck import check_layer_gradients


RNG = np.random.default_rng(42)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(8, 3, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((5, 8))).shape == (5, 3)

    def test_gradients(self):
        layer = Dense(6, 4, rng=np.random.default_rng(1))
        check_layer_gradients(layer, RNG.normal(size=(3, 6)))

    def test_bad_input_shape(self):
        layer = Dense(4, 2)
        with pytest.raises(ConfigurationError):
            layer.forward(np.zeros((3, 5)))

    def test_backward_before_forward(self):
        with pytest.raises(ConfigurationError):
            Dense(4, 2).backward(np.zeros((1, 2)))

    def test_mask_keeps_weights_zero(self):
        layer = Dense(4, 3, rng=np.random.default_rng(3))
        mask = np.ones((3, 4))
        mask[1, :] = 0.0
        layer.weight.set_mask(mask)
        layer.forward(RNG.normal(size=(2, 4)))
        layer.backward(np.ones((2, 3)))
        assert np.all(layer.weight.grad[1] == 0)
        assert np.all(layer.weight.data[1] == 0)


class TestCosineDense:
    def test_outputs_bounded(self):
        layer = CosineDense(10, 7)
        y = layer.forward(RNG.normal(size=(20, 10)))
        assert np.max(np.abs(y)) <= 1.0 + 1e-9

    def test_gradients(self):
        layer = CosineDense(5, 3)
        x = RNG.normal(size=(4, 5)) + 0.1
        check_layer_gradients(layer, x, atol=1e-4, rtol=1e-3)

    def test_output_shape_helper(self):
        assert CosineDense(5, 3).output_shape((5,)) == (3,)


class TestConv2D:
    def test_forward_shape_lenet(self):
        conv = Conv2D(1, 6, 5, rng=np.random.default_rng(6))
        assert conv.forward(np.zeros((2, 1, 28, 28))).shape == (2, 6, 24, 24)

    def test_forward_matches_direct_convolution(self):
        conv = Conv2D(2, 3, 3, rng=np.random.default_rng(7))
        x = RNG.normal(size=(1, 2, 6, 6))
        y = conv.forward(x)
        # Direct elementwise reference.
        ref = np.zeros_like(y)
        for o in range(3):
            for i in range(4):
                for j in range(4):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    ref[0, o, i, j] = (patch * conv.weight.data[o]).sum() + conv.bias.data[o]
        np.testing.assert_allclose(y, ref, atol=1e-10)

    def test_gradients(self):
        conv = Conv2D(2, 3, 3, rng=np.random.default_rng(8))
        check_layer_gradients(conv, RNG.normal(size=(2, 2, 5, 5)))

    def test_rect_kernel_har_style(self):
        conv = Conv2D(1, 4, (1, 12), rng=np.random.default_rng(10))
        y = conv.forward(np.zeros((1, 1, 1, 121)))
        assert y.shape == (1, 4, 1, 110)

    def test_output_shape_helper(self):
        conv = Conv2D(1, 6, 5)
        assert conv.output_shape((1, 28, 28)) == (6, 24, 24)

    def test_too_small_input(self):
        conv = Conv2D(1, 1, 5)
        with pytest.raises(ConfigurationError):
            conv.forward(np.zeros((1, 1, 3, 3)))


def _im2col_two_copies(x, kh, kw, stride):
    """Oracle: the unfold as first written, copying the reshape again."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(x.strides[0], x.strides[1], x.strides[2] * stride,
                 x.strides[3] * stride, x.strides[2], x.strides[3]),
    )
    patches = patches.transpose(0, 2, 3, 1, 4, 5)
    return patches.reshape(n, out_h * out_w, c * kh * kw).copy()


class TestIm2col:
    @pytest.mark.parametrize("shape, kh, kw, stride", [
        ((32, 1, 28, 28), 5, 5, 1),    # mnist/okg conv1
        ((4, 6, 12, 12), 5, 5, 1),     # mnist conv2
        ((4, 1, 1, 121), 1, 12, 1),    # har conv1
        ((2, 3, 6, 6), 2, 2, 2),       # strided
        ((2, 3, 8, 8), 1, 1, 1),       # reshape returns a view of x
        ((2, 3, 5, 5), 5, 5, 1),       # one patch: also a view of x
    ])
    def test_matches_two_copy_oracle(self, shape, kh, kw, stride):
        x = RNG.normal(size=shape)
        x_before = x.copy()
        cols = im2col(x, kh, kw, stride)
        ref = _im2col_two_copies(x, kh, kw, stride)
        assert cols.dtype == ref.dtype and cols.shape == ref.shape
        assert cols.tobytes() == ref.tobytes()
        assert cols.flags.c_contiguous
        assert not np.may_share_memory(cols, x)
        cols[...] = 0.0
        assert np.array_equal(x, x_before)

    def test_read_only_input(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        x.setflags(write=False)
        for k in (1, 3):
            cols = im2col(x, k, k, 1)
            assert cols.flags.writeable
            assert cols.tobytes() == _im2col_two_copies(x, k, k, 1).tobytes()


class TestMaxPool:
    def test_forward_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = pool.forward(x)
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_gradient_routing(self):
        pool = MaxPool2D(2)
        x = RNG.normal(size=(2, 3, 4, 4))
        check_layer_gradients(pool, x)

    def test_tie_breaking_single_winner(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2))
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 1, 1)))
        assert grad.sum() == 1.0  # exactly one winner per window

    def test_indivisible_raises(self):
        with pytest.raises(ConfigurationError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 4)))

    def test_output_shape_helper(self):
        assert MaxPool2D(2).output_shape((6, 24, 24)) == (6, 12, 12)


def _maxpool_reshape_max(x, ph=2, pw=2):
    """Oracle: the general path's ``(out, mask)``, reshape then max."""
    n, c, h, w = x.shape
    oh, ow = h // ph, w // pw
    windows = x.reshape(n, c, oh, ph, ow, pw)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, ph * pw)
    flat &= np.cumsum(flat, axis=-1) == 1
    return out, flat.reshape(n, c, oh, ow, ph, pw).transpose(0, 1, 2, 4, 3, 5)


def _every_window():
    """All 1,296 2x2 windows over {0, -0, 1, -1, 2, NaN}, four per 4x4
    map of a ``(2, 162, 4, 4)`` C-order batch."""
    values = (0.0, -0.0, 1.0, -1.0, 2.0, np.nan)
    windows = np.array(list(itertools.product(values, repeat=4)))
    # (n, c, oh, ow, ph, pw) -> (n, c, oh, ph, ow, pw) -> NCHW
    windows = windows.reshape(2, 162, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return windows.reshape(2, 162, 4, 4)


class TestMaxPoolFastPath:
    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_matches_reshape_max_in_every_memory_layout(self, order):
        """Bytes-equal out and mask, -0.0 and NaN included, whatever the
        axis order in memory (the 2x2 fast path or its fallback)."""
        base = _every_window()
        x = np.ascontiguousarray(base.transpose(order)).transpose(
            np.argsort(order))
        assert np.array_equal(x, base, equal_nan=True)
        pool = MaxPool2D(2)
        out = pool.forward(x)
        ref_out, ref_mask = _maxpool_reshape_max(x)
        assert out.tobytes() == ref_out.tobytes()
        assert out.strides == ref_out.strides
        mask = pool._cache[1]
        assert mask.tobytes() == ref_mask.tobytes()
        assert mask.strides == ref_mask.strides

    def test_conv_output_layout_takes_the_fast_path(self):
        """Conv2D returns a channels-last view; a 2x2 pool over it is
        bytes-equal to the oracle over the whole forward."""
        x = Conv2D(1, 6, 5, rng=np.random.default_rng(0)).forward(
            RNG.normal(size=(4, 1, 28, 28)))
        assert not x.flags.c_contiguous and x.strides[2] >= x.strides[3]
        out = MaxPool2D(2).forward(x)
        assert out.tobytes() == _maxpool_reshape_max(x)[0].tobytes()


def _snapshot_grads(model):
    return [p.grad.tobytes() for p in model.parameters()]


class TestParamOnlyBackward:
    def test_conv_backward_params_equals_backward(self, monkeypatch):
        x = RNG.normal(size=(3, 2, 9, 9))
        g = RNG.normal(size=(3, 4, 5, 5))
        mask = (RNG.random((4, 2, 5, 5)) > 0.5).astype(float)
        grads = []
        for full in (True, False):
            conv = Conv2D(2, 4, 5, rng=np.random.default_rng(11))
            conv.weight.set_mask(mask)
            conv.forward(x)
            if full:
                assert conv.backward(g).shape == x.shape
            else:
                # No input gradient: col2im is never reached.
                monkeypatch.setattr(conv_module, "col2im", None)
                assert conv.backward_params(g) is None
            grads.append(_snapshot_grads(conv))
        assert grads[0] == grads[1]

    def test_backward_params_before_forward(self):
        with pytest.raises(ConfigurationError):
            Conv2D(1, 1, 3).backward_params(np.zeros((1, 1, 1, 1)))

    @pytest.mark.parametrize("build", [
        lambda: build_model("mnist", rng=np.random.default_rng(5)),
        lambda: Sequential([Dense(6, 5, rng=np.random.default_rng(5)), ReLU(),
                            Dense(5, 3, rng=np.random.default_rng(6))]),
        lambda: Sequential([build_model("mnist", rng=np.random.default_rng(5)),
                            ReLU()]),
    ])
    def test_sequential_backward_params(self, build):
        """Param grads bytes-equal to the full backward's, for a Conv2D
        first layer, a layer with no override and a nested model."""
        x = g = None
        grads = []
        for params_only in (False, True):
            model = build()
            first = model.layers[0]
            while isinstance(first, Sequential):
                first = first.layers[0]
            if x is None:
                shape = (4, 1, 28, 28) if isinstance(first, Conv2D) else (4, 6)
                x = RNG.normal(size=shape)
                g = RNG.normal(size=model.forward(x).shape)
            model.forward(x)
            if params_only and isinstance(first, Conv2D):
                # The first layer's full backward is never reached.
                first.backward = None
            for _ in range(2):  # grads accumulate across calls
                if params_only:
                    assert model.backward_params(g) is None
                else:
                    assert model.backward(g).shape == x.shape
            grads.append(_snapshot_grads(model))
        assert grads[0] == grads[1]


class TestActivations:
    def test_relu_gradients(self):
        check_layer_gradients(ReLU(), RNG.normal(size=(4, 7)) + 0.05)

    def test_hardclip_gradients(self):
        x = RNG.normal(size=(5, 6)) * 2
        x = x[np.all(np.abs(np.abs(x) - 1.0) > 1e-3, axis=1)]  # away from kink
        if len(x):
            check_layer_gradients(HardClip(1.0), x)

    def test_hardclip_bounds(self):
        y = HardClip(0.5).forward(np.array([[-3.0, 0.2, 3.0]]))
        np.testing.assert_array_equal(y, [[-0.5, 0.2, 0.5]])

    def test_relu_zero_negative(self):
        y = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])


class TestFlatten:
    def test_roundtrip(self):
        f = Flatten()
        x = RNG.normal(size=(3, 2, 4, 4))
        y = f.forward(x)
        assert y.shape == (3, 32)
        back = f.backward(y)
        np.testing.assert_array_equal(back, x)

    def test_output_shape_helper(self):
        assert Flatten().output_shape((6, 4, 4)) == (96,)


def _dense(layer):
    """The dense ``(out, in)`` matrix a BCM layer stands for."""
    full = bcm_to_dense(layer.weight.data)
    return full[: layer.out_features, : layer.in_features]


class TestBCMDense:
    def test_forward_matches_materialized_matrix(self):
        layer = BCMDense(16, 8, 4, rng=np.random.default_rng(11))
        x = RNG.normal(size=(3, 16))
        y = layer.forward(x)
        w_full = _dense(layer)
        ref = x @ w_full.T + layer.bias.data
        np.testing.assert_allclose(y, ref, atol=1e-10)

    def test_gradients(self):
        layer = BCMDense(8, 8, 4, rng=np.random.default_rng(12))
        check_layer_gradients(layer, RNG.normal(size=(2, 8)))

    def test_gradients_rect_grid(self):
        layer = BCMDense(16, 4, 4, rng=np.random.default_rng(13))
        check_layer_gradients(layer, RNG.normal(size=(3, 16)))

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigurationError):
            BCMDense(12, 12, 3)

    def test_indivisible_dimensions_are_padded(self):
        layer = BCMDense(10, 8, 4, rng=np.random.default_rng(15))
        assert layer.in_padded == 12 and layer.out_padded == 8
        x = RNG.normal(size=(3, 10))
        y = layer.forward(x)
        assert y.shape == (3, 8)
        # Padded forward must equal the materialized (sliced) dense matrix.
        ref = x @ _dense(layer).T + layer.bias.data
        np.testing.assert_allclose(y, ref, atol=1e-10)

    def test_padded_gradients(self):
        layer = BCMDense(10, 8, 4, rng=np.random.default_rng(16))
        check_layer_gradients(layer, RNG.normal(size=(2, 10)))

    def test_circulant_structure(self):
        layer = BCMDense(4, 4, 4, rng=np.random.default_rng(14))
        full = _dense(layer)
        w = layer.weight.data[0, 0]
        for i in range(4):
            for j in range(4):
                assert full[i, j] == w[(i - j) % 4]
