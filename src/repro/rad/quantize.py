"""16-bit fixed-point quantization and integer inference kernels.

This is RAD's "fixed point calculation" component (Section III-A): a float
:class:`~repro.nn.model.Sequential` model is converted layer by layer to a
:class:`QuantizedModel` whose numerics are exactly what the device executes
— int16 activations on per-layer grids, int16 weights, int32 MAC
accumulators, and the LEA-style scaled FFT pipeline for BCM layers
(ACE Algorithm 1).

Activation grids come from the calibration peaks of
:func:`repro.rad.normalize.layer_output_peaks` (dynamic fixed point: each
layer output has its own fractional-bit count), and the BCM kernel tracks
block exponents through FFT -> multiply -> IFFT the way LEA firmware does
with its ``BEXP`` command.  The ``bcm_mode`` knob selects the
overflow-protection strategy:

* ``"stage"``   — per-stage scaled FFT + block-exponent renormalization
  (default; best precision),
* ``"prescale"``— Algorithm 1 exactly as printed: SCALE-DOWN inputs by the
  vector length, unscaled FFT, SCALE-UP outputs,
* ``"none"``    — no protection at all (the overflow ablation; saturates).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.concurrency import Memo
from repro.errors import ConfigurationError, QuantizationError
from repro.fixedpoint import (
    INT16_MAX,
    INT16_MIN,
    OverflowMonitor,
    best_frac_bits,
    q15_fft_reference,
    q15_ifft_reference,
    saturate16,
)
from repro.kernels.bcmplan import get_bcm_plan
from repro.kernels.spectra import weight_spectra
from repro.nn.layers import (
    BCMDense,
    Conv2D,
    CosineDense,
    Dense,
    Flatten,
    HardClip,
    MaxPool2D,
    ReLU,
)
from repro.nn.layers.conv import im2col
from repro.nn.model import Sequential
from repro.rad.normalize import layer_output_peaks

BCM_MODES = ("stage", "prescale", "none")

#: Distinct logits batches :meth:`QuantizedModel.forward` keeps per model.
#: A Figure 7 model sees two (its runtimes' ``bcm_mode`` and input
#: batches); the sweeps see one.
LOGITS_MEMO_SIZE = 16


def _quant_weights(w: np.ndarray) -> Tuple[np.ndarray, int]:
    """Quantize float weights to int16 with the best non-saturating grid."""
    frac = best_frac_bits(w)
    raw = np.clip(np.rint(np.asarray(w) * (1 << frac)), INT16_MIN, INT16_MAX)
    return raw.astype(np.int16), frac


def _requant(acc: np.ndarray, shift: int, monitor: Optional[OverflowMonitor],
             site: str) -> np.ndarray:
    """Shift int64 accumulators onto an int16 grid (rounded / saturating)."""
    acc = np.asarray(acc, dtype=np.int64)
    if shift > 0:
        out = (acc + (np.int64(1) << (shift - 1))) >> shift
    elif shift < 0:
        out = acc << (-shift)
    else:
        out = acc
    if monitor is not None:
        monitor.check_saturation(site, out, INT16_MIN, INT16_MAX)
    return saturate16(out)


# ---------------------------------------------------------------------------
# Quantized layer records
# ---------------------------------------------------------------------------


@dataclass
class QuantConv:
    """Conv2D executed as per-window MAC bulk operations."""

    weight: np.ndarray  # int16 (O, I, kh, kw)
    bias: np.ndarray  # int32 (O,) on the (in_frac + w_frac) grid
    w_frac: int
    in_frac: int
    out_frac: int
    stride: int
    in_shape: Tuple[int, int, int]
    out_shape: Tuple[int, int, int]
    pruned_filters: int = 0  # filters that are entirely zero (skipped on device)

    def forward(self, x: np.ndarray, monitor: Optional[OverflowMonitor] = None) -> np.ndarray:
        kh, kw = self.weight.shape[2], self.weight.shape[3]
        cols = im2col(x.astype(np.int64), kh, kw, self.stride)  # (N, P, IKK)
        w_mat = self.weight.reshape(self.weight.shape[0], -1).astype(np.int64)
        acc = cols @ w_mat.T  # (N, P, O) int64 accumulators
        if monitor is not None:
            monitor.check_saturation("conv_mac", acc, -(2 ** 31), 2 ** 31 - 1)
        acc = np.clip(acc, -(2 ** 31), 2 ** 31 - 1)
        acc += self.bias.astype(np.int64)
        y = _requant(acc, self.in_frac + self.w_frac - self.out_frac, monitor, "conv_out")
        n = x.shape[0]
        c, h, w = self.out_shape
        return y.transpose(0, 2, 1).reshape(n, c, h, w)


@dataclass
class QuantDense:
    """Dense layer executed as row-wise MAC operations."""

    weight: np.ndarray  # int16 (O, I)
    bias: np.ndarray  # int32 (O,) on the (in_frac + w_frac) grid
    w_frac: int
    in_frac: int
    out_frac: int
    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]

    def forward(self, x: np.ndarray, monitor: Optional[OverflowMonitor] = None) -> np.ndarray:
        acc = x.astype(np.int64) @ self.weight.T.astype(np.int64)
        if monitor is not None:
            monitor.check_saturation("dense_mac", acc, -(2 ** 31), 2 ** 31 - 1)
        acc = np.clip(acc, -(2 ** 31), 2 ** 31 - 1)
        acc += self.bias.astype(np.int64)
        return _requant(acc, self.in_frac + self.w_frac - self.out_frac, monitor, "dense_out")


@dataclass
class QuantBCM:
    """BCM FC layer executed as FFT -> complex multiply -> IFFT (Algorithm 1).

    Stores precomputed weight spectra (the paper: "only w_ij or FFT(w_ij)
    needs to be stored"); ``w_exp`` is their shared block exponent:
    ``FFT(w)_float = raw * 2**(w_exp - 15)``.
    """

    spec_re: np.ndarray  # int16 (p, q, k)
    spec_im: np.ndarray  # int16 (p, q, k)
    w_exp: int
    bias: np.ndarray  # int32 (out,) on the out_frac grid
    in_frac: int
    out_frac: int
    block_size: int
    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]
    mode: str = "stage"

    @property
    def p(self) -> int:
        return self.spec_re.shape[0]

    @property
    def q(self) -> int:
        return self.spec_re.shape[1]

    def forward(
        self,
        x: np.ndarray,
        monitor: Optional[OverflowMonitor] = None,
        mode: Optional[str] = None,
    ) -> np.ndarray:
        """Planned forward: the fused FFT -> multiply -> IFFT chain of
        :class:`repro.kernels.bcmplan.BCMPlan`, bit-identical to
        :meth:`forward_reference` (asserted by ``tests/test_kernels.py``).

        The printed Algorithm 1 scales inputs and weights down by their
        lengths before the FFT and back up afterwards.  Here, as on LEA
        firmware, the scaled FFT shifts right one bit per stage, block
        exponents (``BEXP``) track the binary point so the scale-up is
        exponent arithmetic, and a renormalization before the IFFT
        shifts the accumulated spectrum into the int16 headroom.  In raw
        values (``mode="stage"``)::

            x_raw   = x_float * 2**in_frac
            fx_raw  = FFT(x_raw) * 2**-fft_scale          (scaled FFT)
            w_raw   = FFT(w_float) * 2**(15 - w_exp)      (stored spectrum)
            pr_raw  = fx_raw * w_raw * 2**-15             (Q15 complex multiply)
            acc_raw = sum_q pr_raw * 2**(h - s_q)         (q-sum + BEXP headroom h)
            b_raw   = IFFT(acc_raw) * 2**-ifft_scale
            out_raw = b_raw * 2**(out_frac - in_frac + fft_scale + w_exp
                                  + s_q + ifft_scale - h)

        with ``fft_scale = log2(block_size)`` and ``s_q = ceil(log2 q)``
        guarding the q-block sum.
        """
        return get_bcm_plan(self).forward(x, monitor=monitor, mode=mode)

    def forward_reference(
        self,
        x: np.ndarray,
        monitor: Optional[OverflowMonitor] = None,
        mode: Optional[str] = None,
    ) -> np.ndarray:
        """The legacy per-call implementation over the legacy FFT kernels,
        kept as the bit-identity oracle for the planned :meth:`forward`."""
        mode = mode or self.mode
        if mode not in BCM_MODES:
            raise ConfigurationError(f"bcm mode must be one of {BCM_MODES}")
        n = x.shape[0]
        k = self.block_size
        log2k = k.bit_length() - 1
        in_padded = self.q * k
        if x.shape[1] != in_padded:
            pad = np.zeros((n, in_padded - x.shape[1]), dtype=x.dtype)
            x = np.concatenate([x, pad], axis=1)
        xb = x.reshape(n, self.q, k)
        zeros = np.zeros_like(xb)

        if mode == "stage":
            fx_re, fx_im, _ = q15_fft_reference(
                xb, zeros, scaling="stage", monitor=monitor
            )
            fft_scale = log2k  # fx = FFT(x_raw) / 2**log2k
        elif mode == "prescale":
            # Algorithm 1 lines 3-4: SCALE-DOWN by the vector length.
            pre = (xb.astype(np.int32) + (1 << (log2k - 1))) >> log2k
            fx_re, fx_im, _ = q15_fft_reference(
                pre.astype(np.int16), zeros, scaling="none", monitor=monitor
            )
            fft_scale = log2k
        else:  # "none": unprotected (ablation) — saturates on real inputs
            fx_re, fx_im, _ = q15_fft_reference(
                xb, zeros, scaling="none", monitor=monitor
            )
            fft_scale = 0

        # Complex multiply with the stored spectra and accumulate over q.
        s_q = max(0, (self.q - 1).bit_length())  # headroom for the q-sum
        wre = self.spec_re.astype(np.int64)
        wim = self.spec_im.astype(np.int64)
        xre = fx_re.astype(np.int64)
        xim = fx_im.astype(np.int64)
        half = np.int64(1) << 14
        # (N, p, q, k) products on the Q15 grid, then shifted q-sum.
        pr_re = (xre[:, None] * wre[None] - xim[:, None] * wim[None] + half) >> 15
        pr_im = (xre[:, None] * wim[None] + xim[:, None] * wre[None] + half) >> 15
        if monitor is not None:
            monitor.check_saturation("bcm_mul", pr_re, INT16_MIN, INT16_MAX)
            monitor.check_saturation("bcm_mul", pr_im, INT16_MIN, INT16_MAX)
        pr_re = np.clip(pr_re, INT16_MIN, INT16_MAX)
        pr_im = np.clip(pr_im, INT16_MIN, INT16_MAX)
        if s_q:
            rnd = np.int64(1) << (s_q - 1)
            pr_re = (pr_re + rnd) >> s_q
            pr_im = (pr_im + rnd) >> s_q
        acc_re = pr_re.sum(axis=2)  # (N, p, k)
        acc_im = pr_im.sum(axis=2)
        if monitor is not None:
            monitor.check_saturation("bcm_acc", acc_re, INT16_MIN, INT16_MAX)
            monitor.check_saturation("bcm_acc", acc_im, INT16_MIN, INT16_MAX)
        acc_re = np.clip(acc_re, INT16_MIN, INT16_MAX)
        acc_im = np.clip(acc_im, INT16_MIN, INT16_MAX)

        # Block-exponent renormalization before the inverse transform (LEA
        # BEXP): shift left into the headroom so the IFFT keeps precision.
        if mode == "stage":
            peak = np.maximum(
                np.abs(acc_re).max(axis=(1, 2)), np.abs(acc_im).max(axis=(1, 2))
            )
            peak = np.maximum(peak, 1)
            h = np.maximum(0, 14 - np.floor(np.log2(peak)).astype(np.int64))
            shift = h[:, None, None]
            acc_re = acc_re << shift
            acc_im = acc_im << shift
        else:
            h = np.zeros(n, dtype=np.int64)

        b_re, b_im, ifft_scale = q15_ifft_reference(
            saturate16(acc_re), saturate16(acc_im),
            scaling="stage" if mode == "stage" else "none",
            monitor=monitor,
        )
        # Raw-value algebra (documented in forward):
        #   b_raw = y_float * 2**(in_frac - fft_scale - w_exp - s_q + h
        #                          - ifft_scale)
        # so landing on the out_frac grid takes one left shift by:
        up = (
            self.out_frac - self.in_frac + fft_scale + self.w_exp + s_q
            + ifft_scale
        )
        y = b_re.astype(np.int64)
        shift_left = up - h  # per-sample (h is the BEXP headroom used)
        out = np.where(
            shift_left[:, None, None] >= 0,
            y << np.maximum(shift_left[:, None, None], 0),
            (y + (np.int64(1) << np.maximum(-shift_left[:, None, None] - 1, 0)))
            >> np.maximum(-shift_left[:, None, None], 0),
        )
        out = out.reshape(n, -1)[:, : self.bias.size]  # drop block padding
        out = out + self.bias.astype(np.int64)
        if monitor is not None:
            monitor.check_saturation("bcm_out", out, INT16_MIN, INT16_MAX)
        return saturate16(out)


@dataclass
class QuantReLU:
    """ReLU on integer activations (grid-preserving)."""

    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]

    def forward(self, x: np.ndarray, monitor: Optional[OverflowMonitor] = None) -> np.ndarray:
        return np.maximum(x, 0).astype(np.int16)


@dataclass
class QuantPool:
    """Non-overlapping max pool on integer activations."""

    pool_size: Tuple[int, int]
    in_shape: Tuple[int, int, int]
    out_shape: Tuple[int, int, int]

    def forward(self, x: np.ndarray, monitor: Optional[OverflowMonitor] = None) -> np.ndarray:
        n, c, h, w = x.shape
        ph, pw = self.pool_size
        return x.reshape(n, c, h // ph, ph, w // pw, pw).max(axis=(3, 5))


@dataclass
class QuantFlatten:
    """Flatten NCHW activations into vectors (pure data movement)."""

    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]

    def forward(self, x: np.ndarray, monitor: Optional[OverflowMonitor] = None) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


QuantLayer = Union[QuantConv, QuantDense, QuantBCM, QuantReLU, QuantPool, QuantFlatten]


# ---------------------------------------------------------------------------
# Whole-model quantization
# ---------------------------------------------------------------------------


class _RecordingMonitor(OverflowMonitor):
    """Keeps each ``record`` call (``check_saturation`` included), for a
    memoized forward to replay into a real monitor, which validates."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: List[Tuple[str, int, int]] = []

    def record(self, site: str, n_overflows: int, n_values: int) -> None:
        self.calls.append((site, int(n_overflows), int(n_values)))


def _replay(calls: Sequence[Tuple[str, int, int]],
            monitor: OverflowMonitor) -> None:
    for site, n_overflows, n_values in calls:
        monitor.record(site, n_overflows, n_values)


@dataclass
class QuantizedModel:
    """A fully quantized model ready for deployment by ACE.

    :meth:`forward` is memoized per model (see its docstring); the memo
    is process-local scratch, left out of pickles and copies.
    """

    layers: List[QuantLayer]
    input_frac: int
    input_shape: Tuple[int, ...]
    num_classes: int
    name: str = "quantized"
    monitor: OverflowMonitor = field(default_factory=OverflowMonitor)

    def __post_init__(self) -> None:
        #: key -> (read-only logits, the forward's monitor records)
        self._memo = Memo(LOGITS_MEMO_SIZE, "kernels.logits_memo")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def forward_raw(
        self,
        x_float: np.ndarray,
        *,
        monitor: Optional[OverflowMonitor] = None,
        bcm_mode: Optional[str] = None,
    ) -> np.ndarray:
        """Run integer inference; returns raw int16 logits."""
        monitor = monitor if monitor is not None else self.monitor
        x = np.asarray(x_float, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ConfigurationError(
                f"expected input shape (N, {self.input_shape}), got {x.shape}"
            )
        h = np.clip(
            np.rint(x * (1 << self.input_frac)), INT16_MIN, INT16_MAX
        ).astype(np.int16)
        for layer in self.layers:
            if isinstance(layer, QuantBCM):
                h = layer.forward(h, monitor=monitor, mode=bcm_mode)
            else:
                h = layer.forward(h, monitor=monitor)
        return h

    def forward(
        self,
        x_float: np.ndarray,
        *,
        monitor: Optional[OverflowMonitor] = None,
        bcm_mode: Optional[str] = None,
    ) -> np.ndarray:
        """Integer inference returning float logits (dequantized).

        Memoized: the runtimes of one model (Figure 7's five, a sweep's
        cells) ask for the same batch again and again, and their integer
        outputs are identical.  The memo keys on ``bcm_mode`` and the
        shape and bytes of the input as float64, holds the last
        ``LOGITS_MEMO_SIZE`` batches, and keeps the overflow records the
        forward made; a hit replays them into ``monitor`` (or
        :attr:`monitor`), so overflow counts match an unmemoized run
        exactly.  Every call returns a fresh array.  :meth:`forward_raw`
        and :meth:`predict` are not memoized.
        """
        monitor = monitor if monitor is not None else self.monitor
        # Keyed on the float64 array forward_raw would see: inputs that
        # convert to the same bits give the same logits.
        x = np.asarray(x_float, dtype=np.float64)
        digest = hashlib.blake2b(np.ascontiguousarray(x).data,
                                 digest_size=16).digest()
        key = (bcm_mode, x.shape, digest)
        hit = self._memo.get(key)
        if hit is not None:
            logits, calls = hit
            _replay(calls, monitor)
            return logits.copy()
        logits, calls = self._forward(x, monitor, bcm_mode)
        kept = logits.copy()
        kept.flags.writeable = False
        self._memo.put(key, (kept, calls))
        return logits

    def _forward(self, x, monitor: OverflowMonitor,
                 bcm_mode: Optional[str]) -> Tuple[np.ndarray, tuple]:
        """Unmemoized :meth:`forward`: ``(logits, its monitor records)``.

        The records reach ``monitor`` even when the forward raises, as
        they would have without the recorder in between.
        """
        recorder = _RecordingMonitor()
        try:
            raw = self.forward_raw(x, monitor=recorder, bcm_mode=bcm_mode)
        finally:
            _replay(recorder.calls, monitor)
        out_frac = self.layers[-1].out_frac if hasattr(self.layers[-1], "out_frac") else 15
        return raw.astype(np.float64) / (1 << out_frac), tuple(recorder.calls)

    def predict(self, x_float: np.ndarray, **kwargs) -> np.ndarray:
        """Argmax class predictions, 128 samples per forward."""
        preds = []
        for start in range(0, len(x_float), 128):
            logits = self.forward_raw(x_float[start : start + 128], **kwargs)
            preds.append(np.argmax(logits, axis=1))
        return np.concatenate(preds) if preds else np.empty(0, dtype=int)

    @property
    def weight_bytes(self) -> int:
        """On-device FRAM footprint of all weights (int16 + int32 biases)."""
        total = 0
        for layer in self.layers:
            if isinstance(layer, QuantConv):
                # Fully-zero (pruned) filters are not stored.
                kept = layer.weight.shape[0] - layer.pruned_filters
                per_filter = int(np.prod(layer.weight.shape[1:]))
                total += kept * per_filter * 2 + kept * 4
            elif isinstance(layer, QuantDense):
                total += layer.weight.size * 2 + layer.bias.size * 4
            elif isinstance(layer, QuantBCM):
                total += (layer.spec_re.size + layer.spec_im.size) * 2
                total += layer.bias.size * 4
        return total


def quantize_model(
    model: Sequential,
    input_shape: Sequence[int],
    x_calib: np.ndarray,
    *,
    headroom: float = 1.25,
    bcm_mode: str = "stage",
    name: Optional[str] = None,
) -> QuantizedModel:
    """Convert a trained float model to 16-bit fixed point.

    ``x_calib`` is a representative batch used to pick per-layer activation
    grids.  Raises :class:`QuantizationError` for unsupported layers.
    """
    if bcm_mode not in BCM_MODES:
        raise ConfigurationError(f"bcm_mode must be one of {BCM_MODES}")
    input_shape = tuple(int(d) for d in input_shape)
    peaks = layer_output_peaks(model, x_calib)
    input_peak = float(np.max(np.abs(x_calib)))
    in_frac = best_frac_bits(np.array([input_peak * headroom]))

    qlayers: List[QuantLayer] = []
    shape = input_shape
    cur_frac = in_frac
    for idx, layer in enumerate(model.layers):
        out_shape = tuple(layer.output_shape(shape))
        out_frac = best_frac_bits(np.array([peaks[idx] * headroom]))
        if isinstance(layer, Conv2D):
            w_raw, w_frac = _quant_weights(layer.weight.data)
            bias = np.rint(
                layer.bias.data * (1 << (cur_frac + w_frac))
            ).astype(np.int64)
            pruned = int(
                np.sum(~np.any(layer.weight.data.reshape(layer.out_channels, -1)
                               != 0.0, axis=1))
            )
            qlayers.append(
                QuantConv(
                    weight=w_raw,
                    bias=np.clip(bias, -(2 ** 31), 2 ** 31 - 1).astype(np.int32),
                    w_frac=w_frac,
                    in_frac=cur_frac,
                    out_frac=out_frac,
                    stride=layer.stride,
                    in_shape=shape,
                    out_shape=out_shape,
                    pruned_filters=pruned,
                )
            )
            cur_frac = out_frac
        elif isinstance(layer, BCMDense):
            # Shared with the float forwards: same cache, same bits.
            spectra = weight_spectra(layer.weight.data)
            peak = float(
                max(np.max(np.abs(spectra.real)), np.max(np.abs(spectra.imag)), 1e-12)
            )
            w_exp = 0
            while peak >= (1 << w_exp):
                w_exp += 1
            scale = 1 << (15 - w_exp)
            spec_re = saturate16(np.rint(spectra.real * scale))
            spec_im = saturate16(np.rint(spectra.imag * scale))
            bias = np.rint(layer.bias.data * (1 << out_frac)).astype(np.int64)
            qlayers.append(
                QuantBCM(
                    spec_re=spec_re,
                    spec_im=spec_im,
                    w_exp=w_exp,
                    bias=np.clip(bias, -(2 ** 31), 2 ** 31 - 1).astype(np.int32),
                    in_frac=cur_frac,
                    out_frac=out_frac,
                    block_size=layer.block_size,
                    in_shape=shape,
                    out_shape=out_shape,
                    mode=bcm_mode,
                )
            )
            cur_frac = out_frac
        elif isinstance(layer, (Dense, CosineDense)):
            if isinstance(layer, CosineDense):
                # Fold the cosine normalization into effective weights using
                # the calibration-mean input norm (constant-scale
                # approximation; documented in DESIGN.md).
                x_norms = _calib_norm_before(model, idx, x_calib)
                w = layer.weight.data
                w_norm = np.linalg.norm(w, axis=1, keepdims=True) + 1e-8
                eff_w = layer.gain.data[:, None] * w / (w_norm * x_norms)
                eff_b = np.zeros(layer.out_features)
            else:
                eff_w = layer.weight.data
                eff_b = layer.bias.data
            w_raw, w_frac = _quant_weights(eff_w)
            bias = np.rint(eff_b * (1 << (cur_frac + w_frac))).astype(np.int64)
            qlayers.append(
                QuantDense(
                    weight=w_raw,
                    bias=np.clip(bias, -(2 ** 31), 2 ** 31 - 1).astype(np.int32),
                    w_frac=w_frac,
                    in_frac=cur_frac,
                    out_frac=out_frac,
                    in_shape=shape,
                    out_shape=out_shape,
                )
            )
            cur_frac = out_frac
        elif isinstance(layer, ReLU):
            qlayers.append(QuantReLU(in_shape=shape, out_shape=out_shape))
        elif isinstance(layer, MaxPool2D):
            qlayers.append(
                QuantPool(pool_size=layer.pool_size, in_shape=shape, out_shape=out_shape)
            )
        elif isinstance(layer, Flatten):
            qlayers.append(QuantFlatten(in_shape=shape, out_shape=out_shape))
        elif isinstance(layer, HardClip):
            # Saturation is inherent to the integer grid; no-op on device.
            pass
        else:
            raise QuantizationError(
                f"layer {type(layer).__name__} is not supported on device"
            )
        shape = out_shape

    return QuantizedModel(
        layers=qlayers,
        input_frac=in_frac,
        input_shape=input_shape,
        num_classes=int(np.prod(shape)),
        name=name or getattr(model, "name", "quantized"),
    )


def _calib_norm_before(model: Sequential, layer_idx: int, x_calib: np.ndarray) -> float:
    """Mean input L2 norm arriving at ``layer_idx`` on the calibration set."""
    h = np.asarray(x_calib, dtype=np.float64)
    for layer in model.layers[:layer_idx]:
        h = layer.forward(h)
    return float(np.mean(np.linalg.norm(h.reshape(len(h), -1), axis=1))) + 1e-8
