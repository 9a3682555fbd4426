"""Per-layer plans for the quantized BCM forward (ACE Algorithm 1).

``QuantBCM.forward`` is the hottest kernel in the repo: every completed
inference of every compressed runtime runs FFT -> spectral multiply ->
IFFT per BCM layer.  The legacy implementation re-cast the stored weight
spectra to int64 on every call and allocated a fresh ``(N, p, q, k)``
product tensor per batch.  A :class:`BCMPlan` fixes both:

* the weight spectra are sign-folded once into an ``(c, t, k, 1, p, q)``
  int32 tensor (``c`` = input component, ``t`` = output component), so
  the complex multiply is one broadcast multiply plus one add;
* the whole chain runs in the :class:`~repro.kernels.fftplan.FFTPlan`
  internal batch-last layout — the spectral product consumes the forward
  FFT's workspace directly and produces the inverse FFT's input layout,
  eliminating every transpose between the three steps;
* product/accumulator scratch is preallocated per batch size (int32:
  every intermediate is proven to fit, see the width notes inline).

Bit-identity: value-for-value equal to ``QuantBCM.forward_reference`` in
all three ``bcm_mode`` settings, including ``OverflowMonitor`` end
states.  Plans are cached per layer *identity* (``id``-keyed, evicted by
a weakref finalizer); a quantized layer is treated as immutable once
built, which is the same purity contract the program cache relies on.  Plans are never
pickled — fleet workers rebuild them lazily on first forward.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.concurrency import ForkSafeLock
from repro.errors import ConfigurationError
from repro.obs import metrics as _obs
from repro.obs import spans as _spans
from repro.fixedpoint.overflow import OverflowMonitor
from repro.fixedpoint.q15 import INT16_MAX, INT16_MIN, saturate16
from repro.kernels.fftplan import FFTPlan, _clip, get_fft_plan, record_out_of_range

BCM_MODES = ("stage", "prescale", "none")


class BCMPlan:
    """Fused, planned forward for one ``QuantBCM`` layer.

    Copies every field it needs out of the layer (a plan must not keep the
    layer alive — the cache's weakref finalizer is what evicts it).
    """

    __slots__ = (
        "p", "q", "k", "log2k", "s_q", "w_exp", "in_frac", "out_frac",
        "default_mode", "bias", "bias_size", "W", "fftplan", "_scratch",
    )

    def __init__(self, layer) -> None:
        k = int(layer.block_size)
        self.k = k
        self.log2k = k.bit_length() - 1
        self.p = int(layer.spec_re.shape[0])
        self.q = int(layer.spec_re.shape[1])
        self.s_q = max(0, (self.q - 1).bit_length())
        self.w_exp = int(layer.w_exp)
        self.in_frac = int(layer.in_frac)
        self.out_frac = int(layer.out_frac)
        self.default_mode = layer.mode
        self.bias = layer.bias.astype(np.int64)
        self.bias_size = int(layer.bias.size)
        # Sign-folded spectra in the fused layout (c, t, k, p, q, 1):
        # T[t] = sum_c X[c] * W[c, t] reproduces the reference's complex
        # multiply (re*wre - im*wim, re*wim + im*wre).  The trailing axis
        # broadcasts over the batch, which stays innermost end to end.
        wre = np.moveaxis(layer.spec_re.astype(np.int32), -1, 0)  # (k, p, q)
        wim = np.moveaxis(layer.spec_im.astype(np.int32), -1, 0)
        self.W = np.ascontiguousarray(
            np.stack([np.stack([wre, wim]), np.stack([-wim, wre])])[..., None]
        )
        self.fftplan: FFTPlan = get_fft_plan(k)
        # (thread ident, batch) -> scratch tuple; see _buffers().
        self._scratch: Dict[tuple, Tuple[np.ndarray, ...]] = {}

    def _buffers(self, n: int):
        # Keyed by thread as well as batch size: the buffers are mutable
        # scratch, and concurrent service threads running forwards
        # through the same plan must never share them (same contract as
        # FFTPlan.workspace).
        key = (threading.get_ident(), n)
        bufs = self._scratch.get(key)
        if bufs is None:
            if len(self._scratch) >= 8:
                self._scratch.clear()
            p, q, k = self.p, self.q, self.k
            P = np.empty((2, 2, k, p, q, n), np.int32)
            T = np.empty((2, k, p, q, n), np.int32)
            ACC = np.empty((2, k, p, n), np.int32)
            # Weights pre-expanded over the batch: the product multiply
            # then runs contiguous x contiguous -> contiguous.
            WX = np.ascontiguousarray(np.broadcast_to(self.W, P.shape))
            Y = np.empty((n, p, k), np.int64)
            self._scratch[key] = bufs = (P, T, ACC, WX, Y)
        return bufs

    def forward(
        self,
        x: np.ndarray,
        monitor: Optional[OverflowMonitor] = None,
        mode: Optional[str] = None,
    ) -> np.ndarray:
        t0 = time.perf_counter_ns() if _obs.ENABLED else 0
        mode = mode or self.default_mode
        if mode not in BCM_MODES:
            raise ConfigurationError(f"bcm mode must be one of {BCM_MODES}")
        n = x.shape[0]
        k, log2k = self.k, self.log2k
        in_padded = self.q * k
        if x.shape[1] != in_padded:
            pad = np.zeros((n, in_padded - x.shape[1]), dtype=x.dtype)
            x = np.concatenate([x, pad], axis=1)
        # Batch rows ordered (q, n) so the sample axis stays innermost in
        # the spectral product.  FFT rows are independent, so any row
        # ordering yields the same per-row bits.
        xq = x.reshape(n, self.q, k).transpose(2, 1, 0)  # (k, q, n)

        # Forward FFT of the activations, in the plan's internal layout.
        fws = self.fftplan.workspace(n * self.q)
        perm = self.fftplan.perm
        if mode == "prescale":
            # Algorithm 1 lines 3-4: SCALE-DOWN by the vector length.
            pre = (xq.astype(np.int32) + (1 << (log2k - 1))) >> log2k
            fws.X[0].reshape(k, self.q, n)[...] = pre[perm]
            fft_scale = log2k
        else:
            fws.X[0].reshape(k, self.q, n)[...] = xq[perm]
            fft_scale = log2k if mode == "stage" else 0
        fws.X[1].fill(0)
        self.fftplan.run(fws, "stage" if mode == "stage" else "none", monitor)
        FX = fws.X.reshape(2, k, self.q, n)  # (c, k, q, n) int32, int16 range

        # Complex multiply with the stored spectra; shifted q-sum.
        # int32 is exact throughout: |x*w| <= 2**30, the +2**14 rounding
        # term cannot overflow the pairwise int32 sum, and the post-shift
        # values are clipped to int16 range before the q-sum of at most
        # 2**s_q terms.
        P, T, ACC, WX, Y = self._buffers(n)
        np.multiply(FX[:, None, :, None, :, :], WX, out=P)
        np.add(P[0], P[1], out=T)
        T += 1 << 14
        T >>= 15
        if monitor is not None:
            # Combined re+im count at the reference's "bcm_mul" site; P is
            # dead here, so its first half doubles as count scratch.
            record_out_of_range(monitor, "bcm_mul", T, P[0])
        _clip(T, INT16_MIN, INT16_MAX, T)
        if self.s_q:
            T += 1 << (self.s_q - 1)
            T >>= self.s_q
        # q-sum as explicit adds (integer addition is exact in any order;
        # np.sum's reduce machinery is slow for a tiny axis).
        if self.q == 1:
            ACC[...] = T[:, :, :, 0]
        else:
            np.add(T[:, :, :, 0], T[:, :, :, 1], out=ACC)
            for j in range(2, self.q):
                ACC += T[:, :, :, j]
        if monitor is not None:
            record_out_of_range(
                monitor, "bcm_acc", ACC,
                P.reshape(-1)[: ACC.size].reshape(ACC.shape),
            )
        _clip(ACC, INT16_MIN, INT16_MAX, ACC)

        # Block-exponent renormalization (LEA BEXP) before the inverse
        # transform: shift left into the headroom, per sample.
        if mode == "stage":
            A = P.reshape(-1)[: ACC.size].reshape(ACC.shape)  # abs scratch
            np.absolute(ACC, out=A)
            peak = np.maximum(A.max(axis=(0, 1, 2)), 1)
            h = np.maximum(0, 14 - np.floor(np.log2(peak)).astype(np.int64))
            ACC <<= h.astype(np.int32)[None, None, None, :]
        else:
            h = np.zeros(n, dtype=np.int64)

        # Inverse FFT: ACC (c, k, p, n) is already a (p, n)-ordered batch
        # of length-k rows in the internal layout.  Values are
        # int16-ranged (the BEXP shift lands below 2**15 by construction),
        # so loading the int32 rows reproduces the reference's saturate16.
        iws = self.fftplan.workspace(n * self.p)
        iws.X[0][...] = ACC[0].reshape(k, self.p * n)[perm]
        iws.X[1][...] = ACC[1].reshape(k, self.p * n)[perm]
        np.negative(iws.X[1], out=iws.X[1])
        _clip(iws.X[1], INT16_MIN, INT16_MAX, iws.X[1])
        fwd = self.fftplan.run(
            iws, "stage" if mode == "stage" else "none", monitor
        )
        ifft_scale = fwd - log2k
        # The imaginary output is discarded (only the monitor saw it), so
        # the reference's final conjugation is skipped.
        Y[...] = iws.X[0].reshape(k, self.p, n).transpose(2, 1, 0)
        y = Y

        # Land on the out_frac grid (see QuantBCM.forward for the
        # raw-value algebra); h is the per-sample BEXP headroom used.
        up = (
            self.out_frac - self.in_frac + fft_scale + self.w_exp
            + self.s_q + ifft_scale
        )
        shift_left = up - h
        if n == 0 or shift_left.min() >= 0:
            y <<= shift_left[:, None, None]
            out = y
        elif shift_left.max() < 0:
            rs = -shift_left[:, None, None]
            out = (y + (np.int64(1) << (rs - 1))) >> rs
        else:
            out = np.where(
                shift_left[:, None, None] >= 0,
                y << np.maximum(shift_left[:, None, None], 0),
                (y + (np.int64(1) << np.maximum(-shift_left[:, None, None] - 1, 0)))
                >> np.maximum(-shift_left[:, None, None], 0),
            )
        out = out.reshape(n, -1)[:, : self.bias_size]
        out = out + self.bias
        if monitor is not None:
            monitor.check_saturation("bcm_out", out, INT16_MIN, INT16_MAX)
        out16 = saturate16(out)
        if _obs.ENABLED:
            _spans.record("kernels.execute", t0, kind="bcm", n=self.k, batch=n)
        return out16


#: id-keyed plan cache with weakref eviction.
_PLANS: Dict[int, BCMPlan] = {}
#: Guards the build path (double-checked; see repro.concurrency).
_PLANS_LOCK = ForkSafeLock()


def get_bcm_plan(layer) -> BCMPlan:
    """The shared :class:`BCMPlan` for a ``QuantBCM`` layer instance.

    Thread-safe: racing first forwards through one layer build exactly
    one plan (double-checked under the lock); the hit path stays
    lock-free.  Execution through a shared plan is safe because the
    plan's only mutable state, its scratch buffers, is keyed per thread.
    """
    key = id(layer)
    plan = _PLANS.get(key)
    if plan is None:
        with _PLANS_LOCK:
            plan = _PLANS.get(key)
            if plan is not None:
                return plan
            if _obs.ENABLED:
                _obs.count("kernels.bcm_plan.misses")
                with _spans.span(
                    "kernels.plan_build", kind="bcm",
                    n=int(getattr(layer, "block_size", 0)),
                ):
                    plan = BCMPlan(layer)
            else:
                plan = BCMPlan(layer)
            _PLANS[key] = plan
            try:
                weakref.finalize(layer, _PLANS.pop, key, None)
            except TypeError:  # pragma: no cover - non-weakref-able layer
                pass
    elif _obs.ENABLED:
        _obs.count("kernels.bcm_plan.hits")
    return plan


def warm_quantized_model(qmodel) -> int:
    """Prebuild FFT/BCM plans for every BCM layer of a quantized model.

    Called from session setup so the per-sample hot loop never pays
    first-call plan construction; returns the number of plans touched.
    Safe on any model (layers without spectra are skipped).
    """
    count = 0
    for layer in getattr(qmodel, "layers", ()):
        if hasattr(layer, "spec_re") and hasattr(layer, "block_size"):
            get_bcm_plan(layer)
            count += 1
    return count
