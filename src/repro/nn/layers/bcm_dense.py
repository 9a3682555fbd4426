"""Block-circulant fully connected layer (the heart of RAD's compression).

A ``BCMDense`` partitions the dense weight matrix ``W (out x in)`` into a
``p x q`` grid of ``k x k`` circulant blocks (``p = out/k``, ``q = in/k``).
Each block is fully described by its first column ``w_pq`` (``k`` numbers
instead of ``k**2``), giving a ``k``-fold parameter reduction, and the
block matrix-vector product becomes FFT -> elementwise multiply -> IFFT
(CirCNN, MICRO'17), which is exactly what the LEA accelerator executes on
device (ACE Algorithm 1).

Convention: block ``W_pq`` is the circulant matrix with first *column*
``w_pq``, i.e. ``W_pq[i, j] = w_pq[(i - j) mod k]``, so ``W_pq @ x``
is the circular convolution ``w_pq (*) x = ifft(fft(w_pq) * fft(x))``.

Training runs in float with ``numpy.fft``; gradients are the standard
frequency-domain adjoints (verified by numerical gradient checks).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.spectra import weight_spectra
from repro.nn.initializers import circulant_spectral, zeros
from repro.nn.module import Layer, Parameter


class BCMDense(Layer):
    """FFT-based block-circulant dense layer: ``(N, in) -> (N, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        block_size: int,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("BCMDense dimensions must be positive")
        if block_size <= 0 or (block_size & (block_size - 1)) != 0:
            raise ConfigurationError(
                f"block_size must be a power of two (LEA FFT), got {block_size}"
            )
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.block_size = block_size
        # Non-divisible dimensions are zero-padded to whole blocks
        # (CirCNN's convention); padded outputs are sliced away.
        self.p = -(-out_features // block_size)
        self.q = -(-in_features // block_size)
        self.in_padded = self.q * block_size
        self.out_padded = self.p * block_size
        self.weight = Parameter(
            circulant_spectral(rng, self.p, self.q, block_size), name="bcm.weight"
        )
        self.bias = Parameter(zeros(out_features), name="bcm.bias")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"BCMDense expects (N, {self.in_features}), got {x.shape}"
            )
        n = x.shape[0]
        k = self.block_size
        if self.in_padded != self.in_features:
            x = np.concatenate(
                [x, np.zeros((n, self.in_padded - self.in_features))], axis=1
            )
        xb = x.reshape(n, self.q, k)
        fx = np.fft.fft(xb, axis=-1)  # (N, q, k)
        # Content-addressed cache: hits while weights are frozen
        # (inference), recomputes after every optimizer step (training).
        fw = weight_spectra(self.weight.data)  # (p, q, k)
        fy = np.einsum("pqk,nqk->npk", fw, fx)  # (N, p, k)
        y = np.fft.ifft(fy, axis=-1).real.reshape(n, self.out_padded)
        y = y[:, : self.out_features]
        y = y + self.bias.data
        self._cache = (fx, fw, n)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigurationError("backward called before forward")
        fx, fw, n = self._cache
        k = self.block_size
        gy = np.asarray(grad_out, dtype=np.float64)
        if self.out_padded != self.out_features:
            gy = np.concatenate(
                [gy, np.zeros((n, self.out_padded - self.out_features))], axis=1
            )
        gy = gy.reshape(n, self.p, k)
        fgy = np.fft.fft(gy, axis=-1)  # (N, p, k)
        # grad_w[p,q] = ifft(conj(fft(x_q)) * fft(dy_p)) summed over batch.
        fgw = np.einsum("nqk,npk->pqk", np.conj(fx), fgy)
        self.weight.grad += np.fft.ifft(fgw, axis=-1).real
        self.weight.apply_mask()
        self.bias.grad += grad_out.sum(axis=0)
        # grad_x[q] = ifft(conj(fft(w_pq)) * fft(dy_p)) summed over p.
        fgx = np.einsum("pqk,npk->nqk", np.conj(fw), fgy)
        grad_x = np.fft.ifft(fgx, axis=-1).real
        return grad_x.reshape(n, self.in_padded)[:, : self.in_features]

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        return (self.out_features,)

    def __repr__(self) -> str:
        return (
            f"BCMDense({self.in_features} -> {self.out_features}, "
            f"block={self.block_size})"
        )
