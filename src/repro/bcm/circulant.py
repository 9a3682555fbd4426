"""Circulant-matrix algebra underlying BCM compression.

A circulant matrix is fully determined by its first column ``c``:
``C[i, j] = c[(i - j) mod k]``, and ``C @ x`` equals the circular
convolution ``c (*) x``, computable in ``O(k log k)`` via the FFT.
:func:`bcm_matvec` is that float-domain product for a whole block grid;
:func:`bcm_to_dense` materializes the dense matrix it stands for, the
oracle the BCM products are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.spectra import weight_spectra


def bcm_to_dense(weights: np.ndarray) -> np.ndarray:
    """Expand BCM first-column weights ``(p, q, k)`` to the dense matrix."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 3:
        raise ConfigurationError("BCM weights must be (p, q, k)")
    p, q, k = w.shape
    full = np.zeros((p * k, q * k))
    idx = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
    for i in range(p):
        for j in range(q):
            full[i * k : (i + 1) * k, j * k : (j + 1) * k] = w[i, j][idx]
    return full


def bcm_matvec(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Block-circulant matrix-vector product via FFT.

    ``weights`` is ``(p, q, k)``; ``x`` is ``(..., q*k)``; the result is
    ``(..., p*k)``.
    """
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    p, q, k = w.shape
    if x.shape[-1] != q * k:
        raise ConfigurationError(
            f"input length {x.shape[-1]} != q*k = {q * k}"
        )
    xb = x.reshape(x.shape[:-1] + (q, k))
    # weight_spectra memoizes FFT(w) on array contents — repeated matvecs
    # against the same weights skip the weight transform entirely.
    fy = np.einsum("pqk,...qk->...pk", weight_spectra(w), np.fft.fft(xb, axis=-1))
    return np.fft.ifft(fy, axis=-1).real.reshape(x.shape[:-1] + (p * k,))
