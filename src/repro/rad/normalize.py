"""RAD normalization: keeping every intermediate inside a representable
fixed-point range (Section III-A, "Normalization").

Two complementary mechanisms are provided:

* :func:`layer_output_peaks` — run a calibration batch through the float
  model and record the peak magnitude after every layer, from which
  :func:`repro.rad.quantize.quantize_model` derives the per-layer
  activation fixed-point format (the exponent each on-device buffer
  uses).  This is the function-preserving analogue of the paper's
  "normalize data into [-1, 1]" step: instead of rescaling values, each
  layer's grid is chosen so its observed range maps into [-1, 1).
* :func:`equalize_ranges` — optional weight rescaling for ReLU networks:
  scale layer ``i``'s weights down by ``s`` and layer ``i+1``'s up by ``s``
  (ReLU and max-pool are positively homogeneous, so the function is
  unchanged) until every layer's calibration peak is below 1.  This
  mirrors the paper's training-time normalization, and measurably reduces
  the saturation count of the 16-bit kernels.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import BCMDense, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential


def layer_output_peaks(model: Sequential, x_calib: np.ndarray) -> List[float]:
    """Peak ``|activation|`` after every layer for the calibration batch."""
    if len(x_calib) == 0:
        raise ConfigurationError("calibration batch is empty")
    peaks = []
    h = np.asarray(x_calib, dtype=np.float64)
    for layer in model.layers:
        h = layer.forward(h)
        peaks.append(float(np.max(np.abs(h))) if h.size else 0.0)
    return peaks


_HOMOGENEOUS = (ReLU, MaxPool2D, Flatten)
_SCALABLE = (Conv2D, Dense, BCMDense)


def equalize_ranges(model: Sequential, x_calib: np.ndarray) -> Dict[int, float]:
    """Rescale consecutive weight layers so activation peaks approach 1,
    in at most four passes, without changing the network function.

    Only applies between scalable layers separated by positively
    homogeneous layers (ReLU / max-pool / flatten).  The final layer is
    never scaled up (logit scale is irrelevant to argmax but the paper's
    device kernels still bound it via calibration).  Returns the cumulative
    scale applied per layer index.
    """
    applied: Dict[int, float] = {}
    scalable_idx = [
        i for i, layer in enumerate(model.layers) if isinstance(layer, _SCALABLE)
    ]
    for _ in range(4):
        peaks = layer_output_peaks(model, x_calib)
        changed = False
        for pos, i in enumerate(scalable_idx[:-1]):
            j = scalable_idx[pos + 1]
            between = model.layers[i + 1 : j]
            if not all(isinstance(b, _HOMOGENEOUS) for b in between):
                continue
            peak = peaks[i]
            if peak <= 1.0:
                continue
            s = 1.0 / peak
            _scale_layer(model.layers[i], s)
            _scale_layer_inverse(model.layers[j], s)
            applied[i] = applied.get(i, 1.0) * s
            applied[j] = applied.get(j, 1.0) / s
            changed = True
        if not changed:
            break
    return applied


def _scale_layer(layer, s: float) -> None:
    layer.weight.data *= s
    if getattr(layer, "bias", None) is not None:
        layer.bias.data *= s


def _scale_layer_inverse(layer, s: float) -> None:
    # Compensate downstream: weights divide by s; bias is unaffected
    # because it is added after the (rescaled) matmul of rescaled inputs.
    layer.weight.data /= s
