"""Figure 8: latency and energy of MNIST's first FC layer versus the BCM
block size (dense / 32 / 64 / 128).

Bigger blocks compress more and shorten the FFT pipeline relative to the
work it replaces, so latency and energy drop monotonically — bounded in
practice by accuracy degradation and LEA buffer limits (Section IV-A.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.ace import AceRuntime
from repro.hw.board import msp430fr5994
from repro.nn import BCMDense, Dense, Sequential
from repro.rad.quantize import quantize_model
from repro.sim import make_machine

#: MNIST first FC layer geometry (Table II).
IN_FEATURES = 256
OUT_FEATURES = 256

#: Variants evaluated in Figure 8 (None = dense ACE without BCM).
BLOCK_SIZES = (None, 32, 64, 128)


@dataclass
class Fig8Point:
    block_size: Optional[int]
    latency_s: float
    energy_j: float
    weight_bytes: int


def run_fig8(*, seed: int = 0,
             engine: str = "reference") -> Dict[Optional[int], Fig8Point]:
    """Measure the isolated FC1 layer under each block size.

    ``engine`` selects the simulation engine (``"reference"``/``"fast"``,
    bit-identical results — see :mod:`repro.sim.fastsim`).
    """
    rng = np.random.default_rng(seed)
    calib = np.random.default_rng(seed + 1).uniform(-0.9, 0.9, (16, IN_FEATURES))
    x = calib[0]
    points: Dict[Optional[int], Fig8Point] = {}
    for block in BLOCK_SIZES:
        if block is None:
            layer = Dense(IN_FEATURES, OUT_FEATURES, rng=rng)
        else:
            layer = BCMDense(IN_FEATURES, OUT_FEATURES, block, rng=rng)
        model = Sequential([layer], name=f"fc1-{block or 'dense'}")
        qmodel = quantize_model(model, (IN_FEATURES,), calib)
        runtime = AceRuntime(qmodel)
        device = msp430fr5994()
        result = make_machine(device, runtime, engine=engine).run(x)
        points[block] = Fig8Point(
            block_size=block,
            latency_s=result.wall_time_s,
            energy_j=result.energy_j,
            weight_bytes=qmodel.weight_bytes,
        )
    return points
