#!/usr/bin/env python3
"""Audio scenario: always-on keyword spotting with aggressive BCM
compression.

The OKG model compresses three FC layers (256x / 128x / 64x), which is
what makes a ~1.8M-weight dense network fit a 256 KB FRAM.  This example
shows the compression/accuracy/latency trade-off directly:

* trains the OKG model with the paper's block sizes and with weaker
  compression;
* reports weights / accuracy / on-device latency for each setting
  (the Figure 8 trade-off at whole-model scale).

Run:  python examples/keyword_spotting.py
"""

import numpy as np

from repro.datasets import KEYWORDS, make_okg
from repro.errors import ResourceExceededError
from repro.experiments import run_inference
from repro.nn.data import train_test_split
from repro.rad import RADConfig, run_rad
from repro.rad.resources import DeviceBudget, analyze
from repro.rad.zoo import INPUT_SHAPES, build_model


def main() -> None:
    ds = make_okg(720, seed=2)
    train, test = train_test_split(
        ds.x, ds.y, ds.num_classes, rng=np.random.default_rng(2), name="okg"
    )
    budget = DeviceBudget()

    # The dense backbone does not even fit the device.
    dense_resources = analyze(build_model("okg", None), INPUT_SHAPES["okg"])
    print(f"dense OKG backbone: {dense_resources.weight_bytes} B of weights "
          f"-> fits FRAM budget ({budget.usable_fram} B)? "
          f"{dense_resources.fits(budget)}")

    settings = {
        "paper (256/128/64)": (256, 128, 64),
        "moderate (64/64/64)": (64, 64, 64),
        "light (16/16/16)": (16, 16, 16),
    }
    print(f"\n{'setting':>22} | {'weights':>9} | {'accuracy':>8} | "
          f"{'latency':>9} | energy")
    for label, blocks in settings.items():
        config = RADConfig(task="okg", bcm_blocks=blocks, epochs=8, seed=2)
        try:
            result = run_rad(config, train, test)
        except ResourceExceededError as exc:
            print(f"{label:>22} | {'rejected by RAD resource check: ' + str(exc)}")
            continue
        run = run_inference("ACE+FLEX", result.quantized, test.x[0])
        print(f"{label:>22} | {result.quantized.weight_bytes:7d} B | "
              f"{result.quantized_accuracy:7.1%} | "
              f"{run.wall_time_s * 1e3:7.1f}ms | {run.energy_j * 1e3:.3f} mJ")

    print("\nKeywords:", ", ".join(KEYWORDS))
    print("Larger blocks compress more and run faster; the limit is "
          "accuracy degradation and the LEA's maximum FFT length "
          "(Section IV-A.4 of the paper).")


if __name__ == "__main__":
    main()
