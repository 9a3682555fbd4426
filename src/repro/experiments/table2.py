"""Table II: model structures, compression settings, and accuracies.

The ``table2`` study runs the full RAD pipeline (train -> ADMM prune ->
normalize -> quantize) per task and reports the layer inventory,
per-layer compression, and the float/quantized accuracies.  The paper
reports 99% / 89% / 82% on real MNIST / HAR / OKG; the synthetic
stand-ins land in comparable bands.
"""

#: Accuracies printed in the paper's Table II.
PAPER_ACCURACY = {"mnist": 0.99, "har": 0.89, "okg": 0.82}
