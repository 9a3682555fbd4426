"""Kernel plan cache: batched, allocation-free Q15/BCM compute.

The numeric kernels are what bound experiment wall time (see
``benchmarks/bench_kernels.py``): the fixed-point FFT rebuilt twiddle and
bit-reversal tables on every call and walked its stages through a Python
loop full of temporaries, and every quantized BCM forward re-derived
weight constants and allocated fresh scratch per layer per batch.  This
package applies the plan/precompile pattern that already paid off for the
simulator (``repro.sim.fastsim.CompiledProgram``) one level down, at the
kernels themselves:

* :class:`~repro.kernels.fftplan.FFTPlan` — per-length FFT plans holding
  twiddle tables, bit-reversal permutations, and preallocated batch
  workspaces, so ``q15_fft``/``q15_ifft`` do zero per-call table
  construction (FFTW-style plan caching, matching the paper's
  precomputed-twiddle LEA kernels);
* :class:`~repro.kernels.bcmplan.BCMPlan` — per-``QuantBCM``-layer plans
  (sign-folded weight spectra, fused FFT -> multiply -> IFFT chain in the
  plan's internal layout, shared scratch);
* :func:`~repro.kernels.spectra.weight_spectra` — a content-addressed
  cache of float ``FFT(w)`` weight transforms shared by ``BCMDense``
  training forwards, ``bcm_matvec``, and ``quantize_model``.

**Bit-identity contract.**  Every planned kernel produces bit-identical
outputs — and identical :class:`~repro.fixedpoint.overflow.OverflowMonitor`
end states — to the legacy reference implementations, which are kept as
``q15_fft_reference``/``q15_ifft_reference`` and
``QuantBCM.forward_reference`` precisely so the differential conformance
suite (``tests/test_kernels.py``) can keep proving it.  Plans only change
*where* intermediate values live, never what they are.

**Process boundaries.**  Plans live in process-local caches keyed by FFT
length / layer identity and are never pickled; a fleet worker that
receives a model rebuilds its plans lazily on first forward (table
construction is microseconds, amortized over the worker's whole scenario
batch).
"""

from repro.kernels.bcmplan import BCMPlan, get_bcm_plan, warm_quantized_model
from repro.kernels.fftplan import FFTPlan, get_fft_plan
from repro.kernels.spectra import weight_spectra
from repro.kernels.stats import clear_plan_caches, plan_cache_stats

__all__ = [
    "BCMPlan",
    "FFTPlan",
    "clear_plan_caches",
    "get_bcm_plan",
    "get_fft_plan",
    "plan_cache_stats",
    "warm_quantized_model",
    "weight_spectra",
]
