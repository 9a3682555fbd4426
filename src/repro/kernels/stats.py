"""Introspection and reset helpers for the kernel plan caches.

Used by benchmarks (to prove warm-path behaviour), tests (isolation), and
fleet debugging (a worker's cache population shows which plans its
scenarios actually exercised).
"""

from __future__ import annotations

from repro.kernels import bcmplan, fftplan
from repro.kernels.spectra import clear_spectra_cache, spectra_cache_stats


def plan_cache_stats() -> dict:
    """Sizes of every process-local kernel cache."""
    return {
        "fft_plans": len(fftplan._PLANS),
        "fft_workspaces": sum(
            len(p._workspaces) for p in fftplan._PLANS.values()
        ),
        "bcm_plans": len(bcmplan._PLANS),
        "spectra": spectra_cache_stats(),
    }


def clear_plan_caches() -> None:
    """Reset every kernel cache (plans rebuild lazily on next use)."""
    with fftplan._PLANS_LOCK:
        fftplan._PLANS.clear()
    with bcmplan._PLANS_LOCK:
        bcmplan._PLANS.clear()
    clear_spectra_cache()
