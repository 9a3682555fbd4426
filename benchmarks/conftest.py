"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures through their
registered studies; each prints its table (run pytest with ``-s`` to see
them) and records the headline numbers in ``benchmark.extra_info`` so
they land in the JSON output of
``pytest benchmarks/ --benchmark-only --benchmark-json=...``.
"""

import pytest


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def run_study_once(benchmark, name, **kwargs):
    """Run registered study ``name`` once, print its rendered artifact,
    and return its :class:`~repro.study.table.ResultTable`."""
    from repro.study import run_study

    run = run_once(benchmark, lambda: run_study(name, **kwargs))
    print()
    print(run.render())
    return run.table
