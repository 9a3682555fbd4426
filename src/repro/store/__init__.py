"""Durable result storage: no run ever loses finished work.

Everything above :mod:`repro.fleet` used to hold results in memory until
the very end — one raising scenario, or a ``kill -9`` three hours into a
grid, discarded every finished cell.  This package is the durability
layer underneath streaming fleet execution:

* :mod:`repro.store.shards` — :class:`ShardStore`, an appendable,
  sharded on-disk :class:`~repro.study.table.ResultTable` store (NPZ
  shards + an atomic JSON manifest, bit-identical round trips,
  self-verifying recovery from a torn final shard);
* :mod:`repro.store.cache` — :class:`ResultStore`, the content-addressed
  per-scenario result cache (BLAKE2b over the frozen scenario + the
  version of the simulated bits, the :mod:`repro.kernels.spectra` keying
  idiom; the engine is not an input) plus the
  finished-table archive, with hit/miss counters;
* :mod:`repro.store.records` — the lossless
  :class:`~repro.fleet.report.ScenarioResult` JSON codec a bit-identical
  resume is built on.

``repro run <study> --out DIR`` streams scenario results into a store as
they finish; a re-run with ``--resume`` replays only the missing cells
and reassembles a table bit-identical to an uninterrupted run.
"""

from repro.store.cache import (
    RESULT_COLUMNS,
    EncodedResult,
    ResultStore,
    encode_record,
    scenario_key,
    study_table_key,
)
from repro.store.records import RECORD_FORMAT, decode_result, encode_result
from repro.store.shards import MANIFEST_FORMAT, MANIFEST_NAME, ShardStore

__all__ = [
    "EncodedResult",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "RECORD_FORMAT",
    "RESULT_COLUMNS",
    "ResultStore",
    "ShardStore",
    "decode_result",
    "encode_record",
    "encode_result",
    "scenario_key",
    "study_table_key",
]
