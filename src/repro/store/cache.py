"""Content-addressed result caching over the sharded store.

Keys follow the :mod:`repro.kernels.spectra` idiom — a BLAKE2b digest of
*content*, not identity.  Here the content is the frozen simulation
spec: the full :class:`~repro.fleet.scenario.Scenario` dataclass (trace
spec included) and :data:`repro.SIM_SEMANTICS`, the version of the
simulated bits.  Two runs that would produce bit-identical results by
the fleet determinism contract therefore share a key; anything that
could change a single output bit — a different seed, capacitor, trace
parameter, or simulation semantics — changes the key and misses.  The
engine is not an input: both engines compute the same bits (the fastsim
conformance suite and the scenario fuzz pin it), so it is an execution
option like ``workers``, and a result one engine stored is a hit for
the other.

:class:`ResultStore` is the durable root directory a study run writes
into (``repro run <study> --out DIR``)::

    <root>/
      manifest.json, shards/     # ShardStore of scenario result records
      tables/<key>.npz           # finished study tables, content-addressed

Scenario records stream into shards *as scenarios finish*; finished
study tables are published atomically at the end of a clean run.  Failed
scenarios are recorded in reports but never cached — a failure must be
retried on the next run, not replayed forever.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from repro import SIM_SEMANTICS
from repro.concurrency import ForkSafeLock
from repro.errors import ConfigurationError
from repro.fleet.report import ScenarioResult
from repro.obs import metrics as _obs
from repro.fleet.scenario import Scenario
from repro.store.records import RECORD_FORMAT, encode_result
from repro.store.shards import ShardStore
from repro.study.table import ResultTable

#: Schema of the scenario-result record shards.
RESULT_COLUMNS = (
    ("key", "str"),
    ("scenario", "str"),
    ("payload", "str"),
)

TABLE_DIR = "tables"


def _digest(payload: object) -> str:
    """BLAKE2b-128 hex over a canonical JSON encoding of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def scenario_key(scenario: Scenario, *, semantics: int = SIM_SEMANTICS) -> str:
    """Content address of one scenario's result.

    Pure function of the frozen spec: the same scenario yields the same
    key in any process on any host, which is what lets a killed run's
    shards be claimed by a fresh process.  Floats serialize via their
    shortest round-trip ``repr``, so ulp-different specs get distinct
    keys.  The scenario ``name`` is *excluded* — it is a display label,
    not simulation input, so renaming a grid cell still hits.
    """
    spec = dataclasses.asdict(scenario)
    spec.pop("name")
    return _digest({
        "kind": "scenario-result",
        "format": RECORD_FORMAT,
        "scenario": spec,
        "semantics": semantics,
    })


class EncodedResult(NamedTuple):
    """A scenario result as :meth:`ResultStore.put` records it."""

    #: The scenario's display name (the record's ``scenario`` column).
    scenario: str
    #: :func:`~repro.store.records.encode_result` of the result.
    payload: str


def encode_record(result: ScenarioResult) -> EncodedResult:
    """Encode ``result`` for :meth:`ResultStore.put`.

    Failed results are refused: caching a failure would serve it as a hit
    forever instead of retrying the scenario.  A process that is not the
    store's writer (a :mod:`repro.serve` worker) encodes here and ships
    the record, so the writer only appends it.
    """
    if result.error:
        raise ConfigurationError(
            f"refusing to cache failed scenario {result.scenario.name!r}: "
            f"{result.error}"
        )
    return EncodedResult(result.scenario.name, encode_result(result))


def study_table_key(study: str, profile) -> str:
    """Content address of a finished study table (any study shape)."""
    return _digest({
        "kind": "study-table",
        "format": RECORD_FORMAT,
        "study": study,
        "profile": dataclasses.asdict(profile),
        "semantics": SIM_SEMANTICS,
    })


class ResultStore:
    """Durable scenario-result cache + finished-table archive at ``root``.

    Opening is creation-or-resume: an existing store is verified
    (torn-tail recovery included, see :class:`~repro.store.shards.
    ShardStore`) and its committed records become the lookup index; a
    fresh directory starts empty.  ``hits``/``misses`` count
    :meth:`lookup` outcomes, ``table_hits``/``table_misses`` count
    :meth:`load_table` outcomes — the observability the resume tests and
    ``repro run --out`` reporting are built on.
    """

    def __init__(self, root, *, shard_rows: int = 256) -> None:
        self.root = Path(root)
        self._shards = ShardStore(
            self.root,
            RESULT_COLUMNS,
            meta={"kind": "scenario-results"},
            shard_rows=shard_rows,
        )
        self._index: Dict[str, str] = {}
        for row in self._shards.iter_rows():
            # Last write wins; identical keys hold identical payloads by
            # construction (content addressing), so order is cosmetic.
            self._index[row["key"]] = row["payload"]
        self.hits = 0
        self.misses = 0
        self.table_hits = 0
        self.table_misses = 0
        # Guards the in-memory index and the counters; the ShardStore
        # has its own lock for the disk side.  RLock because put() holds
        # it across an append that may flush (spans re-enter via obs).
        self._lock = ForkSafeLock(rlock=True)

    # -- scenario records -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    @property
    def recovered_shards(self):
        """Shard names dropped by torn-tail recovery when opening."""
        return tuple(self._shards.recovered)

    def lookup(
        self, keys: Union[str, Sequence[str]]
    ) -> Union[Optional[str], List[Optional[str]]]:
        """The stored payload for a key, counting hit or miss.

        Given a sequence of keys instead, the list of their payloads
        (``None`` for each miss), all under one lock: one call per fleet
        run, which a :mod:`repro.serve` worker makes as one round trip.
        """
        batch = [keys] if isinstance(keys, str) else keys
        with self._lock:
            payloads = [self._index.get(key) for key in batch]
            hits = sum(payload is not None for payload in payloads)
            self.hits += hits
            self.misses += len(payloads) - hits
        if _obs.ENABLED:
            if hits:
                _obs.count("store.scenario.hits", hits)
            if len(payloads) > hits:
                _obs.count("store.scenario.misses", len(payloads) - hits)
        return payloads[0] if isinstance(keys, str) else payloads

    def put(
        self, key: str, result: Union[ScenarioResult, EncodedResult]
    ) -> None:
        """Record one finished scenario (buffered; see :meth:`flush`).

        ``result`` is a :class:`ScenarioResult`, encoded here by
        :func:`encode_record` (which refuses failed results), or a record
        that function already made.  Thread-safe: concurrent puts of the
        same key write one record (the index check and append are atomic).
        """
        record = (result if isinstance(result, EncodedResult)
                  else encode_record(result))
        with self._lock:
            if key in self._index:
                return
            self._shards.append(
                key=key,
                scenario=record.scenario,
                payload=record.payload,
            )
            self._index[key] = record.payload
            if _obs.ENABLED:
                _obs.count("store.puts")

    def flush(self) -> None:
        """Commit buffered records as a shard (durable after this call)."""
        self._shards.flush()

    # -- finished study tables ------------------------------------------------

    def _table_path(self, key: str) -> Path:
        return self.root / TABLE_DIR / f"{key}.npz"

    def load_table(self, key: str) -> Optional[ResultTable]:
        """The finished table stored under ``key``, or ``None``."""
        path = self._table_path(key)
        if not path.is_file():
            with self._lock:
                self.table_misses += 1
            if _obs.ENABLED:
                _obs.count("store.table.misses")
            return None
        with self._lock:
            self.table_hits += 1
        if _obs.ENABLED:
            _obs.count("store.table.hits")
        return ResultTable.from_npz(str(path))

    def save_table(self, key: str, table: ResultTable) -> None:
        """Atomically publish a finished study table under ``key``."""
        path = self._table_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            table.to_npz(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> str:
        parts = [
            f"result store {self.root}: {len(self)} scenario results "
            f"({self._shards.shards} shards)",
            f"scenario cache {self.hits} hits / {self.misses} misses",
            f"table cache {self.table_hits} hits / "
            f"{self.table_misses} misses",
        ]
        if self.recovered_shards:
            parts.append(
                f"recovered from torn shard(s): "
                f"{', '.join(self.recovered_shards)}"
            )
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r}, {len(self)} results)"
