"""Typed, columnar result container for studies.

Every study produces a :class:`ResultTable`: a declared schema of typed
columns plus validated rows.  It replaces the ad-hoc per-driver dicts the
experiment drivers used to return, and it is the payload fleet reporting
is built on (:meth:`repro.fleet.report.FleetReport.scenario_table`).

Design goals, in order:

1. **Lossless serialization.**  ``to_json``/``from_json`` and
   ``to_npz``/``from_npz`` round-trip every cell *bit-identically*
   (floats included: JSON uses Python's shortest-round-trip ``repr``,
   NPZ stores raw ``float64``).  A study result written to disk and read
   back compares equal — asserted in ``tests/test_study.py``.
2. **Typed rows.**  Appending a value a column's dtype cannot represent
   is a :class:`~repro.errors.ConfigurationError` at append time, not a
   surprise at render or serialization time.  ``bool`` is not an ``int``
   here, whatever Python says.
3. **Aggregation primitives.**  ``filter`` / ``group_by`` /
   ``percentile`` / ``mean`` cover what the fleet report and the study
   renderers need without growing a dataframe library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

#: Column dtypes a schema may declare.
DTYPES = ("int", "float", "str", "bool")

_NP_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}


@dataclass(frozen=True)
class Column:
    """One schema entry: a column name and its dtype."""

    name: str
    dtype: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("column needs a non-empty string name")
        if self.dtype not in DTYPES:
            raise ConfigurationError(
                f"unknown column dtype {self.dtype!r} (expected one of {DTYPES})"
            )


ColumnLike = Union[Column, Tuple[str, str], Sequence[str]]


def _as_column(spec: ColumnLike) -> Column:
    if isinstance(spec, Column):
        return spec
    try:
        name, dtype = spec
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"column spec must be a Column or (name, dtype) pair, got {spec!r}"
        )
    return Column(str(name), str(dtype))


def _coerce(value: object, column: Column) -> object:
    """Validate ``value`` against ``column`` and return the stored form."""
    dtype = column.dtype
    if dtype == "bool":
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
    elif dtype == "int":
        if isinstance(value, (int, np.integer)) and not isinstance(
            value, (bool, np.bool_)
        ):
            return int(value)
    elif dtype == "float":
        if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
            value, (bool, np.bool_)
        ):
            return float(value)
    else:  # str
        if isinstance(value, str):
            return str(value)
    raise ConfigurationError(
        f"column {column.name!r} has dtype {dtype!r}, rejecting {value!r} "
        f"of type {type(value).__name__}"
    )


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile of ``values``; 0.0 when empty.

    The single home of the empty-distribution convention (an all-DNF
    fleet cell reports 0.0, not NaN) — :class:`ResultTable` and the
    fleet report both delegate here.
    """
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _cells_equal(a: object, b: object) -> bool:
    """Cell equality with NaN == NaN (needed for round-trip asserts)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return type(a) is type(b) and a == b


class ResultTable:
    """A schema-validated columnar table of study results.

    ``meta`` is a flat ``str -> str`` mapping (study name, titles,
    execution notes) that travels with the rows through every
    serialization format.  Keep volatile values (wall-clock timings,
    host names) out of it: studies promise that the same spec produces
    the same table, bytes included.
    """

    def __init__(
        self,
        columns: Sequence[ColumnLike],
        *,
        meta: Optional[Dict[str, str]] = None,
    ) -> None:
        cols = tuple(_as_column(c) for c in columns)
        if not cols:
            raise ConfigurationError("a ResultTable needs at least one column")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate column names in {names}")
        self._columns = cols
        self._index = {c.name: i for i, c in enumerate(cols)}
        self._rows: List[Tuple] = []
        self.meta: Dict[str, str] = {}
        for key, value in (meta or {}).items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ConfigurationError(
                    f"meta must map str to str, got {key!r}: {value!r}"
                )
            self.meta[key] = value

    # -- schema ---------------------------------------------------------------

    @property
    def schema(self) -> Tuple[Column, ...]:
        return self._columns

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    def _column(self, name: str) -> Column:
        if name not in self._index:
            raise ConfigurationError(
                f"no column {name!r} (have {list(self.column_names)})"
            )
        return self._columns[self._index[name]]

    # -- row access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        for row in self._rows:
            yield dict(zip(self.column_names, row))

    def row(self, i: int) -> Dict[str, object]:
        return dict(zip(self.column_names, self._rows[i]))

    def rows(self) -> List[Dict[str, object]]:
        return list(self)

    def column(self, name: str) -> List[object]:
        i = self._index[self._column(name).name]
        return [row[i] for row in self._rows]

    # -- mutation -------------------------------------------------------------

    def append(self, **values: object) -> None:
        """Append one row; every schema column must be supplied exactly."""
        extra = set(values) - set(self.column_names)
        missing = set(self.column_names) - set(values)
        if extra or missing:
            raise ConfigurationError(
                f"row keys must match the schema exactly "
                f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        self._rows.append(
            tuple(_coerce(values[c.name], c) for c in self._columns)
        )

    def extend(self, rows: Sequence[Dict[str, object]]) -> None:
        for row in rows:
            self.append(**row)

    # -- aggregation ----------------------------------------------------------

    def filter(self, predicate: Callable[[Dict[str, object]], bool]) -> "ResultTable":
        """Rows for which ``predicate(row_dict)`` is true; schema/meta kept."""
        out = ResultTable(self._columns, meta=dict(self.meta))
        out._rows = [row for row in self._rows
                     if predicate(dict(zip(self.column_names, row)))]
        return out

    def group_by(self, *names: str):
        """Split into sub-tables by the given columns, first-seen order.

        Returns ``{value: table}`` for a single column and
        ``{(v1, v2, ...): table}`` for several.
        """
        if not names:
            raise ConfigurationError("group_by needs at least one column")
        idx = [self._index[self._column(n).name] for n in names]
        groups: Dict[object, ResultTable] = {}
        for row in self._rows:
            key = row[idx[0]] if len(idx) == 1 else tuple(row[i] for i in idx)
            if key not in groups:
                groups[key] = ResultTable(self._columns, meta=dict(self.meta))
            groups[key]._rows.append(row)
        return groups

    def _numeric(self, name: str) -> List[float]:
        col = self._column(name)
        if col.dtype not in ("int", "float"):
            raise ConfigurationError(
                f"column {name!r} is {col.dtype!r}, not numeric"
            )
        return [float(v) for v in self.column(name)]

    def percentile(self, name: str, q: float) -> float:
        """``q``-th percentile of a numeric column (0.0 when empty —
        matching the fleet-report convention for all-DNF cells)."""
        return percentile(self._numeric(name), q)

    def mean(self, name: str) -> float:
        """Mean of a numeric column (0.0 when empty)."""
        values = self._numeric(name)
        if not values:
            return 0.0
        return float(np.mean(np.asarray(values, dtype=float)))

    # -- serialization --------------------------------------------------------

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Lossless JSON: schema + meta + rows.

        Floats serialize via Python's shortest round-trip ``repr`` (and
        non-finite values as ``NaN``/``Infinity`` literals), so
        ``from_json(to_json())`` reproduces every bit.
        """
        payload = {
            "schema": [[c.name, c.dtype] for c in self._columns],
            "meta": dict(self.meta),
            "rows": [list(row) for row in self._rows],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid ResultTable JSON: {exc}")
        try:
            schema = [(str(n), str(d)) for n, d in payload["schema"]]
            meta = payload.get("meta", {})
            rows = payload["rows"]
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                "ResultTable JSON needs 'schema' ([name, dtype] pairs) "
                "and 'rows' (lists of cells)"
            )
        table = cls(schema, meta=meta)
        names = table.column_names
        for row in rows:
            if len(row) != len(names):
                raise ConfigurationError(
                    f"row width {len(row)} != schema width {len(names)}"
                )
            table.append(**dict(zip(names, row)))
        return table

    def to_npz(self, path) -> None:
        """Lossless NPZ: one array per column plus schema/meta arrays.

        ``path`` is a filename or an open binary file object (anything
        ``np.savez`` accepts).
        """
        arrays: Dict[str, np.ndarray] = {
            "schema_names": np.array(list(self.column_names), dtype=np.str_),
            "schema_dtypes": np.array([c.dtype for c in self._columns],
                                      dtype=np.str_),
            "meta_json": np.array(json.dumps(dict(self.meta))),
        }
        for i, col in enumerate(self._columns):
            values = self.column(col.name)
            if col.dtype == "str":
                arr = (np.array(values, dtype=np.str_) if values
                       else np.array([], dtype="<U1"))
            else:
                arr = np.array(values, dtype=_NP_DTYPES[col.dtype])
            arrays[f"col{i}"] = arr
        np.savez(path, **arrays)

    @classmethod
    def from_npz(cls, path: str) -> "ResultTable":
        with np.load(path, allow_pickle=False) as data:
            try:
                names = [str(n) for n in data["schema_names"]]
                dtypes = [str(d) for d in data["schema_dtypes"]]
                meta = json.loads(str(data["meta_json"]))
                columns = [data[f"col{i}"] for i in range(len(names))]
            except KeyError as exc:
                raise ConfigurationError(f"not a ResultTable NPZ: missing {exc}")
        table = cls(list(zip(names, dtypes)), meta=meta)
        casts = {"int": int, "float": float, "str": str, "bool": bool}
        for row in zip(*columns) if columns else ():
            table.append(**{
                name: casts[dtype](value)
                for name, dtype, value in zip(names, dtypes, row)
            })
        return table

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        if self._columns != other._columns or self.meta != other.meta:
            return False
        if len(self._rows) != len(other._rows):
            return False
        return all(
            _cells_equal(a, b)
            for ra, rb in zip(self._rows, other._rows)
            for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype}" for c in self._columns)
        return f"ResultTable([{cols}], {len(self)} rows)"

    def render(self) -> str:
        """Plain-text table (numeric columns right-aligned) under the
        ``title`` meta entry."""
        from repro.experiments.reporting import format_table

        return format_table(
            list(self.column_names), [tuple(row) for row in self._rows],
            title=self.meta.get("title", ""),
        )
