"""Column-oriented tables over a pluggable storage backend.

A :class:`Table` stores equal-length columns keyed by name plus per-column
:class:`~repro.relational.column.ColumnMeta`.  Every read goes through the
table's :class:`~repro.relational.storage.ColumnStore`: ``Table(...)``
builds an :class:`~repro.relational.storage.InMemoryStore` over plain numpy
arrays; :meth:`Table.spill_to` / :meth:`Table.from_store` put a table on a
:class:`~repro.relational.storage.MappedStore`, where columns materialize
lazily and row ranges are read through short-lived maps.  Operations
return new (in-RAM) tables; contiguous row selections return zero-copy
range views on both backends, everything else falls back to fancy
indexing (which copies).  :meth:`Table.gather_encoded` reads a string
column as codes into its store's vocabulary, on both backends.  A table
pickles with its store, and a mapped store pickles as its directory.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .column import ColumnKind, ColumnMeta, coerce_values
from .storage import (
    ColumnStore,
    InMemoryStore,
    MappedStore,
    contiguous_range,
    spill_arrays,
)


class Table:
    """An immutable-ish named relation.

    Parameters
    ----------
    name:
        Relation name (unique within a database).
    columns:
        Mapping of column name to values; insertion order is preserved and
        becomes the canonical column order.
    kinds:
        Mapping of column name to :class:`ColumnKind`.  Every column must be
        declared.
    primary_key:
        Name of the primary-key column, or ``None`` for tables without one
        (e.g. pure m:n link tables).
    """

    def __init__(
        self,
        name: str,
        columns: Mapping[str, Sequence],
        kinds: Mapping[str, ColumnKind],
        primary_key: Optional[str] = "id",
    ):
        self.name = name
        arrays: Dict[str, np.ndarray] = {}
        self._meta: Dict[str, ColumnMeta] = {}
        lengths = set()
        for col_name, values in columns.items():
            if col_name not in kinds:
                raise ValueError(f"{name}: column {col_name!r} has no declared kind")
            kind = kinds[col_name]
            arr = coerce_values(kind, values)
            if arr.ndim != 1:
                raise ValueError(f"{name}.{col_name}: columns must be 1-D")
            arrays[col_name] = arr
            self._meta[col_name] = ColumnMeta(col_name, kind)
            lengths.add(len(arr))
        extra = set(kinds) - set(columns)
        if extra:
            raise ValueError(f"{name}: kinds declared for missing columns {sorted(extra)}")
        if len(lengths) > 1:
            raise ValueError(f"{name}: ragged columns with lengths {sorted(lengths)}")
        self._num_rows = lengths.pop() if lengths else 0
        if primary_key is not None and primary_key not in arrays:
            raise ValueError(f"{name}: primary key {primary_key!r} is not a column")
        self.primary_key = primary_key
        self._store: ColumnStore = InMemoryStore(arrays, self.kinds())

    # ------------------------------------------------------------------
    # Storage backends
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls, store, name: Optional[str] = None
    ) -> "Table":
        """A table backed by an existing column store (lazy columns).

        ``store`` is a :class:`~repro.relational.storage.MappedStore` or a
        spill-directory path to open one from.
        """
        if not isinstance(store, MappedStore):
            store = MappedStore.open(str(store))
        table = cls.__new__(cls)
        table.name = name if name is not None else store.table_name
        table._store = store
        table._meta = {
            col: ColumnMeta(col, store.kind(col)) for col in store.names()
        }
        table._num_rows = store.num_rows
        table.primary_key = store.primary_key
        return table

    def spill_to(self, directory: str) -> "Table":
        """Write this table's columns to a mapped store; return the
        store-backed table.  Round-trips are bitwise identical."""
        store = spill_arrays(
            directory,
            self.name,
            {c: self.column(c) for c in self.column_names},
            self.kinds(),
            primary_key=self.primary_key,
        )
        return Table.from_store(store, name=self.name)

    @property
    def is_mapped(self) -> bool:
        """True when the bytes live in a mapped store (lazy columns)."""
        return isinstance(self._store, MappedStore)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> List[str]:
        return self._store.names()

    def __contains__(self, column: str) -> bool:
        return column in self._meta

    def column(self, name: str) -> np.ndarray:
        """The raw values of one column.

        In-RAM backend: the resident array, no copy.  Mapped backend: a
        fresh read (memmap view for numeric columns, decoded copy for
        dictionary columns) — deliberately *not* cached, so large columns
        do not accumulate in RSS behind the caller's back.
        """
        if name not in self._meta:
            raise KeyError(f"{self.name} has no column {name!r}")
        return self._store.read_full(name)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def column_range(self, name: str, start: int, stop: int) -> np.ndarray:
        """Zero-copy view of a contiguous row range of one column.

        Both backends return basic-slice views (the mapped backend's view
        holds its short-lived map alive until the caller drops it), so
        chunked walks stop paying the fancy-indexing copy tax.
        """
        if name not in self._meta:
            raise KeyError(f"{self.name} has no column {name!r}")
        return self._store.read_range(name, start, stop)

    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Rows of one column at the given positions.

        Contiguous requests become range views; anything else is a fancy
        gather (mapped columns read only the touched rows)."""
        if name not in self._meta:
            raise KeyError(f"{self.name} has no column {name!r}")
        return self._store.gather(name, rows)

    def gather_encoded(self, name: str, rows: np.ndarray):
        """:meth:`gather`, with a string column kept dictionary encoded.

        A column of ``str`` values comes back as a
        :class:`~repro.relational.dictionary.DictColumn` whose vocabulary
        is one array per store and column (a mapped store's dictionary, or
        an in-RAM store's first-occurrence vocabulary built on first use);
        any other column as :meth:`gather` returns it.
        """
        if name not in self._meta:
            raise KeyError(f"{self.name} has no column {name!r}")
        return self._store.gather_encoded(name, rows)

    def meta(self, name: str) -> ColumnMeta:
        if name not in self._meta:
            raise KeyError(f"{self.name} has no column {name!r}")
        return self._meta[name]

    def kinds(self) -> Dict[str, ColumnKind]:
        return {name: meta.kind for name, meta in self._meta.items()}

    def modelable_columns(self) -> List[str]:
        """Columns whose distribution a completion model should learn."""
        return [name for name, meta in self._meta.items() if meta.is_modelable]

    def nbytes_materialized(self) -> int:
        """Bytes this table occupies (or would occupy) materialized in RAM."""
        return self._store.nbytes_materialized()

    def __repr__(self) -> str:
        backend = "mapped" if self.is_mapped else "ram"
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"cols={self.column_names}, backend={backend})"
        )

    # ------------------------------------------------------------------
    # Row-level operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Rows at the given positions (duplicates and reordering allowed).

        Contiguous ascending positions return zero-copy range views."""
        idx = np.asarray(indices)
        bounds = contiguous_range(idx)
        if bounds is not None:
            return self.slice_rows(bounds[0], bounds[1])
        return self._with_columns(
            {name: self.gather(name, idx) for name in self.column_names}
        )

    def select(self, mask: np.ndarray) -> "Table":
        """Rows where the boolean ``mask`` is true (range view if contiguous)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._num_rows,):
            raise ValueError("mask must have one entry per row")
        return self.take(np.flatnonzero(mask))

    def slice_rows(self, start: int, stop: int) -> "Table":
        """The contiguous row range ``[start, stop)`` as zero-copy views."""
        start = max(0, int(start))
        stop = min(self._num_rows, int(stop))
        if stop < start:
            stop = start
        return self._with_columns(
            {name: self.column_range(name, start, stop) for name in self.column_names}
        )

    def head(self, n: int) -> "Table":
        return self.take(np.arange(min(n, self._num_rows)))

    # ------------------------------------------------------------------
    # Column-level operations
    # ------------------------------------------------------------------
    def project(self, columns: Iterable[str]) -> "Table":
        """Keep only the given columns (primary key dropped if not listed)."""
        cols = list(columns)
        data = {name: self.column(name) for name in cols}
        kinds = {name: self._meta[name].kind for name in cols}
        pk = self.primary_key if self.primary_key in cols else None
        return Table(self.name, data, kinds, primary_key=pk)

    def with_column(self, name: str, values: Sequence, kind: ColumnKind) -> "Table":
        """A new (in-RAM) table with one column added or replaced."""
        data = {c: self.column(c) for c in self.column_names}
        kinds = self.kinds()
        data[name] = values
        kinds[name] = kind
        return Table(self.name, data, kinds, primary_key=self.primary_key)

    def concat_rows(self, other: "Table") -> "Table":
        """Stack another table with identical columns underneath this one."""
        if other.column_names != self.column_names:
            raise ValueError(
                f"cannot concat {self.name}: column mismatch "
                f"{self.column_names} vs {other.column_names}"
            )
        data = {
            name: np.concatenate([self.column(name), other.column(name)])
            for name in self.column_names
        }
        return Table(self.name, data, self.kinds(), primary_key=self.primary_key)

    def _with_columns(
        self, columns: Dict[str, np.ndarray], encoded: Optional[Mapping] = None
    ) -> "Table":
        """An in-RAM table of this schema over ``columns``; ``encoded``
        hands string columns' dictionary forms to its store."""
        table = Table.__new__(Table)
        table.name = self.name
        table._meta = self._meta
        table._store = InMemoryStore(columns, self.kinds(), encoded)
        table._num_rows = table._store.num_rows
        table.primary_key = self.primary_key
        return table
