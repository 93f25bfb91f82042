"""Databases: named tables connected by foreign-key relationships.

This module provides the schema substrate that ReStore's completion layer is
built on: foreign keys with direction (child ``n : 1`` parent), the schema
graph, and the completeness annotations of paper §2.2 (which tables are
complete, which incomplete).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from .keys import child_index
from .table import Table


@dataclass(frozen=True)
class ForeignKey:
    """A directed relationship: each child row references one parent row.

    ``child.child_column`` holds primary-key values of
    ``parent.parent_column``.  Read as *child n:1 parent*; traversing from the
    parent side is the 1:n (fan-out) direction.
    """

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str = "id"

    def involves(self, table: str) -> bool:
        return table in (self.child_table, self.parent_table)

    def other(self, table: str) -> str:
        if table == self.child_table:
            return self.parent_table
        if table == self.parent_table:
            return self.child_table
        raise ValueError(f"{table} is not part of {self}")

    def __str__(self) -> str:
        return (
            f"{self.child_table}.{self.child_column} -> "
            f"{self.parent_table}.{self.parent_column}"
        )


class Database:
    """A set of tables plus the foreign keys connecting them."""

    def __init__(self, tables: Iterable[Table], foreign_keys: Sequence[ForeignKey]):
        self.tables: Dict[str, Table] = {}
        for table in tables:
            if table.name in self.tables:
                raise ValueError(f"duplicate table {table.name!r}")
            self.tables[table.name] = table
        self.foreign_keys: List[ForeignKey] = list(foreign_keys)
        self._validate()

    def _validate(self) -> None:
        for fk in self.foreign_keys:
            for table_name, column in (
                (fk.child_table, fk.child_column),
                (fk.parent_table, fk.parent_column),
            ):
                if table_name not in self.tables:
                    raise ValueError(f"foreign key {fk} references unknown table")
                if column not in self.tables[table_name]:
                    raise ValueError(f"foreign key {fk} references unknown column")
            # Key resolution (repro.relational.keys) assumes unique parent
            # keys: every foreign key targets its parent's primary key.
            if fk.parent_column != self.tables[fk.parent_table].primary_key:
                raise ValueError(
                    f"foreign key {fk} must reference the primary key of "
                    f"{fk.parent_table!r}"
                )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise KeyError(f"no table {name!r}; have {sorted(self.tables)}")
        return self.tables[name]

    def table_names(self) -> List[str]:
        return list(self.tables)

    def replace_table(self, table: Table) -> "Database":
        """A new database with one table swapped out (same schema)."""
        if table.name not in self.tables:
            raise KeyError(f"no table {table.name!r} to replace")
        tables = [table if t.name == table.name else t for t in self.tables.values()]
        return Database(tables, self.foreign_keys)

    def copy(self) -> "Database":
        return Database(list(self.tables.values()), self.foreign_keys)

    # ------------------------------------------------------------------
    # Storage backends
    # ------------------------------------------------------------------
    def spill_to(self, directory: str) -> "Database":
        """Spill every table to a mapped store under ``directory``.

        Each table lands in its own subdirectory; ``database.json`` records
        the schema (table order, foreign keys) so :meth:`from_store` can
        reopen the database from a fresh process.
        """
        import json
        import os

        os.makedirs(directory, exist_ok=True)
        tables = [
            table.spill_to(os.path.join(directory, name))
            for name, table in self.tables.items()
        ]
        manifest = {
            "tables": list(self.tables),
            "foreign_keys": [
                [fk.child_table, fk.child_column, fk.parent_table, fk.parent_column]
                for fk in self.foreign_keys
            ],
        }
        with open(os.path.join(directory, "database.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        return Database(tables, self.foreign_keys)

    @classmethod
    def from_store(cls, directory: str) -> "Database":
        """Reopen a spilled database (lazy, memory-mapped tables)."""
        import json
        import os

        with open(os.path.join(directory, "database.json"), "r",
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        tables = [
            Table.from_store(os.path.join(directory, name), name=name)
            for name in manifest["tables"]
        ]
        fks = [ForeignKey(*entry) for entry in manifest["foreign_keys"]]
        return cls(tables, fks)

    def nbytes_materialized(self) -> int:
        """Bytes the whole database occupies (or would) materialized in RAM."""
        return sum(t.nbytes_materialized() for t in self.tables.values())

    # ------------------------------------------------------------------
    # Schema graph
    # ------------------------------------------------------------------
    def fks_between(self, table_a: str, table_b: str) -> List[ForeignKey]:
        """All foreign keys connecting two tables (either direction)."""
        return [
            fk for fk in self.foreign_keys
            if {fk.child_table, fk.parent_table} == {table_a, table_b}
        ]

    def fk_between(self, table_a: str, table_b: str) -> ForeignKey:
        """The unique foreign key between two tables; raise otherwise."""
        fks = self.fks_between(table_a, table_b)
        if not fks:
            raise ValueError(f"no foreign key between {table_a} and {table_b}")
        if len(fks) > 1:
            raise ValueError(f"ambiguous foreign keys between {table_a} and {table_b}")
        return fks[0]

    def neighbors(self, table: str) -> List[str]:
        """Tables one foreign-key hop away (deduplicated, stable order)."""
        seen: List[str] = []
        for fk in self.foreign_keys:
            if fk.involves(table):
                other = fk.other(table)
                if other not in seen:
                    seen.append(other)
        return seen

    def is_fan_out_step(self, from_table: str, to_table: str) -> bool:
        """True when walking ``from_table -> to_table`` multiplies rows (1:n).

        Moving from a parent to its children is fan-out; moving from a child
        to its parent is n:1 and safe as AR evidence (paper §3.2).
        """
        fk = self.fk_between(from_table, to_table)
        return fk.parent_table == from_table

    def validate_references(self) -> List[str]:
        """Referential-integrity report: dangling FK values per relationship.

        Missing-key sentinels (negative values) are ignored — they mark
        synthesized rows whose partner was intentionally not generated.
        """
        problems = []
        for fk in self.foreign_keys:
            refs = np.asarray(self.tables[fk.child_table][fk.child_column])
            unmatched = child_index(self, fk).parent_of < 0
            dangling = int((unmatched & (refs >= 0)).sum())
            if dangling:
                problems.append(f"{fk}: {dangling} dangling references")
        return problems

    def __repr__(self) -> str:
        return (
            f"Database(tables={[f'{n}({len(t)})' for n, t in self.tables.items()]}, "
            f"fks={len(self.foreign_keys)})"
        )


@dataclass
class SchemaAnnotation:
    """The user-provided completeness annotation of paper §2.2.

    Attributes
    ----------
    complete_tables:
        Tables known to contain all tuples.
    incomplete_tables:
        Tables with (potentially systematically) missing tuples.
    known_tuple_factors:
        Per-relationship arrays aligned with the *parent* table's rows
        holding the **true** child count where the user annotated the
        relationship as complete for that parent, and ``TF_UNKNOWN`` (-1)
        elsewhere.  Keyed by ``str(fk)``.  For relationships into complete
        child tables no entry is needed — observed counts are the truth.
    """

    complete_tables: Set[str] = field(default_factory=set)
    incomplete_tables: Set[str] = field(default_factory=set)
    known_tuple_factors: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        overlap = self.complete_tables & self.incomplete_tables
        if overlap:
            raise ValueError(f"tables marked both complete and incomplete: {overlap}")

    def is_complete(self, table: str) -> bool:
        if table in self.complete_tables:
            return True
        if table in self.incomplete_tables:
            return False
        raise KeyError(f"table {table!r} has no completeness annotation")

    def annotated_tables(self) -> Set[str]:
        return self.complete_tables | self.incomplete_tables

    def check_covers(self, db: Database) -> None:
        missing = set(db.table_names()) - self.annotated_tables()
        if missing:
            raise ValueError(f"tables without completeness annotation: {sorted(missing)}")

    def tuple_factors_for(self, fk: ForeignKey, num_parent_rows: int) -> Optional[np.ndarray]:
        """Annotated true tuple factors for ``fk`` or ``None`` when absent.

        The returned array aligns with the (incomplete) parent table's rows;
        entries are true counts where known and ``TF_UNKNOWN`` elsewhere.
        """
        values = self.known_tuple_factors.get(str(fk))
        if values is None:
            return None
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (num_parent_rows,):
            raise ValueError(f"tuple-factor annotation for {fk} has wrong length")
        return values
