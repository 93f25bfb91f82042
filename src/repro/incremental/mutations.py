"""Tuple-granular mutations over a relational database.

:func:`apply_mutations` is the single write path for live databases: it
takes row-level inserts, updates and deletes, validates them against the
schema (every violation raises :class:`~repro.errors.MutationError`, never
a raw ``KeyError``), applies them copy-on-write, and returns the mutated
database together with a :class:`MutationDelta` that names every changed
row per table.  The delta is what the cache-invalidation layer
(:mod:`repro.incremental.invalidation`) consumes.

Ordering semantics within one batch: updates first (row positions stay
stable), then inserts (appended in input order), then deletes (cascading
to child rows when ``cascade=True``).  ``known_tuple_factors`` annotation
arrays — which align with parent-table rows — are realigned on parent
inserts (new rows get ``TF_UNKNOWN``) and deletes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import MutationError
from ..relational import Database, SchemaAnnotation, Table
from ..relational.column import coerce_values
from ..relational.keys import lookup
from ..relational.tuple_factors import TF_UNKNOWN

__all__ = ["TableDelta", "MutationDelta", "apply_mutations"]


@dataclass(frozen=True)
class TableDelta:
    """Changed rows of one table, identified by primary-key value.

    ``updated_positions`` are the row positions (in the mutated table) of
    the updated rows; they are only meaningful for row-granular
    invalidation when the same table saw no inserts or deletes in the
    batch (otherwise positions shift and the grid changes anyway).
    """

    inserted: Tuple[int, ...] = ()
    updated: Tuple[int, ...] = ()
    deleted: Tuple[int, ...] = ()
    updated_positions: Tuple[int, ...] = ()

    @property
    def grid_stable(self) -> bool:
        """True when the table's row count and positions are unchanged."""
        return not self.inserted and not self.deleted

    @property
    def num_changes(self) -> int:
        return len(self.inserted) + len(self.updated) + len(self.deleted)


@dataclass(frozen=True)
class MutationDelta:
    """Per-table change sets produced by one :func:`apply_mutations` call."""

    tables: Mapping[str, TableDelta] = field(default_factory=dict)

    def affected_tables(self) -> Tuple[str, ...]:
        return tuple(sorted(t for t, d in self.tables.items() if d.num_changes))

    def for_table(self, table: str) -> TableDelta:
        return self.tables.get(table, TableDelta())

    @property
    def num_changes(self) -> int:
        return sum(d.num_changes for d in self.tables.values())

    def counts(self) -> Dict[str, Dict[str, int]]:
        """``{table: {inserted/updated/deleted: n}}`` — manifest-friendly."""
        return {
            table: {
                "inserted": len(d.inserted),
                "updated": len(d.updated),
                "deleted": len(d.deleted),
            }
            for table, d in sorted(self.tables.items())
            if d.num_changes
        }


def _require_table(db: Database, name: object) -> Table:
    if not isinstance(name, str) or name not in db.tables:
        raise MutationError(
            f"mutation names unknown table {name!r}; have {sorted(db.tables)}"
        )
    return db.tables[name]


def _require_pk(table: Table, operation: str) -> str:
    if table.primary_key is None:
        raise MutationError(
            f"{operation} on {table.name!r} requires a primary key"
        )
    return table.primary_key


def _apply_updates(
    db: Database,
    updates: Mapping[str, Sequence[Mapping[str, object]]],
    delta: Dict[str, Dict[str, list]],
) -> Database:
    for name, rows in updates.items():
        table = _require_table(db, name)
        pk_col = _require_pk(table, "update")
        positions = lookup(db, name, pk_col, np.array(
            [int(row[pk_col]) if pk_col in row else -1 for row in rows],
            dtype=np.int64,
        ))
        new_columns = {c: table.column(c) for c in table.column_names}
        touched: Dict[str, np.ndarray] = {}
        for row, pos in zip(rows, positions.tolist()):
            if pk_col not in row:
                raise MutationError(
                    f"update on {name!r} must carry the primary key {pk_col!r}"
                )
            key = int(row[pk_col])
            if pos < 0:
                raise MutationError(f"update on {name!r}: no row with {pk_col}={key}")
            payload = {c: v for c, v in row.items() if c != pk_col}
            if not payload:
                raise MutationError(
                    f"update on {name!r} row {key} changes no columns"
                )
            for column, value in payload.items():
                if column not in table:
                    raise MutationError(
                        f"update on {name!r} names unknown column {column!r}"
                    )
                if column not in touched:
                    touched[column] = new_columns[column].copy()
                    new_columns[column] = touched[column]
                kind = table.meta(column).kind
                value = coerce_values(kind, [value])[0]
                # A plain str keeps a string column dictionary encodable.
                touched[column][pos] = (
                    str(value) if isinstance(value, np.str_) else value
                )
            delta[name]["updated"].append(key)
            delta[name]["updated_positions"].append(pos)
        db = db.replace_table(table._with_columns(new_columns))
    return db


def _apply_inserts(
    db: Database,
    inserts: Mapping[str, Sequence[Mapping[str, object]]],
    delta: Dict[str, Dict[str, list]],
) -> Database:
    for name, rows in inserts.items():
        table = _require_table(db, name)
        if not rows:
            continue
        expected = set(table.column_names)
        for row in rows:
            got = set(row)
            if got != expected:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                raise MutationError(
                    f"insert into {name!r} must provide exactly the table's "
                    f"columns; missing {missing}, unexpected {extra}"
                )
        pk_col = table.primary_key
        if pk_col is not None:
            keys = np.array([int(row[pk_col]) for row in rows], dtype=np.int64)
            # A key is taken by an existing row or by an earlier row of the
            # batch (every occurrence but the first).
            duplicate = lookup(db, name, pk_col, keys) >= 0
            repeats = np.ones(len(keys), dtype=bool)
            repeats[np.unique(keys, return_index=True)[1]] = False
            duplicate |= repeats
            if duplicate.any():
                key = int(keys[np.argmax(duplicate)])
                raise MutationError(
                    f"insert into {name!r}: duplicate {pk_col}={key}"
                )
            delta[name]["inserted"].extend(keys.tolist())
        else:
            start = table.num_rows
            delta[name]["inserted"].extend(range(start, start + len(rows)))
        block = Table(
            name,
            {c: [row[c] for row in rows] for c in table.column_names},
            table.kinds(),
            primary_key=pk_col,
        )
        db = db.replace_table(table.concat_rows(block))
    return db


def _cascade_closure(
    db: Database, deletes: Mapping[str, set]
) -> Dict[str, set]:
    """Expand pk-delete sets through n:1 references until a fixpoint."""
    doomed: Dict[str, set] = {t: set(keys) for t, keys in deletes.items()}
    changed = True
    while changed:
        changed = False
        for fk in db.foreign_keys:
            parent_doomed = doomed.get(fk.parent_table)
            if not parent_doomed:
                continue
            child = db.tables[fk.child_table]
            pk_col = child.primary_key
            if pk_col is None:
                continue  # no row identity to cascade by; dangling refs
                # are tolerated by the join's dangling-FK resolution
            refs = child.column(fk.child_column)
            mask = np.isin(refs, np.fromiter(parent_doomed, dtype=np.int64))
            victims = set(child.column(pk_col)[mask].tolist())
            before = len(doomed.get(fk.child_table, set()))
            doomed.setdefault(fk.child_table, set()).update(victims)
            if len(doomed[fk.child_table]) != before:
                changed = True
    return doomed


def _apply_deletes(
    db: Database,
    deletes: Mapping[str, Iterable[int]],
    cascade: bool,
    delta: Dict[str, Dict[str, list]],
) -> Tuple[Database, Dict[str, np.ndarray]]:
    requested: Dict[str, set] = {}
    for name, keys in deletes.items():
        table = _require_table(db, name)
        pk_col = _require_pk(table, "delete")
        keys = np.array([int(key) for key in keys], dtype=np.int64)
        missing = lookup(db, name, pk_col, keys) < 0
        if missing.any():
            key = int(keys[np.argmax(missing)])
            raise MutationError(f"delete on {name!r}: no row with {pk_col}={key}")
        requested[name] = set(keys.tolist())
    doomed = _cascade_closure(db, requested) if cascade else {
        t: set(k) for t, k in requested.items()
    }
    keep_masks: Dict[str, np.ndarray] = {}
    for name, keys in doomed.items():
        if not keys:
            continue
        table = db.tables[name]
        pk_col = table.primary_key
        mask = ~np.isin(table.column(pk_col), np.fromiter(keys, dtype=np.int64))
        keep_masks[name] = mask
        delta[name]["deleted"].extend(sorted(int(k) for k in keys))
        db = db.replace_table(table.select(mask))
    return db, keep_masks


def _realign_annotation(
    old_db: Database,
    annotation: SchemaAnnotation,
    delta: Dict[str, Dict[str, list]],
    keep_masks: Dict[str, np.ndarray],
) -> SchemaAnnotation:
    """Realign parent-aligned tuple-factor arrays with mutated row sets."""
    if not annotation.known_tuple_factors:
        return annotation
    factors: Dict[str, np.ndarray] = {}
    by_str = {str(fk): fk for fk in old_db.foreign_keys}
    for key, values in annotation.known_tuple_factors.items():
        values = np.asarray(values, dtype=np.int64)
        fk = by_str.get(key)
        if fk is not None:
            parent = fk.parent_table
            # Inserts happen before deletes, so grow the array first (new
            # parent rows get TF_UNKNOWN) and only then apply the keep
            # mask, which was computed against the post-insert table.
            inserted = len(delta[parent]["inserted"]) if parent in delta else 0
            if inserted:
                values = np.concatenate(
                    [values, np.full(inserted, TF_UNKNOWN, dtype=np.int64)]
                )
            mask = keep_masks.get(parent)
            if mask is not None:
                values = values[mask]
        factors[key] = values
    return SchemaAnnotation(
        complete_tables=set(annotation.complete_tables),
        incomplete_tables=set(annotation.incomplete_tables),
        known_tuple_factors=factors,
    )


def apply_mutations(
    db: Database,
    annotation: Optional[SchemaAnnotation] = None,
    *,
    inserts: Optional[Mapping[str, Sequence[Mapping[str, object]]]] = None,
    updates: Optional[Mapping[str, Sequence[Mapping[str, object]]]] = None,
    deletes: Optional[Mapping[str, Iterable[int]]] = None,
    cascade: bool = True,
):
    """Apply a mutation batch and describe it tuple-granularly.

    Parameters
    ----------
    db / annotation:
        The base database and (optionally) its completeness annotation.
    inserts:
        ``{table: [row_dict, ...]}`` — each row dict must provide exactly
        the table's columns; primary keys must be fresh.
    updates:
        ``{table: [row_dict, ...]}`` — each row dict carries the primary
        key plus the columns to overwrite.  Row positions stay stable.
    deletes:
        ``{table: [pk, ...]}``.  With ``cascade=True`` (default) child
        rows referencing a deleted parent are deleted transitively.

    Returns
    -------
    ``(mutated_db, mutated_annotation, delta)`` where ``delta`` is a
    :class:`MutationDelta`; ``mutated_annotation`` is ``None`` when no
    annotation was passed.

    Raises
    ------
    MutationError
        For unknown tables/rows/columns, duplicate primary keys, updates
        without a primary key, or malformed insert rows.
    """
    from collections import defaultdict

    if not any((inserts, updates, deletes)):
        raise MutationError("mutation batch is empty: nothing to apply")
    raw: Dict[str, Dict[str, list]] = defaultdict(
        lambda: {"inserted": [], "updated": [], "deleted": [], "updated_positions": []}
    )
    new_db = db.copy()
    if updates:
        new_db = _apply_updates(new_db, updates, raw)
    if inserts:
        new_db = _apply_inserts(new_db, inserts, raw)
    keep_masks: Dict[str, np.ndarray] = {}
    if deletes:
        new_db, keep_masks = _apply_deletes(new_db, deletes, cascade, raw)
    new_annotation = None
    if annotation is not None:
        new_annotation = _realign_annotation(db, annotation, raw, keep_masks)
    delta = MutationDelta(
        tables={
            name: TableDelta(
                inserted=tuple(d["inserted"]),
                updated=tuple(d["updated"]),
                deleted=tuple(d["deleted"]),
                updated_positions=tuple(d["updated_positions"]),
            )
            for name, d in raw.items()
        }
    )
    return new_db, new_annotation, delta
