"""Relational substrate: tables, schemas, tuple factors, schema-graph walks."""

from .column import MISSING_KEY, ColumnKind, ColumnMeta, coerce_values
from .dictionary import DictColumn
from .storage import (
    ColumnStore,
    InMemoryStore,
    MappedStore,
    StoreColumns,
    StoreWriter,
    contiguous_range,
    spill_arrays,
)
from .table import Table
from .schema import Database, ForeignKey, SchemaAnnotation
from .tuple_factors import (
    TF_UNKNOWN,
    annotated_tuple_factors,
    cap_tuple_factors,
    observed_tuple_factors,
)
from .graph import (
    CompletionPath,
    enumerate_completion_paths,
    fan_out_relations,
    join_order,
)

__all__ = [
    "ColumnKind",
    "ColumnMeta",
    "MISSING_KEY",
    "coerce_values",
    "DictColumn",
    "ColumnStore",
    "InMemoryStore",
    "MappedStore",
    "StoreColumns",
    "StoreWriter",
    "contiguous_range",
    "spill_arrays",
    "Table",
    "Database",
    "ForeignKey",
    "SchemaAnnotation",
    "TF_UNKNOWN",
    "observed_tuple_factors",
    "annotated_tuple_factors",
    "cap_tuple_factors",
    "CompletionPath",
    "enumerate_completion_paths",
    "fan_out_relations",
    "join_order",
]
