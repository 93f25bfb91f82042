"""ReStore: neural data completion for relational databases (SIGMOD 2021).

Reproduction of Hilprecht & Binnig, "ReStore - Neural Data Completion for
Relational Databases".  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured record.

Quickstart::

    from repro import ReStore, parse_query
    from repro.datasets import generate_housing
    from repro.incomplete import RemovalSpec, make_incomplete

    db = generate_housing()
    dataset = make_incomplete(db, [RemovalSpec("apartment", "price", 0.5, 0.5)])
    engine = ReStore.from_dataset(dataset).fit()
    answer = engine.answer(parse_query(
        "SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment GROUP BY state;"
    ))
"""

from .core import (
    Answer,
    BiasDirection,
    ConfidenceBand,
    ConfidenceEstimator,
    ReStore,
    ReStoreConfig,
    SuspectedBias,
)
from .errors import ReStoreError
from .incremental import (
    DriftReport,
    DriftThresholds,
    MutationDelta,
    TableDelta,
    apply_mutations,
    detect_drift,
)
from .query import Query, QueryResult, parse_query
from .relational import ColumnKind, Database, ForeignKey, SchemaAnnotation, Table
from .serving import (
    CompletionService,
    FleetConfig,
    FleetRouter,
    ServiceConfig,
    ServiceWorker,
    ServingCore,
    load_artifact,
    save_artifact,
)
from .version import repro_version

#: Single source of truth is pyproject.toml / the installed distribution
#: metadata — see :mod:`repro.version`.  Artifact manifests stamp the same
#: value.
__version__ = repro_version()

#: The public facade, grouped by concern.  Serving internals (protocol,
#: dispatcher, admission gate) stay importable from :mod:`repro.serving`;
#: the error taxonomy's canonical home is :mod:`repro.errors`.
__all__ = [
    # engine
    "ReStore",
    "ReStoreConfig",
    "Answer",
    "SuspectedBias",
    "BiasDirection",
    "ConfidenceBand",
    "ConfidenceEstimator",
    # queries
    "Query",
    "QueryResult",
    "parse_query",
    # relational model
    "Database",
    "Table",
    "ForeignKey",
    "SchemaAnnotation",
    "ColumnKind",
    # serving: core, shells, fleet, artifacts
    "ServingCore",
    "ServiceConfig",
    "CompletionService",
    "ServiceWorker",
    "FleetRouter",
    "FleetConfig",
    "save_artifact",
    "load_artifact",
    # incremental completion (live databases)
    "MutationDelta",
    "TableDelta",
    "apply_mutations",
    "DriftReport",
    "DriftThresholds",
    "detect_drift",
    # errors
    "ReStoreError",
    # meta
    "repro_version",
]
