"""Serving layer: artifacts, the transport-agnostic core, and its shells.

ReStore's train-once / query-many story in four layers:

* **artifacts** (:mod:`~repro.serving.artifacts`) — versioned save/load
  of a fitted engine (``save_artifact`` / ``load_artifact`` /
  ``ReStore.load``), with manifest hashes and clear schema/version errors;
* **core** (:mod:`~repro.serving.core`) — :class:`ServingCore`, the
  synchronous, asyncio-free brain owning micro-batching, join-signature
  grouping, single-flight coalescing, admission/backpressure and stats;
* **shells** — :class:`CompletionService`, the asyncio front-end over the
  core, and :class:`ServiceWorker`, a process shell serving a loaded
  artifact over the length-prefixed wire protocol
  (:mod:`~repro.serving.protocol`);
* **fleet** (:mod:`~repro.serving.fleet`) — :class:`FleetRouter`, which
  spawns N workers from one artifact, consistent-hash routes by join
  signature (single-flight keeps working fleet-wide), sheds oldest under
  overload with per-tenant quotas, and aggregates worker stats.

The error taxonomy lives in :mod:`repro.errors`; the names below re-export
it for convenience.
"""

from ..errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactLineageError,
    ArtifactSchemaError,
    ArtifactVersionError,
    ConfigurationError,
    ProtocolError,
    ReStoreError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerError,
)
from .artifacts import (
    FORMAT_VERSION,
    artifact_lineage,
    database_digest,
    load_artifact,
    read_manifest,
    save_artifact,
    verify_artifact,
    verify_lineage,
)
from .batching import MicroBatcher, ServiceRequest
from .core import (
    AdmissionGate,
    CoreRequest,
    ProgressiveFlight,
    ServiceConfig,
    ServiceStats,
    ServingCore,
    SyncMicroBatcher,
)
from .fleet import ConsistentHashRing, FleetConfig, FleetRouter, FleetStats
from .protocol import PROTOCOL_VERSION
from .service import CompletionService
from .worker import ServiceWorker, worker_main

#: The public serving API, grouped by layer.
__all__ = [
    # artifacts
    "FORMAT_VERSION",
    "save_artifact",
    "load_artifact",
    "read_manifest",
    "verify_artifact",
    "database_digest",
    "artifact_lineage",
    "verify_lineage",
    # transport-agnostic core
    "ServingCore",
    "ServiceConfig",
    "ServiceStats",
    "CoreRequest",
    "AdmissionGate",
    "SyncMicroBatcher",
    "ProgressiveFlight",
    # shells
    "CompletionService",
    "ServiceWorker",
    "worker_main",
    "MicroBatcher",
    "ServiceRequest",
    "PROTOCOL_VERSION",
    # fleet
    "FleetRouter",
    "FleetConfig",
    "FleetStats",
    "ConsistentHashRing",
    # error taxonomy (canonical home: repro.errors)
    "ReStoreError",
    "ConfigurationError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "ProtocolError",
    "WorkerError",
    "ArtifactError",
    "ArtifactVersionError",
    "ArtifactIntegrityError",
    "ArtifactSchemaError",
    "ArtifactLineageError",
]
