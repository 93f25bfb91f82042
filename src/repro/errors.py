"""One error taxonomy for the whole package.

Every failure ReStore raises on purpose descends from :class:`ReStoreError`
and carries a stable :attr:`~ReStoreError.code` string.  The codes do double
duty: they are the *wire* error codes of the serving protocol
(:mod:`repro.serving.protocol`), so an error raised inside a fleet worker
crosses the process boundary and is re-raised as the **same class** on the
router side (:func:`error_for_code`).

The hierarchy deliberately multiple-inherits from the builtin exception a
consumer would historically have caught: query validation errors are
``ValueError``\\ s, service lifecycle errors are ``RuntimeError``\\ s, and
artifact errors are ``ValueError``\\ s — existing ``except`` clauses keep
working unchanged.
"""

from __future__ import annotations

from typing import Dict, Type


class ReStoreError(Exception):
    """Base class of every intentional ReStore failure.

    :attr:`code` is a stable, machine-readable identifier — reused as the
    wire code by the serving protocol and safe to branch on.
    """

    code: str = "restore_error"


class ConfigurationError(ReStoreError, ValueError):
    """A configuration dataclass rejected a field value (named in the message)."""

    code = "config_invalid"


class QueryValidationError(ReStoreError, ValueError):
    """A query references unknown tables/columns; candidates are listed."""

    code = "query_invalid"


class ServiceOverloadedError(ReStoreError, RuntimeError):
    """Admission is full (or a quota is exhausted) and the caller declined to wait."""

    code = "service_overloaded"


class ServiceClosedError(ReStoreError, RuntimeError):
    """The service/worker is not running (never started, or already closed)."""

    code = "service_closed"


class ProtocolError(ReStoreError, RuntimeError):
    """A wire frame is malformed, oversized or from an incompatible version."""

    code = "protocol_error"


class WorkerError(ReStoreError, RuntimeError):
    """A fleet worker failed outside the taxonomy (crash, disconnect, internal)."""

    code = "internal"


class MutationError(ReStoreError, ValueError):
    """A mutation batch names unknown tables/rows/columns or breaks integrity."""

    code = "mutation_invalid"


class StorageError(ReStoreError, ValueError):
    """A column store cannot be written or read (bad schema, bad directory)."""

    code = "storage_error"


class StoreIntegrityError(StorageError):
    """Store metadata failed its self-digest or a column file is damaged."""

    code = "storage_integrity"


class ArtifactError(ReStoreError, ValueError):
    """Base class for everything that can go wrong with an artifact."""

    code = "artifact_error"


class ArtifactVersionError(ArtifactError):
    """The artifact was written by an incompatible format version."""

    code = "artifact_version"


class ArtifactIntegrityError(ArtifactError):
    """A file is missing, corrupted or does not match its recorded hash."""

    code = "artifact_integrity"


class ArtifactSchemaError(ArtifactError):
    """The artifact's schema/layout does not match the load target."""

    code = "artifact_schema"


class ArtifactLineageError(ArtifactError):
    """An artifact's recorded lineage (parent digest / delta) does not match."""

    code = "artifact_lineage"


#: code → class, for re-raising wire errors as their original taxonomy
#: class on the client side of the protocol.
WIRE_CODES: Dict[str, Type[ReStoreError]] = {
    cls.code: cls
    for cls in (
        ReStoreError,
        ConfigurationError,
        QueryValidationError,
        ServiceOverloadedError,
        ServiceClosedError,
        ProtocolError,
        WorkerError,
        MutationError,
        StorageError,
        StoreIntegrityError,
        ArtifactError,
        ArtifactVersionError,
        ArtifactIntegrityError,
        ArtifactSchemaError,
        ArtifactLineageError,
    )
}


def wire_code(exc: BaseException) -> str:
    """The stable wire code for an exception (``"internal"`` off-taxonomy)."""
    if isinstance(exc, ReStoreError):
        return exc.code
    return WorkerError.code


def error_for_code(code: str, message: str) -> ReStoreError:
    """Rebuild the taxonomy exception a wire error frame describes.

    Unknown codes (a newer worker, an off-taxonomy failure) degrade to
    :class:`WorkerError` rather than failing the decode.
    """
    return WIRE_CODES.get(code, WorkerError)(message)


__all__ = [
    "ReStoreError",
    "ConfigurationError",
    "QueryValidationError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "ProtocolError",
    "WorkerError",
    "MutationError",
    "StorageError",
    "StoreIntegrityError",
    "ArtifactError",
    "ArtifactVersionError",
    "ArtifactIntegrityError",
    "ArtifactSchemaError",
    "ArtifactLineageError",
    "WIRE_CODES",
    "wire_code",
    "error_for_code",
]
