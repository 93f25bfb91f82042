"""Versioned model artifacts: persist a fitted engine, reload it anywhere.

ReStore's premise is train-once / query-many (paper §4–§6), so a fitted
engine is a durable asset: per-path model weights, the shared column
codecs, the incomplete database they were fitted on, the candidate
rankings of §5 and the engine configuration.  This module serializes all
of it to a directory:

.. code-block:: text

    artifact/
      manifest.json    format version, repro version, seed, scenario,
                       per-file sha256 hashes, database content digest
      config.json      ReStoreConfig (model + training hyper-parameters)
      schema.json      tables, column kinds, foreign keys, annotation
      database.npz     every column of the incomplete database (+ TF masks)
      encoders.json/.npz   fitted codec state per table.column
      models.json/.npz     named parameter arrays + per-model metadata

``load_artifact`` reconstructs a ready-to-answer engine that is
*bitwise-equivalent* to the saved one: identical completed joins (up to
row order) at the same seed, for any ``chunk_size`` / worker count.  The
guarantees rest on three design choices:

* model parameters are stored under **stable names**
  (:meth:`repro.nn.Module.named_parameters`) as exact float64 arrays,
* codec state is serialized explicitly (no refitting on load), and the
  reconstructed path layouts are *verified* against the stored variable
  layout — a drifted schema fails loudly instead of sampling garbage,
* the database digest in the manifest ties the artifact to its data, so
  loading into a live engine with different data is a clear error.

Failure taxonomy (canonical home :mod:`repro.errors`):
:class:`~repro.errors.ArtifactVersionError` (format mismatch),
:class:`~repro.errors.ArtifactIntegrityError` (corrupted/tampered files),
:class:`~repro.errors.ArtifactSchemaError` (artifact does not fit the
target schema), all subclasses of :class:`~repro.errors.ArtifactError`
(a ``ValueError``).

.. warning::
   Artifacts are **trusted inputs**, like pickle/``torch.load`` files:
   object-dtype database columns deserialize through numpy's pickle
   path, and the manifest hashes detect *corruption*, not tampering
   (they live in the artifact itself).  Only load artifacts you or your
   pipeline produced.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.engine import ReStore, ReStoreConfig
from ..errors import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactLineageError,
    ArtifactSchemaError,
    ArtifactVersionError,
)
from ..core.forest import EvidenceForest
from ..core.models import (
    ARCompletionModel,
    ModelConfig,
    SSARCompletionModel,
    _CompletionModelBase,
)
from ..core.path_data import PathLayout
from ..core.selection import CandidateScore
from ..encoding import TableEncoder
from ..nn import TrainConfig
from ..nn.train import TrainResult
from ..relational import (
    ColumnKind,
    CompletionPath,
    Database,
    ForeignKey,
    SchemaAnnotation,
    Table,
    fan_out_relations,
)
from ..version import repro_version

FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_CONFIG = "config.json"
_SCHEMA = "schema.json"
_DATABASE = "database.npz"
_DATABASE_STORE = "database_store"
_ENCODERS_JSON = "encoders.json"
_ENCODERS_NPZ = "encoders.npz"
_MODELS_JSON = "models.json"
_MODELS_NPZ = "models.npz"

_HASHED_FILES = (
    _CONFIG, _SCHEMA, _DATABASE,
    _ENCODERS_JSON, _ENCODERS_NPZ, _MODELS_JSON, _MODELS_NPZ,
)

#: The only config fields a load may override: they change how completion
#: *executes* (chunking, pooling), never which rows it produces — the
#: runtime's determinism contract.  Everything else (seed, binning, model
#: architecture) is part of the trained state.
EXECUTION_CONFIG_FIELDS = frozenset({"chunk_size", "n_workers", "parallel_backend"})


# ======================================================================
# Generic array/JSON splitting
# ======================================================================

def _extract_arrays(obj, prefix: str, arrays: Dict[str, np.ndarray]):
    """Replace numpy leaves with references, collecting them for one npz."""
    if isinstance(obj, np.ndarray):
        arrays[prefix] = obj
        return {"__array__": prefix}
    if isinstance(obj, dict):
        return {
            str(k): _extract_arrays(v, f"{prefix}/{k}", arrays)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [
            _extract_arrays(v, f"{prefix}/{i}", arrays)
            for i, v in enumerate(obj)
        ]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _restore_arrays(obj, arrays: Dict[str, np.ndarray]):
    """Inverse of :func:`_extract_arrays` (tuples come back as lists)."""
    if isinstance(obj, dict):
        if set(obj) == {"__array__"}:
            return arrays[obj["__array__"]]
        return {k: _restore_arrays(v, arrays) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_restore_arrays(v, arrays) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ArtifactIntegrityError(f"artifact is missing {what} ({path.name})") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactIntegrityError(f"{what} ({path.name}) is not valid JSON: {exc}") from exc


def _write_npz(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_npz(path: Path, what: str) -> Dict[str, np.ndarray]:
    try:
        with np.load(path, allow_pickle=True) as npz:
            return {key: npz[key] for key in npz.files}
    except FileNotFoundError as exc:
        raise ArtifactIntegrityError(f"artifact is missing {what} ({path.name})") from exc
    except (OSError, ValueError) as exc:
        raise ArtifactIntegrityError(f"{what} ({path.name}) is unreadable: {exc}") from exc


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ======================================================================
# Database state
# ======================================================================

def _stable_bytes(arr: np.ndarray) -> bytes:
    """Content bytes independent of object identity (for digests)."""
    arr = np.asarray(arr)
    if arr.dtype == object:
        return b"\x1f".join(repr(v).encode() for v in arr.tolist())
    return np.ascontiguousarray(arr).tobytes()


def database_digest(db: Database, annotation: SchemaAnnotation) -> str:
    """A stable content hash of an (incomplete) database + annotation."""
    digest = hashlib.sha256()
    for name in db.table_names():
        table = db.table(name)
        digest.update(f"{name}:{table.primary_key}".encode())
        for column in table.column_names:
            arr = table[column]
            digest.update(
                f"{column}:{table.meta(column).kind.value}:{arr.dtype}".encode()
            )
            digest.update(_stable_bytes(arr))
    for fk in db.foreign_keys:
        digest.update(str(fk).encode())
    digest.update(repr(sorted(annotation.complete_tables)).encode())
    digest.update(repr(sorted(annotation.incomplete_tables)).encode())
    for key in sorted(annotation.known_tuple_factors):
        digest.update(key.encode())
        digest.update(_stable_bytes(annotation.known_tuple_factors[key]))
    return digest.hexdigest()


def _database_state(
    db: Database, annotation: SchemaAnnotation, include_tables: bool = True
):
    arrays: Dict[str, np.ndarray] = {}
    tables = []
    for name in db.table_names():
        table = db.table(name)
        columns = []
        for column in table.column_names:
            if include_tables:
                arrays[f"table/{name}/{column}"] = table[column]
            columns.append({"name": column, "kind": table.meta(column).kind.value})
        tables.append({
            "name": name,
            "primary_key": table.primary_key,
            "columns": columns,
        })
    tf_entries = []
    for i, (fk_str, values) in enumerate(sorted(annotation.known_tuple_factors.items())):
        key = f"annotation/tf/{i}"
        arrays[key] = np.asarray(values, dtype=np.int64)
        tf_entries.append({"fk": fk_str, "array": key})
    schema = {
        "tables": tables,
        "foreign_keys": [asdict(fk) for fk in db.foreign_keys],
        "annotation": {
            "complete": sorted(annotation.complete_tables),
            "incomplete": sorted(annotation.incomplete_tables),
            "tuple_factors": tf_entries,
        },
    }
    return schema, arrays


def _annotation_from_state(schema, arrays) -> SchemaAnnotation:
    ann = schema["annotation"]
    return SchemaAnnotation(
        complete_tables=set(ann["complete"]),
        incomplete_tables=set(ann["incomplete"]),
        known_tuple_factors={
            entry["fk"]: np.asarray(arrays[entry["array"]], dtype=np.int64)
            for entry in ann["tuple_factors"]
        },
    )


def _database_from_state(schema, arrays) -> Tuple[Database, SchemaAnnotation]:
    try:
        tables = []
        for entry in schema["tables"]:
            data = {
                col["name"]: arrays[f"table/{entry['name']}/{col['name']}"]
                for col in entry["columns"]
            }
            kinds = {
                col["name"]: ColumnKind(col["kind"]) for col in entry["columns"]
            }
            tables.append(
                Table(entry["name"], data, kinds, primary_key=entry["primary_key"])
            )
        db = Database(tables, [ForeignKey(**fk) for fk in schema["foreign_keys"]])
        annotation = _annotation_from_state(schema, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactIntegrityError(f"database state is inconsistent: {exc}") from exc
    return db, annotation


def _database_from_store(path: Path, schema, arrays) -> Tuple[Database, SchemaAnnotation]:
    """Reopen a columnar artifact's database (lazy, memory-mapped tables)."""
    store_dir = path / _DATABASE_STORE
    if not store_dir.is_dir():
        raise ArtifactIntegrityError(
            f"columnar artifact is missing its {_DATABASE_STORE}/ directory"
        )
    try:
        db = Database.from_store(str(store_dir))
        annotation = _annotation_from_state(schema, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactIntegrityError(f"database store is inconsistent: {exc}") from exc
    return db, annotation


def _store_file_hashes(store_dir: Path) -> Dict[str, str]:
    """Relative path -> sha256 for every file under the database store."""
    return {
        str(file.relative_to(store_dir)): _sha256_file(file)
        for file in sorted(store_dir.rglob("*"))
        if file.is_file()
    }


# ======================================================================
# Config state
# ======================================================================

def _config_to_dict(config: ReStoreConfig) -> dict:
    return _extract_arrays(asdict(config), "config", {})


#: Config fields older artifacts record that the engine no longer has
#: (``compiled_inference`` chose an inference backend, and
#: ``train_backend`` / ``train.backend`` a training backend; there is one
#: of each now.  ``partial_cache_chunks`` and ``progressive_chunks`` sized
#: the chunk cache and grid; both are engine constants now.  The last key
#: sized a separate cache of full joins, which are chunk-cache entries
#: now).  The filter applies at every level: engine, model and training
#: config.
_RETIRED_CONFIG_KEYS = frozenset({
    "compiled_inference", "partial_cache_chunks", "progressive_chunks",
    "train_backend", "backend", "join_cache_size",
})


def _current_fields(data: dict) -> dict:
    """A stored config dict without its retired fields."""
    return {k: v for k, v in data.items() if k not in _RETIRED_CONFIG_KEYS}


def _config_from_dict(data: dict) -> ReStoreConfig:
    try:
        data = _current_fields(data)
        model_config = _model_config_from_dict(data.pop("model"))
        data["chunk_size"] = (
            None if data.get("chunk_size") is None else int(data["chunk_size"])
        )
        return ReStoreConfig(model=model_config, **data)
    except (KeyError, TypeError) as exc:
        raise ArtifactIntegrityError(f"stored config is inconsistent: {exc}") from exc


# ======================================================================
# Model state
# ======================================================================

def _train_summary(result: Optional[TrainResult]) -> Optional[dict]:
    if result is None:
        return None
    return {
        "train_losses": [float(x) for x in result.train_losses],
        "val_losses": [float(x) for x in result.val_losses],
        "best_val_loss": float(result.best_val_loss),
        "epochs_run": int(result.epochs_run),
        "wall_time_s": float(result.wall_time_s),
        "epoch_wall_times_s": [float(x) for x in result.epoch_wall_times_s],
        "warm_start": bool(result.warm_start),
    }


def _train_result_from(summary: Optional[dict]) -> Optional[TrainResult]:
    if summary is None:
        return None
    return TrainResult(
        train_losses=list(summary["train_losses"]),
        val_losses=list(summary["val_losses"]),
        best_val_loss=float(summary["best_val_loss"]),
        epochs_run=int(summary["epochs_run"]),
        wall_time_s=float(summary["wall_time_s"]),
        val_indices=None,
        # Artifacts written before per-epoch timing carry no such field.
        epoch_wall_times_s=[
            float(x) for x in summary.get("epoch_wall_times_s", [])
        ],
        # Pre-incremental artifacts never warm-started.
        warm_start=bool(summary.get("warm_start", False)),
    )


def _models_state(engine: ReStore):
    arrays: Dict[str, np.ndarray] = {}
    entries = []
    for i, ((kind, tables), model) in enumerate(engine.fitted_models().items()):
        state = model.state_dict()
        for name, value in state.items():
            arrays[f"model/{i}/{name}"] = value
        entries.append({
            "index": i,
            "kind": kind,
            "path": list(tables),
            "config": _extract_arrays(asdict(model.config), f"modelcfg/{i}", {}),
            "param_names": list(state),
            "num_variables": model.layout.num_variables,
            "vocab_sizes": [int(v) for v in model.layout.vocab_sizes()],
            "tf_caps": {
                str(slot): codec.cap
                for slot, codec in model.layout.tf_codecs.items()
            },
            "train_summary": _train_summary(model.train_result),
        })
    candidates = {
        target: [
            {
                "kind": score.model.kind,
                "path": list(score.path.tables),
                "target_loss": float(score.target_loss),
                "marginal_loss": float(score.marginal_loss),
                "derived_score": (
                    None if score.derived_score is None
                    else float(score.derived_score)
                ),
            }
            for score in scores
        ]
        for target, scores in engine.candidate_scores().items()
    }
    return {"models": entries, "candidates": candidates}, arrays


def _model_config_from_dict(data: dict) -> ModelConfig:
    data = _current_fields(data)
    train = _current_fields(data.pop("train"))
    data["hidden"] = tuple(data["hidden"])
    return ModelConfig(train=TrainConfig(**train), **data)


def _verify_layout(layout: PathLayout, entry: dict) -> None:
    """The reconstructed layout must match the one the weights were fit on."""
    stored_caps = {int(slot): int(cap) for slot, cap in entry["tf_caps"].items()}
    actual_caps = {slot: codec.cap for slot, codec in layout.tf_codecs.items()}
    problems = []
    if layout.num_variables != entry["num_variables"]:
        problems.append(
            f"{layout.num_variables} variables vs stored {entry['num_variables']}"
        )
    if [int(v) for v in layout.vocab_sizes()] != list(entry["vocab_sizes"]):
        problems.append("vocabulary sizes differ")
    if actual_caps != stored_caps:
        problems.append(
            f"tuple-factor caps {actual_caps} vs stored {stored_caps}"
        )
    if problems:
        raise ArtifactSchemaError(
            f"layout mismatch for {entry['kind']} model on path "
            f"{tuple(entry['path'])}: {'; '.join(problems)}"
        )


def _models_from_state(
    meta: dict,
    arrays: Dict[str, np.ndarray],
    db: Database,
    annotation: SchemaAnnotation,
    encoders: Dict[str, TableEncoder],
):
    models: Dict[Tuple[str, Tuple[str, ...]], _CompletionModelBase] = {}
    for entry in meta["models"]:
        path = CompletionPath(tuple(entry["path"]))
        layout = PathLayout(db, annotation, path, encoders)
        _verify_layout(layout, entry)
        try:
            config = _model_config_from_dict(entry["config"])
        except (KeyError, TypeError) as exc:
            raise ArtifactIntegrityError(
                f"stored config is inconsistent (model {entry['index']} "
                f"in {_MODELS_JSON}): {exc}"
            ) from exc
        if entry["kind"] == "ar":
            model: _CompletionModelBase = ARCompletionModel(layout, config)
        elif entry["kind"] == "ssar":
            walks = fan_out_relations(db, annotation, path)
            if not walks:
                raise ArtifactSchemaError(
                    f"stored SSAR model on {path} has no fan-out walks "
                    f"in the loaded schema"
                )
            forest = EvidenceForest(
                db, path.tables[0], walks, encoders,
                self_evidence_table=path.target,
            )
            model = SSARCompletionModel(layout, forest, config)
        else:
            raise ArtifactSchemaError(f"unknown model kind {entry['kind']!r}")
        prefix = f"model/{entry['index']}/"
        try:
            state = {name: arrays[prefix + name] for name in entry["param_names"]}
        except KeyError as exc:
            raise ArtifactIntegrityError(
                f"model parameter array missing from {_MODELS_NPZ}: {exc}"
            ) from exc
        try:
            model.load_state_dict(state)
        except ValueError as exc:
            raise ArtifactSchemaError(
                f"stored weights do not fit the reconstructed "
                f"{entry['kind']} model on {path}: {exc}"
            ) from exc
        model.mark_fitted_from_artifact(_train_result_from(entry["train_summary"]))
        models[(entry["kind"], path.tables)] = model

    candidates: Dict[str, List[CandidateScore]] = {}
    for target, scores in meta["candidates"].items():
        rebuilt = []
        for score in scores:
            key = (score["kind"], tuple(score["path"]))
            if key not in models:
                raise ArtifactIntegrityError(
                    f"candidate list references unknown model {key}"
                )
            rebuilt.append(CandidateScore(
                model=models[key],
                target_loss=float(score["target_loss"]),
                marginal_loss=float(score["marginal_loss"]),
                derived_score=(
                    None if score["derived_score"] is None
                    else float(score["derived_score"])
                ),
            ))
        candidates[target] = rebuilt
    return models, candidates


# ======================================================================
# Public API
# ======================================================================

def save_artifact(
    engine: ReStore,
    path,
    scenario: Optional[str] = None,
    overwrite: bool = False,
    parent=None,
    delta=None,
    columnar: bool = False,
) -> Path:
    """Serialize a fitted engine to ``path`` (a directory) and return it.

    ``scenario`` optionally records the registry scenario name the
    engine's dataset came from (provenance only; defaults to the engine's
    ``scenario_name``).  Refuses to clobber an existing non-empty
    directory unless ``overwrite`` is set.

    ``columnar`` stores the database as a memory-mapped column store
    (``database_store/``, one spill directory per table) instead of
    packing every column into ``database.npz``: loading such an artifact
    reopens the tables lazily, so a scale-tier engine serves without ever
    materializing its database in RAM.  The store's files are hashed into
    the manifest under ``store_files`` (``database.npz`` still carries
    the tuple-factor annotation arrays), and the database content digest
    is identical for both layouts — the two formats are interchangeable
    provenance-wise.

    ``parent`` (a path to the artifact this one was derived from — e.g.
    by :meth:`~repro.core.ReStore.fine_tune` after mutations) records
    lineage in the manifest: the parent's database digest and, when
    ``delta`` (a :class:`~repro.incremental.MutationDelta`) is given, the
    per-table mutation counts separating the two.  Lineage of a chain of
    incremental refreshes is then verifiable offline with
    :func:`verify_lineage`.
    """
    if not engine.fitted_models():
        raise ValueError("engine has no fitted models; call fit() before saving")
    if scenario is None:
        scenario = engine.scenario_name
    lineage = None
    if parent is not None:
        parent = Path(parent)
        try:
            parent_manifest = read_manifest(parent)
        except ArtifactError as exc:
            raise ArtifactLineageError(
                f"parent artifact at {parent} is unreadable: {exc}"
            ) from exc
        lineage = {
            "parent_path": str(parent),
            "parent_digest": parent_manifest.get("database_digest"),
            "parent_created_unix": parent_manifest.get("created_unix"),
            "delta": None if delta is None else delta.counts(),
        }
    elif delta is not None:
        raise ArtifactLineageError(
            "delta metadata requires a parent artifact to anchor lineage"
        )
    path = Path(path)
    if path.exists() and any(path.iterdir()) and not overwrite:
        raise FileExistsError(
            f"{path} exists and is not empty (pass overwrite=True to replace)"
        )
    path.mkdir(parents=True, exist_ok=True)

    schema, db_arrays = _database_state(
        engine.db, engine.annotation, include_tables=not columnar
    )
    store_hashes: Optional[Dict[str, str]] = None
    if columnar:
        # Tables go to a per-table mapped store (streamed in blocks);
        # database.npz keeps only the small tuple-factor arrays.
        store_dir = path / _DATABASE_STORE
        engine.db.spill_to(str(store_dir))
        store_hashes = _store_file_hashes(store_dir)
    encoder_arrays: Dict[str, np.ndarray] = {}
    encoders_meta = {
        name: _extract_arrays(
            encoder.get_state(), f"encoder/{name}", encoder_arrays
        )
        for name, encoder in engine.encoders.items()
    }
    models_meta, model_arrays = _models_state(engine)

    _write_json(path / _CONFIG, _config_to_dict(engine.config))
    _write_json(path / _SCHEMA, schema)
    _write_npz(path / _DATABASE, db_arrays)
    _write_json(path / _ENCODERS_JSON, encoders_meta)
    _write_npz(path / _ENCODERS_NPZ, encoder_arrays)
    _write_json(path / _MODELS_JSON, models_meta)
    _write_npz(path / _MODELS_NPZ, model_arrays)

    manifest = {
        "format_version": FORMAT_VERSION,
        "repro_version": repro_version(),
        "seed": engine.config.seed,
        "scenario": scenario,
        "created_unix": time.time(),
        "database_digest": database_digest(engine.db, engine.annotation),
        "num_models": len(models_meta["models"]),
        "targets": sorted(models_meta["candidates"]),
        "files": {name: _sha256_file(path / name) for name in _HASHED_FILES},
    }
    if columnar:
        manifest["database_format"] = "columnar"
        manifest["store_files"] = store_hashes
    if lineage is not None:
        manifest["lineage"] = lineage
    _write_json(path / _MANIFEST, manifest)
    return path


def artifact_lineage(path) -> Optional[dict]:
    """The lineage block of an artifact's manifest (``None`` for roots)."""
    return read_manifest(Path(path)).get("lineage")


def verify_lineage(path, parent_path=None) -> dict:
    """Check an artifact's recorded lineage against its actual parent.

    Reads the child's lineage block and the parent's manifest and
    verifies the recorded parent digest matches the parent's actual
    database digest.  ``parent_path`` defaults to the recorded one.
    Returns the lineage block on success.

    Raises
    ------
    ArtifactLineageError
        When the child records no lineage, the parent is unreadable, or
        the digests disagree (the recorded parent is not this parent).
    """
    path = Path(path)
    lineage = artifact_lineage(path)
    if lineage is None:
        raise ArtifactLineageError(f"artifact at {path} records no lineage")
    parent = Path(parent_path) if parent_path is not None else Path(
        lineage.get("parent_path", "")
    )
    try:
        parent_manifest = read_manifest(parent)
    except ArtifactError as exc:
        raise ArtifactLineageError(
            f"parent artifact at {parent} is unreadable: {exc}"
        ) from exc
    actual = parent_manifest.get("database_digest")
    recorded = lineage.get("parent_digest")
    if actual != recorded:
        raise ArtifactLineageError(
            f"lineage mismatch: artifact records parent digest "
            f"{str(recorded)[:12]}… but {parent} has {str(actual)[:12]}…"
        )
    return lineage


def read_manifest(path) -> dict:
    """The artifact's manifest, after a format-version check."""
    manifest = _read_json(Path(path) / _MANIFEST, "manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"artifact format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return manifest


def verify_artifact(path) -> dict:
    """Check every file against the manifest hashes; return the manifest."""
    path = Path(path)
    manifest = read_manifest(path)
    files = manifest.get("files")
    if not isinstance(files, dict) or set(files) != set(_HASHED_FILES):
        raise ArtifactIntegrityError(
            "manifest does not list the expected artifact files"
        )
    for name, expected in files.items():
        target = path / name
        if not target.exists():
            raise ArtifactIntegrityError(f"artifact file {name} is missing")
        actual = _sha256_file(target)
        if actual != expected:
            raise ArtifactIntegrityError(
                f"artifact file {name} is corrupted "
                f"(sha256 {actual[:12]}… != recorded {expected[:12]}…)"
            )
    if manifest.get("database_format") == "columnar":
        store_files = manifest.get("store_files")
        if not isinstance(store_files, dict) or not store_files:
            raise ArtifactIntegrityError(
                "columnar artifact manifest lists no store files"
            )
        store_dir = path / _DATABASE_STORE
        for rel, expected in store_files.items():
            target = store_dir / rel
            if not target.exists():
                raise ArtifactIntegrityError(
                    f"database store file {rel} is missing"
                )
            actual = _sha256_file(target)
            if actual != expected:
                raise ArtifactIntegrityError(
                    f"database store file {rel} is corrupted "
                    f"(sha256 {actual[:12]}… != recorded {expected[:12]}…)"
                )
    return manifest


def load_artifact(
    path,
    config_overrides: Optional[Dict] = None,
    engine: Optional[ReStore] = None,
) -> ReStore:
    """Reconstruct a ready-to-answer engine from a saved artifact.

    With ``engine`` given, the fitted state is loaded *into* that live
    engine instead (its database must match the artifact's digest —
    anything else is an :class:`ArtifactSchemaError`); its cache is
    cleared and its cache statistics reset, so ``cache_stats`` stays
    truthful.  ``config_overrides`` (fresh engines only) replaces
    execution settings such as ``chunk_size`` / ``n_workers`` /
    ``parallel_backend`` — the completed joins are identical for all of
    them, per the runtime's chunking contract.
    """
    path = Path(path)
    manifest = verify_artifact(path)

    schema = _read_json(path / _SCHEMA, "schema")
    db_arrays = _read_npz(path / _DATABASE, "database")
    if manifest.get("database_format") == "columnar":
        db, annotation = _database_from_store(path, schema, db_arrays)
    else:
        db, annotation = _database_from_state(schema, db_arrays)
    digest = database_digest(db, annotation)
    if digest != manifest.get("database_digest"):
        raise ArtifactIntegrityError(
            "reconstructed database does not match the manifest digest"
        )

    encoder_arrays = _read_npz(path / _ENCODERS_NPZ, "encoder arrays")
    encoders_meta = _restore_arrays(
        _read_json(path / _ENCODERS_JSON, "encoder state"), encoder_arrays
    )
    try:
        encoders = {
            name: TableEncoder.from_state(state)
            for name, state in encoders_meta.items()
        }
    except (KeyError, ValueError) as exc:
        raise ArtifactIntegrityError(f"encoder state is inconsistent: {exc}") from exc

    if engine is None:
        config = _config_from_dict(_read_json(path / _CONFIG, "config"))
        if config_overrides:
            retired = set(config_overrides) & _RETIRED_CONFIG_KEYS
            if retired:
                raise ArtifactError(
                    f"config_overrides {sorted(retired)} are retired settings "
                    f"the engine no longer has; drop them"
                )
            forbidden = set(config_overrides) - EXECUTION_CONFIG_FIELDS
            if forbidden:
                raise ArtifactError(
                    f"config_overrides may only change execution settings "
                    f"{sorted(EXECUTION_CONFIG_FIELDS)}; {sorted(forbidden)} "
                    f"belong to the trained state (re-fit instead)"
                )
            try:
                config = replace(config, **config_overrides)
            except TypeError as exc:
                raise ArtifactError(f"invalid config override: {exc}") from exc
        engine = ReStore(db, annotation, config)
    else:
        if config_overrides:
            raise ArtifactError(
                "config_overrides only applies when loading a fresh engine"
            )
        if database_digest(engine.db, engine.annotation) != digest:
            raise ArtifactSchemaError(
                "live engine's database does not match the artifact "
                "(digest mismatch); load into a fresh engine instead"
            )
        # Build the restored state on the live engine's own objects.
        db, annotation = engine.db, engine.annotation

    model_arrays = _read_npz(path / _MODELS_NPZ, "model arrays")
    models_meta = _read_json(path / _MODELS_JSON, "model state")
    models_meta = {
        "models": [
            {**entry, "config": _restore_arrays(entry["config"], model_arrays)}
            for entry in models_meta["models"]
        ],
        "candidates": models_meta["candidates"],
    }
    models, candidates = _models_from_state(
        models_meta, model_arrays, db, annotation, encoders
    )
    engine.adopt_fitted_state(models, candidates, encoders=encoders)
    engine.scenario_name = manifest.get("scenario")
    return engine

