"""Tests for :mod:`repro.serving.artifacts` — versioned engine artifacts.

Covers the round-trip contract (save → load → identical answers and
bitwise-identical completed joins, across registry scenarios and in a
fresh OS process), the error taxonomy (corrupted manifests, format
version mismatches, schema mismatches), execution-config overrides
(chunking / workers change nothing), and the join-cache truthfulness
guarantees when an artifact is loaded into a live engine.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.experiments import joins_bitwise_identical
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.serving import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    ArtifactVersionError,
    load_artifact,
    read_manifest,
    save_artifact,
    verify_artifact,
)

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)

#: Scenario → queries used for answer-parity checks (single-table and
#: join shapes, grouped and ungrouped).
SCENARIO_QUERIES = {
    "synthetic/biased": [
        "SELECT COUNT(*) FROM tb;",
        "SELECT COUNT(*) FROM ta NATURAL JOIN tb WHERE b = 'v1';",
        "SELECT COUNT(*) FROM ta NATURAL JOIN tb GROUP BY a;",
    ],
    "housing/H1": [
        "SELECT AVG(price) FROM apartment;",
        "SELECT COUNT(*) FROM apartment WHERE room_type = 'Entire home/apt';",
        "SELECT AVG(price) FROM neighborhood NATURAL JOIN apartment GROUP BY state;",
    ],
    "movies/M1": [
        "SELECT COUNT(*) FROM movie;",
        "SELECT AVG(production_year) FROM movie;",
        "SELECT COUNT(*) FROM movie GROUP BY genre;",
    ],
}


def _build_engine(
    scenario: str, seed: int = 3, train: TrainConfig = FAST, **config_kwargs
) -> ReStore:
    dataset = make_scenario_dataset(scenario, keep_rate=0.5, seed=1, scale=0.2)
    config = ReStoreConfig(
        model=ModelConfig(train=train), seed=seed, **config_kwargs
    )
    engine = ReStore.from_dataset(dataset, config).fit()
    engine.scenario_name = scenario
    return engine


def _edit_json(artifact: Path, name: str, edit) -> None:
    """Apply ``edit`` to one JSON file of ``artifact``; re-hash the manifest."""
    path = artifact / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    manifest = json.loads((artifact / "manifest.json").read_text())
    manifest["files"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (artifact / "manifest.json").write_text(json.dumps(manifest))


def _answers(engine: ReStore, scenario: str):
    out = {}
    for sql in SCENARIO_QUERIES[scenario]:
        try:
            out[sql] = engine.answer(parse_query(sql)).result.values
        except Exception as exc:  # parity includes the failure mode
            out[sql] = f"{type(exc).__name__}: {exc}"
    return out


@pytest.fixture(scope="module")
def synthetic_engine() -> ReStore:
    return _build_engine("synthetic/biased")


@pytest.fixture(scope="module")
def synthetic_artifact(synthetic_engine, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("artifact") / "synthetic"
    save_artifact(synthetic_engine, path, scenario="synthetic/biased")
    return path


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

class TestRoundTrip:
    @pytest.mark.parametrize("scenario", ["housing/H1", "movies/M1"])
    def test_save_load_answer_parity(self, scenario, tmp_path):
        """Loaded engines answer every workload query identically."""
        engine = _build_engine(scenario)
        expected = _answers(engine, scenario)
        save_artifact(engine, tmp_path / "a")
        loaded = ReStore.load(tmp_path / "a")
        assert _answers(loaded, scenario) == expected
        assert loaded.scenario_name == scenario

    def test_synthetic_answer_parity(self, synthetic_engine, synthetic_artifact):
        expected = _answers(synthetic_engine, "synthetic/biased")
        loaded = ReStore.load(synthetic_artifact)
        assert _answers(loaded, "synthetic/biased") == expected

    def test_completed_joins_bitwise_identical(
        self, synthetic_engine, synthetic_artifact
    ):
        """Every stored model completes to the same rows after a load."""
        loaded = ReStore.load(synthetic_artifact)
        for key, model in synthetic_engine.fitted_models().items():
            original = synthetic_engine.completed_join(model)
            restored = loaded.completed_join(loaded.fitted_models()[key])
            assert joins_bitwise_identical(original, restored)

    def test_loaded_weights_match_exactly(
        self, synthetic_engine, synthetic_artifact
    ):
        loaded = ReStore.load(synthetic_artifact)
        for key, model in synthetic_engine.fitted_models().items():
            restored = loaded.fitted_models()[key].state_dict()
            for name, value in model.state_dict().items():
                assert np.array_equal(restored[name], value), name

    def test_retired_inference_settings_still_load(
        self, synthetic_engine, synthetic_artifact, tmp_path
    ):
        """Artifacts written while inference had two backends recorded a
        ``compiled_inference`` flag in every config and an
        ``inference_backend`` per model; they load and answer unchanged."""
        old = tmp_path / "old"
        shutil.copytree(synthetic_artifact, old)
        config = json.loads((old / "config.json").read_text())
        config["compiled_inference"] = True
        config["model"]["compiled_inference"] = True
        (old / "config.json").write_text(json.dumps(config))
        models = json.loads((old / "models.json").read_text())
        assert len(models["models"]) >= 2
        for i, entry in enumerate(models["models"]):
            entry["config"]["compiled_inference"] = True
            entry["inference_backend"] = ("compiled", "autograd")[i % 2]
        (old / "models.json").write_text(json.dumps(models))
        manifest = json.loads((old / "manifest.json").read_text())
        for name in ("config.json", "models.json"):
            manifest["files"][name] = hashlib.sha256(
                (old / name).read_bytes()
            ).hexdigest()
        (old / "manifest.json").write_text(json.dumps(manifest))

        loaded = ReStore.load(old)
        assert _answers(loaded, "synthetic/biased") == _answers(
            synthetic_engine, "synthetic/biased"
        )

    def test_retired_chunk_settings_still_load(
        self, synthetic_engine, synthetic_artifact, tmp_path
    ):
        """Artifacts written while the chunk cache, the canonical grid and
        a separate full-join cache were settable recorded
        ``partial_cache_chunks``, ``progressive_chunks`` and
        ``join_cache_size``; they load and answer unchanged."""
        old = tmp_path / "old"
        shutil.copytree(synthetic_artifact, old)
        config = json.loads((old / "config.json").read_text())
        config.update(partial_cache_chunks=256, progressive_chunks=16,
                      join_cache_size=8)
        (old / "config.json").write_text(json.dumps(config))
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["files"]["config.json"] = hashlib.sha256(
            (old / "config.json").read_bytes()
        ).hexdigest()
        (old / "manifest.json").write_text(json.dumps(manifest))

        loaded = ReStore.load(old)
        assert _answers(loaded, "synthetic/biased") == _answers(
            synthetic_engine, "synthetic/biased"
        )

    def test_retired_training_backend_settings_still_load(
        self, synthetic_engine, synthetic_artifact, tmp_path
    ):
        """Artifacts written while training had two backends recorded
        ``train_backend`` in the engine config, ``train.backend`` in every
        stored model config, ``backend`` in every train summary and
        ``train_backends`` in the manifest; they load and answer unchanged."""
        old = tmp_path / "old"
        shutil.copytree(synthetic_artifact, old)

        def engine_config(config):
            config["train_backend"] = None
            config["model"]["train"]["backend"] = "fused"

        def models(meta):
            assert len(meta["models"]) >= 2
            for entry in meta["models"]:
                entry["config"]["train"]["backend"] = "fused"
                entry["train_summary"]["backend"] = "fused"

        _edit_json(old, "config.json", engine_config)
        _edit_json(old, "models.json", models)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["train_backends"] = ["fused"]
        (old / "manifest.json").write_text(json.dumps(manifest))

        loaded = ReStore.load(old)
        assert _answers(loaded, "synthetic/biased") == _answers(
            synthetic_engine, "synthetic/biased"
        )

    def test_loaded_models_point_selection_losses_at_stored_scores(
        self, synthetic_artifact
    ):
        """An artifact keeps no training data, so the §5 losses cannot be
        recomputed on a loaded model; they say where the stored ones are."""
        loaded = ReStore.load(synthetic_artifact)
        model = loaded.candidates("tb")[0].model
        for loss in (model.target_test_loss, model.marginal_target_loss):
            with pytest.raises(RuntimeError, match=r"engine\.candidates\(target\)"):
                loss()

    def test_candidate_scores_preserved(self, synthetic_engine, synthetic_artifact):
        loaded = ReStore.load(synthetic_artifact)
        original = synthetic_engine.candidates("tb")
        restored = loaded.candidates("tb")
        assert [(c.model.kind, c.path.tables) for c in restored] == [
            (c.model.kind, c.path.tables) for c in original
        ]
        assert [c.target_loss for c in restored] == [
            c.target_loss for c in original
        ]
        assert [c.marginal_loss for c in restored] == [
            c.marginal_loss for c in original
        ]

    @pytest.mark.parametrize("overrides", [
        {"chunk_size": 7},
        {"chunk_size": 13, "n_workers": 2, "parallel_backend": "thread"},
    ])
    def test_execution_overrides_do_not_change_rows(
        self, synthetic_engine, synthetic_artifact, overrides
    ):
        """chunk_size / workers are execution detail, not artifact state."""
        loaded = ReStore.load(synthetic_artifact, config_overrides=overrides)
        for key, model in synthetic_engine.fitted_models().items():
            original = synthetic_engine.completed_join(model)
            restored = loaded.completed_join(loaded.fitted_models()[key])
            assert joins_bitwise_identical(original, restored)

    def test_manifest_contents(self, synthetic_engine, synthetic_artifact):
        manifest = read_manifest(synthetic_artifact)
        assert manifest["format_version"] == 1
        assert manifest["repro_version"] == repro.__version__
        assert manifest["seed"] == synthetic_engine.config.seed
        assert manifest["scenario"] == "synthetic/biased"
        assert manifest["targets"] == ["tb"]
        assert set(manifest["files"]) == {
            "config.json", "schema.json", "database.npz",
            "encoders.json", "encoders.npz", "models.json", "models.npz",
        }
        verify_artifact(synthetic_artifact)  # hashes hold

    def test_train_result_provenance_round_trips(
        self, synthetic_engine, synthetic_artifact
    ):
        """Per-epoch wall times survive save/load."""
        loaded = ReStore.load(synthetic_artifact)
        for key, model in synthetic_engine.fitted_models().items():
            original = model.train_result
            restored = loaded.fitted_models()[key].train_result
            assert restored.epoch_wall_times_s == pytest.approx(
                original.epoch_wall_times_s
            )
            assert len(restored.epoch_wall_times_s) == original.epochs_run

    def test_fresh_process_parity(self, tmp_path):
        """The acceptance check: a fresh OS process loads the artifact and
        answers the workload with results identical to the in-memory
        engine at the same seed."""
        engine = _build_engine("synthetic/biased")
        artifact = tmp_path / "artifact"
        save_artifact(engine, artifact, scenario="synthetic/biased")
        expected = _answers(engine, "synthetic/biased")
        script = (
            "import json, sys\n"
            "from repro import ReStore, parse_query\n"
            "engine = ReStore.load(sys.argv[1])\n"
            "out = {}\n"
            "for sql in json.loads(sys.argv[2]):\n"
            "    values = engine.answer(parse_query(sql)).result.values\n"
            "    out[sql] = [[list(k), v] for k, v in values.items()]\n"
            "print(json.dumps(out))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(artifact),
             json.dumps(SCENARIO_QUERIES["synthetic/biased"])],
            capture_output=True, text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout)
        for sql, values in expected.items():
            assert fresh[sql] == [[list(k), v] for k, v in values.items()], sql


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------

class TestErrors:
    def _copy_artifact(self, source: Path, dest: Path) -> Path:
        dest.mkdir()
        for item in source.iterdir():
            (dest / item.name).write_bytes(item.read_bytes())
        return dest

    def test_save_requires_fitted_engine(self, tmp_path):
        dataset = make_scenario_dataset(
            "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
        )
        engine = ReStore.from_dataset(dataset)  # never fitted
        with pytest.raises(ValueError, match="no fitted models"):
            save_artifact(engine, tmp_path / "x")

    def test_save_refuses_nonempty_dir(self, synthetic_engine, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "junk.txt").write_text("hello")
        with pytest.raises(FileExistsError):
            save_artifact(synthetic_engine, target)
        save_artifact(synthetic_engine, target, overwrite=True)
        assert ReStore.load(target).fitted_models()

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ArtifactIntegrityError, match="missing manifest"):
            load_artifact(tmp_path / "empty")

    def test_corrupted_manifest_json(self, synthetic_artifact, tmp_path):
        broken = self._copy_artifact(synthetic_artifact, tmp_path / "broken")
        (broken / "manifest.json").write_text("{not valid json", encoding="utf-8")
        with pytest.raises(ArtifactIntegrityError, match="not valid JSON"):
            load_artifact(broken)

    def test_format_version_mismatch(self, synthetic_artifact, tmp_path):
        future = self._copy_artifact(synthetic_artifact, tmp_path / "future")
        manifest = json.loads((future / "manifest.json").read_text())
        manifest["format_version"] = 99
        (future / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactVersionError, match="99"):
            load_artifact(future)

    def test_tampered_file_fails_hash_check(self, synthetic_artifact, tmp_path):
        tampered = self._copy_artifact(synthetic_artifact, tmp_path / "tampered")
        payload = (tampered / "models.npz").read_bytes()
        flipped = payload[:100] + bytes([payload[100] ^ 0xFF]) + payload[101:]
        (tampered / "models.npz").write_bytes(flipped)
        with pytest.raises(ArtifactIntegrityError, match="corrupted"):
            load_artifact(tampered)

    def test_missing_data_file(self, synthetic_artifact, tmp_path):
        partial = self._copy_artifact(synthetic_artifact, tmp_path / "partial")
        (partial / "database.npz").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            load_artifact(partial)

    def test_manifest_without_file_hashes(self, synthetic_artifact, tmp_path):
        hollow = self._copy_artifact(synthetic_artifact, tmp_path / "hollow")
        manifest = json.loads((hollow / "manifest.json").read_text())
        del manifest["files"]
        (hollow / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="expected artifact files"):
            load_artifact(hollow)

    @pytest.mark.parametrize("name,level", [
        ("config.json", lambda config: config),
        ("config.json", lambda config: config["model"]),
        ("config.json", lambda config: config["model"]["train"]),
        ("models.json", lambda meta: meta["models"][0]["config"]),
        ("models.json", lambda meta: meta["models"][0]["config"]["train"]),
    ], ids=["engine", "model", "train", "stored-model", "stored-train"])
    def test_unknown_config_field_still_rejected(
        self, synthetic_artifact, tmp_path, name, level
    ):
        """Only retired fields are dropped on load; any other field the
        config classes lack still marks the stored config inconsistent."""
        odd = self._copy_artifact(synthetic_artifact, tmp_path / "odd")
        _edit_json(odd, name, lambda doc: level(doc).update(no_such_field=1))
        with pytest.raises(ArtifactIntegrityError,
                           match="stored config is inconsistent"):
            load_artifact(odd)

    def test_load_into_mismatched_engine(self, synthetic_artifact):
        other = ReStore.from_dataset(make_scenario_dataset(
            "synthetic/mcar", keep_rate=0.5, seed=7, scale=0.2
        ))
        with pytest.raises(ArtifactSchemaError, match="does not match"):
            load_artifact(synthetic_artifact, engine=other)

    def test_overrides_rejected_for_live_engine(
        self, synthetic_engine, synthetic_artifact
    ):
        with pytest.raises(ValueError, match="fresh engine"):
            load_artifact(
                synthetic_artifact,
                engine=synthetic_engine,
                config_overrides={"chunk_size": 4},
            )

    @pytest.mark.parametrize("overrides", [
        {"seed": 7},                     # changes the completed joins
        {"num_bins": 8},                 # belongs to the fitted codecs
        {"seed": 7, "chunk_size": 4},    # one bad key taints the call
    ])
    def test_trained_state_overrides_rejected(self, synthetic_artifact, overrides):
        """Only execution-only settings may be overridden on load."""
        with pytest.raises(ValueError, match="execution settings"):
            load_artifact(synthetic_artifact, config_overrides=overrides)

    @pytest.mark.parametrize("overrides", [
        {"join_cache_size": 8},
        {"partial_cache_chunks": 256},
        {"compiled_inference": True},
        {"chunk_size": 4, "join_cache_size": 8},
    ])
    def test_retired_overrides_rejected(self, synthetic_artifact, overrides):
        """A setting the engine no longer has is named retired, not
        trained state: re-fitting would not make it settable."""
        with pytest.raises(ArtifactError, match="retired") as info:
            load_artifact(synthetic_artifact, config_overrides=overrides)
        assert "re-fit" not in str(info.value)


# ----------------------------------------------------------------------
# Join-cache truthfulness around loads (regression: stale caches)
# ----------------------------------------------------------------------

class TestCacheAfterLoad:
    def test_fresh_load_starts_with_empty_truthful_cache(self, synthetic_artifact):
        loaded = ReStore.load(synthetic_artifact)
        assert len(loaded.partial_cache) == 0
        assert loaded.cache_stats.requests == 0
        query = parse_query("SELECT COUNT(*) FROM tb;")
        first = loaded.answer(query)
        assert not first.from_cache and loaded.cache_stats.misses == 1
        second = loaded.answer(query)
        assert second.from_cache and loaded.cache_stats.hits == 1

    def test_load_into_live_engine_invalidates_stale_joins(
        self, synthetic_artifact
    ):
        """Loading over a live engine must not serve the old models' joins."""
        # Same data + seed as the artifact (loads into a live engine require
        # a matching database), but trained far shorter — so the live
        # engine's models, and its cached joins, genuinely differ from the
        # artifact's state.
        engine = _build_engine(
            "synthetic/biased",
            train=TrainConfig(epochs=1, batch_size=128, lr=1e-2, patience=1),
        )
        query = parse_query("SELECT COUNT(*) FROM ta NATURAL JOIN tb;")
        engine.answer(query)
        warm = engine.answer(query)
        assert engine.cache_stats.hits >= 1 and engine.join_cached(warm.model)

        load_artifact(synthetic_artifact, engine=engine)
        # Stale joins are gone and the statistics describe the new era only.
        assert len(engine.partial_cache) == 0
        assert engine.cache_stats.requests == 0
        answer = engine.answer(query)
        assert not answer.from_cache
        assert engine.cache_stats.misses == 1 and engine.cache_stats.hits == 0
        # The adopted state answers exactly like a fresh load — not like the
        # live engine's own (shorter-trained) models.
        fresh = ReStore.load(synthetic_artifact)
        assert engine.answer(query).result.values == \
            fresh.answer(query).result.values

    def test_refit_after_load_invalidates_and_retrains(self, synthetic_artifact):
        loaded = ReStore.load(synthetic_artifact)
        answer = loaded.answer(parse_query("SELECT COUNT(*) FROM tb;"))
        assert loaded.join_cached(answer.model)
        loaded.fit()
        assert len(loaded.partial_cache) == 0  # stale joins dropped by re-fit
        for model in loaded.fitted_models().values():
            assert model.train_result is not None
            assert model.train_result.val_indices is not None  # really trained
        loaded.answer(parse_query("SELECT COUNT(*) FROM tb;"))

    def test_clear_cache_after_load_resets_counters(self, synthetic_artifact):
        loaded = ReStore.load(synthetic_artifact)
        loaded.answer(parse_query("SELECT COUNT(*) FROM tb;"))
        loaded.clear_cache()
        assert len(loaded.partial_cache) == 0
        assert loaded.cache_stats.requests == 0


# ----------------------------------------------------------------------
# Version satellite
# ----------------------------------------------------------------------

class TestVersion:
    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        import re
        declared = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), flags=re.M
        ).group(1)
        assert repro.__version__ == declared

    def test_version_is_exported(self):
        assert repro.repro_version() == repro.__version__
        assert repro.__version__ != "0.0.0+unknown"
