"""Tests for parallel sharded completion (:mod:`repro.runtime.parallel`).

Covers the executor contract (ordering, the pool's window of tasks in
flight, early close, per-worker state, exception surfacing) and the
determinism guarantee of the sharded incompleteness join: completed rows
at a fixed seed are bitwise identical (up to order) for serial vs thread
vs process backends and for any worker count, and parallel ``fit`` trains
models identical to a serial run.
"""

import multiprocessing
import os
import pickle
import threading
import time

import pytest

from repro.core import (
    ARCompletionModel,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    ReStore,
    ReStoreConfig,
    build_encoders,
)
from repro.datasets import (
    HousingConfig,
    SyntheticConfig,
    generate_housing,
    generate_synthetic,
)
from repro.experiments import joins_bitwise_identical
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import TrainConfig
from repro.relational import CompletionPath
from repro.runtime import PARALLEL_BACKENDS, default_chunk_size, get_executor
from repro.runtime.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)


# ----------------------------------------------------------------------
# Executor task functions (module-level: process workers pickle them
# by reference)
# ----------------------------------------------------------------------

def _double_plus_state(state, task):
    return (state or 0) + 2 * task


def _boom(state, task):
    if task == 3:
        raise ValueError(f"boom on task {task}")
    return task


def _build_state(payload):
    return {"base": payload * 10}


def _use_state(state, task):
    return state["base"] + task


def _boom_init(payload):
    raise RuntimeError(f"init exploded with payload {payload}")


def _identity(state, task):
    return task


def _count_start(state, task):
    with state["lock"]:
        state["started"] += 1
    return task


def _touch(directory, task):
    """Mark ``task`` started with a file: visible across processes."""
    open(os.path.join(directory, f"task_{task}"), "w").close()
    return task


# ----------------------------------------------------------------------
# Executor contract
# ----------------------------------------------------------------------

class TestExecutors:
    def test_factory_builds_each_backend(self):
        assert isinstance(get_executor("serial", 1), SerialExecutor)
        assert isinstance(get_executor("thread", 2), ThreadExecutor)
        assert isinstance(get_executor("process", 2), ProcessExecutor)

    def test_factory_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            get_executor("gpu", 2)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            get_executor("thread", 0)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_results_in_task_order(self, backend):
        executor = get_executor(backend, 2)
        tasks = list(range(12))
        assert list(executor.map(_double_plus_state, tasks, payload=1)) == [
            1 + 2 * t for t in tasks
        ]

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_init_builds_worker_state_from_payload(self, backend):
        executor = get_executor(backend, 2)
        out = list(executor.map(_use_state, [1, 2, 3], payload=4,
                                init=_build_state))
        assert out == [41, 42, 43]

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_crash_surfaces_original_exception(self, backend):
        """A failing task re-raises its exception instead of hanging —
        including from process workers, where it is pickled back."""
        executor = get_executor(backend, 2)
        with pytest.raises(ValueError, match="boom on task 3"):
            list(executor.map(_boom, list(range(6))))

    def test_single_worker_process_runs_inline(self):
        # n_workers=1 skips the pool; init still builds the worker state.
        out = list(ProcessExecutor(1).map(_use_state, [5], payload=2,
                                          init=_build_state))
        assert out == [25]

    def test_default_chunk_size(self):
        assert default_chunk_size(1000, 1) is None
        assert default_chunk_size(0, 4) is None
        # 4 tasks per worker: 1000 rows / (4 * 4) -> 63-row chunks.
        assert default_chunk_size(1000, 4) == 63
        assert default_chunk_size(3, 8) == 1


class TestExecutorEdgeCases:
    """The corners the first parallel PR's suite skipped: init crashes,
    single-worker short-circuits, and pool reuse after a failure."""

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_init_crash_surfaces_original_exception(self, backend):
        """A failing worker *initializer* must surface its exception, not a
        BrokenProcessPool or a hang."""
        executor = get_executor(backend, 2)
        with pytest.raises(RuntimeError, match="init exploded with payload 9"):
            list(executor.map(_identity, [1, 2, 3, 4], payload=9,
                              init=_boom_init))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_single_worker_short_circuit_equivalence(self, backend):
        """n_workers=1 runs inline; results (incl. init-derived state) are
        exactly the serial executor's."""
        tasks = list(range(8))
        serial = list(SerialExecutor().map(_use_state, tasks, payload=3,
                                           init=_build_state))
        inline = list(get_executor(backend, 1).map(_use_state, tasks, payload=3,
                                                   init=_build_state))
        assert inline == serial

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_single_task_short_circuit_equivalence(self, backend):
        """A single task never pays pool start-up, whatever the worker
        count — and the result still matches serial."""
        serial = list(SerialExecutor().map(_double_plus_state, [21], payload=1))
        pooled = list(get_executor(backend, 4).map(_double_plus_state, [21],
                                                   payload=1))
        assert pooled == serial == [43]

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_executor_reusable_after_task_error(self, backend):
        """A failed map must not poison the executor: the same instance maps
        fresh tasks afterwards (pools are per-call, state is rebuilt)."""
        executor = get_executor(backend, 2)
        with pytest.raises(ValueError, match="boom on task 3"):
            list(executor.map(_boom, list(range(6))))
        tasks = list(range(10))
        assert list(executor.map(_double_plus_state, tasks, payload=2)) == [
            2 + 2 * t for t in tasks
        ]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_executor_reusable_after_init_error(self, backend):
        executor = get_executor(backend, 2)
        with pytest.raises(RuntimeError, match="init exploded"):
            list(executor.map(_identity, [1, 2, 3], payload=0,
                              init=_boom_init))
        out = list(executor.map(_use_state, [1, 2, 3], payload=4,
                                init=_build_state))
        assert out == [41, 42, 43]


class TestStreamingMap:
    """``map`` yields each result as soon as it and every earlier task are
    done; a pool keeps at most 2 x n_workers tasks submitted but not yet
    yielded."""

    def test_window_bounds_started_tasks(self):
        executor = get_executor("thread", 2)
        state = {"lock": threading.Lock(), "started": 0}
        results = iter(executor.map(_count_start, range(40), payload=state))
        assert next(results) == 0
        time.sleep(0.1)  # time to run ahead, were the workers given more
        assert state["started"] <= 2 * executor.n_workers + 1
        assert list(results) == list(range(1, 40))
        assert state["started"] == 40

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_closing_early_cancels_unstarted_tasks(self, backend, tmp_path):
        executor = get_executor(backend, 2)
        threads = set(threading.enumerate())
        children = set(multiprocessing.active_children())
        results = iter(executor.map(_touch, range(40), payload=str(tmp_path)))
        assert next(results) == 0
        results.close()
        assert len(os.listdir(tmp_path)) <= 2 * executor.n_workers + 1
        assert set(multiprocessing.active_children()) <= children
        assert set(threading.enumerate()) <= threads


# ----------------------------------------------------------------------
# Cross-backend determinism of the sharded incompleteness join
# ----------------------------------------------------------------------

def _assert_joins_identical(a, b):
    assert a.num_synthesized == b.num_synthesized
    assert joins_bitwise_identical(a, b)


@pytest.fixture(scope="module")
def fitted_model():
    db = generate_synthetic(SyntheticConfig(num_parents=250, predictability=0.9,
                                            seed=0))
    dataset = make_incomplete(db, [RemovalSpec("tb", "b", 0.5, 0.4)],
                              tf_keep_rate=0.5, seed=1)
    encoders = build_encoders(dataset.incomplete, num_bins=8)
    layout = PathLayout(dataset.incomplete, dataset.annotation,
                        CompletionPath(("ta", "tb")), encoders)
    model = ARCompletionModel(layout, ModelConfig(hidden=(32, 32), train=FAST))
    model.fit()
    return model


@pytest.fixture(scope="module")
def fitted_dangling():
    """A path whose n:1 hop has dangling FKs — shared parents are parked on
    the workers and resolved after the merge barrier."""
    db = generate_housing(HousingConfig(seed=0, num_neighborhoods=30,
                                        num_landlords=120,
                                        apartments_per_neighborhood=6.0))
    dataset = make_incomplete(
        db, [RemovalSpec("landlord", "landlord_response_rate", 0.5, 0.4)],
        drop_dangling_links=False, seed=1,
    )
    encoders = build_encoders(dataset.incomplete, num_bins=8)
    layout = PathLayout(dataset.incomplete, dataset.annotation,
                        CompletionPath(("apartment", "landlord")), encoders)
    model = ARCompletionModel(layout, ModelConfig(hidden=(32, 32), train=FAST))
    model.fit()
    return model


@pytest.mark.slow
class TestCrossBackendJoinDeterminism:
    @pytest.fixture(scope="class")
    def serial_join(self, fitted_model):
        return IncompletenessJoin(fitted_model, seed=7).run()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_rows_identical_across_backends(self, fitted_model, serial_join,
                                            backend, n_workers):
        parallel = IncompletenessJoin(
            fitted_model, seed=7, n_workers=n_workers, parallel_backend=backend,
        ).run()
        _assert_joins_identical(serial_join, parallel)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_dangling_parents_identical(self, fitted_dangling, backend):
        """Chunks of one dangling key's children land on different workers;
        the shared synthesized parent must still be bitwise identical."""
        serial = IncompletenessJoin(fitted_dangling, seed=7).run()
        assert serial.num_synthesized.get("landlord", 0) > 0  # branch on
        parallel = IncompletenessJoin(
            fitted_dangling, seed=7, chunk_size=3,
            n_workers=4, parallel_backend=backend,
        ).run()
        _assert_joins_identical(serial, parallel)

    def test_explicit_chunk_size_respected_with_workers(self, fitted_model):
        serial = IncompletenessJoin(fitted_model, seed=3).run()
        parallel = IncompletenessJoin(
            fitted_model, seed=3, chunk_size=17,
            n_workers=2, parallel_backend="thread",
        ).run()
        _assert_joins_identical(serial, parallel)

    def test_reloaded_weights_reach_process_workers(self, fitted_model,
                                                    serial_join):
        """Weights loaded into a model that has already joined are the ones
        process workers sample with: no stale float32 networks ship."""
        other = ARCompletionModel(
            fitted_model.layout,
            ModelConfig(hidden=(32, 32), train=FAST, seed=5),
        )
        other.fit()
        before = IncompletenessJoin(
            other, seed=7, n_workers=2, parallel_backend="process",
        ).run()
        assert not joins_bitwise_identical(before, serial_join)
        other.load_state_dict(fitted_model.state_dict())
        after = IncompletenessJoin(
            other, seed=7, n_workers=2, parallel_backend="process",
        ).run()
        _assert_joins_identical(serial_join, after)


@pytest.mark.slow
class TestCompletionSnapshot:
    def test_snapshot_pickles_and_matches_model(self, fitted_model):
        """The worker payload: picklable, and it drives the join to the
        exact rows the live (compiled) model produces."""
        snapshot = fitted_model.inference_snapshot()
        restored = pickle.loads(pickle.dumps(snapshot))
        assert restored.kind == fitted_model.kind
        from_model = IncompletenessJoin(fitted_model, seed=5).run()
        from_snapshot = IncompletenessJoin(restored, seed=5).run()
        _assert_joins_identical(from_model, from_snapshot)

    def test_snapshot_requires_fitted_model(self):
        db = generate_synthetic(SyntheticConfig(num_parents=60, seed=0))
        dataset = make_incomplete(db, [RemovalSpec("tb", "b", 0.5, 0.4)], seed=1)
        encoders = build_encoders(dataset.incomplete, num_bins=8)
        layout = PathLayout(dataset.incomplete, dataset.annotation,
                            CompletionPath(("ta", "tb")), encoders)
        model = ARCompletionModel(layout, ModelConfig(hidden=(16, 16), train=FAST))
        with pytest.raises(RuntimeError, match="fitted"):
            model.inference_snapshot()


# ----------------------------------------------------------------------
# Parallel fit + engine configuration
# ----------------------------------------------------------------------

class TestEngineConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="parallel_backend"):
            ReStoreConfig(parallel_backend="quantum")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            ReStoreConfig(n_workers=0)


@pytest.mark.slow
class TestParallelFit:
    @pytest.fixture(scope="class")
    def housing_dataset(self):
        db = generate_housing(HousingConfig(seed=0, num_neighborhoods=25,
                                            num_landlords=60,
                                            apartments_per_neighborhood=4.0))
        return make_incomplete(db, [RemovalSpec("apartment", "price", 0.5, 0.4)],
                               seed=1)

    def _fit(self, dataset, backend, n_workers):
        config = ReStoreConfig(
            model=ModelConfig(hidden=(16, 16), train=FAST),
            parallel_backend=backend, n_workers=n_workers,
        )
        return ReStore.from_dataset(dataset, config).fit()

    def _candidate_key(self, engine, target):
        return [
            (c.model.kind, str(c.path), c.model.target_test_loss())
            for c in engine.candidates(target)
        ]

    @pytest.mark.parametrize("backend,n_workers", [("thread", 2), ("process", 2)])
    def test_models_identical_to_serial_fit(self, housing_dataset, backend,
                                            n_workers):
        serial = self._fit(housing_dataset, "serial", 1)
        parallel = self._fit(housing_dataset, backend, n_workers)
        assert (self._candidate_key(serial, "apartment")
                == self._candidate_key(parallel, "apartment"))
        # The engine answers queries off the worker-trained models, and the
        # completed join matches the serial engine's bitwise.
        _assert_joins_identical(
            serial.completed_join(serial.candidates("apartment")[0].model),
            parallel.completed_join(parallel.candidates("apartment")[0].model),
        )

    def test_process_fit_rebinds_models_to_parent_db(self, housing_dataset):
        """Worker-trained models come back pickled with a database copy;
        fit() re-anchors them so the parent holds one database, not one
        per trained path."""
        engine = self._fit(housing_dataset, "process", 2)
        for candidate in engine.candidates("apartment"):
            assert candidate.model.layout.db is engine.db
            forest = getattr(candidate.model, "forest", None)
            if forest is not None:
                assert forest.db is engine.db

    def test_parallel_fit_registers_all_models(self, housing_dataset):
        engine = self._fit(housing_dataset, "thread", 2)
        kinds = {c.model.kind for c in engine.candidates("apartment")}
        assert "ar" in kinds and "ssar" in kinds
        for candidate in engine.candidates("apartment"):
            key = (candidate.model.kind, candidate.path.tables)
            assert engine._models[key] is candidate.model
