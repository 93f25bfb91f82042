"""The engine's one completion executor and the one-pass chunk walk.

Every completed join — a cold ``completed_join``, a pushed ``answer``, a
progressive step, a ``recomplete`` — is the executor's walk over the
canonical chunk grid.  Contracts under test:

* with ``chunk_size=None`` the chunks a join must walk are walked in one
  pass (per worker), and the pass is split back into per-chunk outputs
  that are bitwise the chunk's solo walk, side state and row order
  included;
* the executor's full join equals a single-pass ``IncompletenessJoin.run``
  on every backend;
* a recompletion over non-adjacent missing chunks between cached ones
  equals a from-scratch run;
* ``recomplete`` and ``answer`` provenance is truthful for memoized joins
  and never rewrites results already returned.
"""

import numpy as np
import pytest

from repro.core import forest as forest_module
from repro.core import incompleteness_join as join_module
from repro.core import (
    IncompletenessJoin,
    ModelConfig,
    ReStore,
    ReStoreConfig,
    SamplingBudget,
)
from repro.core.engine import GRID_CHUNKS
from repro.core.incompleteness_join import _PassAccumulator
from repro.datasets import HousingConfig, generate_housing
from repro.encoding import TableEncoder
from repro.experiments import joins_bitwise_identical
from repro.incomplete import RemovalSpec, make_incomplete, registry
from repro.nn import TrainConfig
from repro.obs import disable_tracing, enable_tracing
from repro.query import executor as executor_module
from repro.query import parse_query
from repro.relational import ColumnKind, DictColumn
from repro.relational import keys as keys_module

FAST = TrainConfig(epochs=4, batch_size=128, lr=1e-2, patience=2)


@pytest.fixture(scope="module")
def dataset():
    db = generate_housing(HousingConfig(seed=0, num_neighborhoods=48,
                                        num_landlords=120,
                                        apartments_per_neighborhood=6.0))
    return make_incomplete(
        db,
        [RemovalSpec("apartment", "price", 0.5, 0.4),
         RemovalSpec("landlord", "landlord_response_rate", 0.5, 0.4)],
        tf_keep_rate=0.3,
        drop_dangling_links=False,  # apartments keep pointing at removed
        seed=1,                     # landlords: dangling FK evidence
    )


def make_engine(dataset, **config) -> ReStore:
    config = ReStoreConfig(model=ModelConfig(hidden=(32, 32), train=FAST),
                           seed=3, **config)
    return ReStore.from_dataset(dataset, config).fit()


@pytest.fixture(scope="module")
def engine(dataset) -> ReStore:
    return make_engine(dataset)


def _model(engine, tables):
    models = [m for m in engine.fitted_models().values()
              if m.layout.path.tables == tables]
    assert models, f"no fitted model on {tables}"
    return sorted(models, key=lambda m: m.kind)[0]


@pytest.fixture(scope="module")
def dangling_model(engine):
    """Its n:1 hop apartment → landlord meets removed landlords: dangling
    keys whose children are parked during the walk."""
    return _model(engine, ("neighborhood", "apartment", "landlord"))


@pytest.fixture(scope="module")
def movies_model():
    """Two fan-out hops apart: the second synthesizes from rows of every
    chunk, existing-derived first, so its side state arrives out of chunk
    order."""
    dataset = registry.make_scenario_dataset("movies/M5", keep_rate=0.5,
                                             seed=1, scale=0.1)
    engine = make_engine(dataset)
    return engine, _model(
        engine, ("actor", "movie_actor", "movie", "movie_company", "company"))


@pytest.fixture
def tracer():
    tracer = enable_tracing()
    yield tracer
    disable_tracing()


def _spans(tracer, name):
    return [s for s in tracer.spans() if s.name == name]


def _assert_states_equal(a, b):
    for field in ("codes", "weights", "synthesized", "current_rows",
                  "streams", "counters", "roots"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.context is None) == (b.context is None)
    if a.context is not None:
        assert np.array_equal(a.context, b.context)
    assert set(a.columns) == set(b.columns)
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name]), name


class TestOnePassWalk:
    def test_cold_join_walks_the_grid_in_one_pass(self, engine, tracer):
        model = _model(engine, ("neighborhood", "apartment"))
        assert len(engine._grid(model)) == GRID_CHUNKS
        engine.clear_cache()
        tracer.clear()
        engine.completed_join(model)
        [walk] = _spans(tracer, "join.walk_chunks")
        assert walk.attrs["chunks"] == GRID_CHUNKS
        [chunk_pass] = _spans(tracer, "join.chunk")
        assert chunk_pass.attrs["chunks"] == GRID_CHUNKS
        assert chunk_pass.attrs["rows_scanned"] == len(
            engine.db.table("neighborhood"))
        # every chunk, plus the memoized full join
        assert len(engine.partial_cache) == GRID_CHUNKS + 1

    @pytest.mark.parametrize("fitted", ["dangling", "movies"])
    def test_chunk_outputs_equal_solo_walks(self, request, fitted, tracer):
        if fitted == "dangling":
            engine = request.getfixturevalue("engine")
            model = request.getfixturevalue("dangling_model")
        else:
            engine, model = request.getfixturevalue("movies_model")
        join = IncompletenessJoin(model, seed=7)
        grid = engine._grid(model)
        tracer.clear()
        together = join.walk_chunks(list(grid))
        assert len(_spans(tracer, "join.chunk")) == 1
        assert any(o.acc.parked for o in together)  # dangling branch on
        for task, output in zip(grid, together):
            [solo] = join.walk_chunks([task])
            _assert_states_equal(output.state, solo.state)
            assert set(output.acc.parked) == set(solo.acc.parked)
            for slot, parked in solo.acc.parked.items():
                assert len(output.acc.parked[slot]) == len(parked)
                for a, b in zip(output.acc.parked[slot], parked):
                    _assert_states_equal(a, b)
            assert output.acc.num_synth == solo.acc.num_synth
            assert set(output.acc.issued_ids) == set(solo.acc.issued_ids)
            for table, ids in solo.acc.issued_ids.items():
                assert len(output.acc.issued_ids[table]) == len(ids)
                for a, b in zip(output.acc.issued_ids[table], ids):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("fitted", ["dangling", "movies"])
    def test_walk_states_hold_no_objects(self, request, fitted):
        """String columns walk as dictionary columns, parked rows too, and
        leave that form only when the in-RAM join is assembled."""
        if fitted == "dangling":
            model = request.getfixturevalue("dangling_model")
        else:
            _, model = request.getfixturevalue("movies_model")
        join = IncompletenessJoin(model, seed=7, chunk_size=50)
        outputs = join.walk_chunks(join.chunk_tasks())
        states = [o.state for o in outputs] + [
            state for o in outputs
            for parked in o.acc.parked.values() for state in parked
        ]
        if fitted == "dangling":
            assert any(o.acc.parked for o in outputs)
        columns = [v for state in states for v in state.columns.values()]
        assert any(isinstance(v, DictColumn) for v in columns)
        assert not any(isinstance(v, np.ndarray) and v.dtype == object
                       for v in columns)
        result = join.assemble(outputs).result
        strings = [name for name, v in outputs[0].state.columns.items()
                   if isinstance(v, DictColumn)]
        assert all(result.columns[name].dtype == object for name in strings)

    def test_side_state_follows_root_chunks_in_walk_order(
        self, dangling_model
    ):
        join = IncompletenessJoin(dangling_model, seed=7)
        state = join._initial_state(np.array([3, 0, 2, 1]))
        acc = _PassAccumulator([(0, 2), (2, 4)])
        acc.park(1, state)
        acc.record_synth("t", state, np.array([-3, -10, -2, -11]))
        low, high = acc.chunks
        assert [s.roots.tolist() for s in low.parked[1]] == [[0, 1]]
        assert [s.roots.tolist() for s in high.parked[1]] == [[3, 2]]
        assert low.num_synth == high.num_synth == {"t": 2}
        assert [ids.tolist() for ids in low.issued_ids["t"]] == [[-10, -11]]
        assert [ids.tolist() for ids in high.issued_ids["t"]] == [[-3, -2]]
        assert [o.state.roots.tolist() for o in acc.split(state)] == [
            [0, 1], [3, 2]]

    def test_overlapping_chunks_rejected(self, dangling_model):
        join = IncompletenessJoin(dangling_model, seed=7)
        with pytest.raises(ValueError, match="ascending and disjoint"):
            join.walk_chunks([(0, 4), (2, 6)])

    def test_budgeted_run_after_full_join_serves_only_its_prefix(
        self, engine
    ):
        """Chunks cached by a full join's pass are served one by one: a
        budgeted run over them answers as if it had walked them itself."""
        query = parse_query(
            "SELECT COUNT(*) FROM neighborhood NATURAL JOIN apartment")
        budget = SamplingBudget(initial_chunks=1, max_chunks=2)
        engine.clear_cache()
        walked = [r.result.scalar
                  for r in engine.answer_progressive(query, budget=budget)]
        assert engine.partial_cache_stats.hits == 0  # one lookup per chunk
        engine.clear_cache()
        engine.answer(query)
        served = [r.result.scalar
                  for r in engine.answer_progressive(query, budget=budget)]
        assert served == walked


class TestSameJoinsAsSinglePass:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1),
        ("thread", 2),
        pytest.param("process", 2, marks=pytest.mark.slow),
    ])
    def test_completed_join_equals_run(self, dataset, engine, backend,
                                       workers):
        parallel = ReStore(dataset.incomplete, dataset.annotation,
                           ReStoreConfig(seed=engine.config.seed,
                                         n_workers=workers,
                                         parallel_backend=backend))
        parallel.adopt_fitted_state(engine.fitted_models(),
                                    engine.candidate_scores(),
                                    encoders=engine.encoders)
        for model in parallel.fitted_models().values():
            single = IncompletenessJoin(model, seed=engine.config.seed).run()
            assert joins_bitwise_identical(parallel.completed_join(model),
                                           single)


def _count_encoded_tables(monkeypatch):
    """Names of the tables ``TableEncoder.encode_table`` encodes from now on."""
    encoded = []
    encode_table = TableEncoder.encode_table

    def counting(self, table):
        encoded.append(table.name)
        return encode_table(self, table)

    monkeypatch.setattr(TableEncoder, "encode_table", counting)
    return encoded


def _count_child_index_builds(monkeypatch):
    """FKs ``build_child_index`` builds from now on, wherever it is called
    from: every module that imports the name is patched."""
    builds = []
    build = keys_module.build_child_index

    def counting(db, fk):
        builds.append(str(fk))
        return build(db, fk)

    for module in (keys_module, forest_module, join_module, executor_module):
        monkeypatch.setattr(module, "build_child_index", counting,
                            raising=False)
    return builds


class TestRecompletion:
    def test_cold_completions_share_one_child_index(self, dataset,
                                                    monkeypatch):
        """Key structures are built once per database, and a write that
        leaves the key columns' arrays untouched hands them on: after a
        non-key update no cold completion builds its hop's child index.
        After an insert into the child table the first cold completion
        builds it and a second one, with the cache cleared in between,
        reuses it."""
        engine = make_engine(dataset)
        model = _model(engine, ("neighborhood", "apartment"))
        table = engine.db.table("neighborhood")
        column = next(c for c in table.column_names
                      if table.meta(c).kind == ColumnKind.CONTINUOUS)
        engine.apply_mutations(updates={"neighborhood": [
            {"id": int(table["id"][0]), column: float(table[column][0]) + 1.0}
        ]})
        builds = _count_child_index_builds(monkeypatch)
        for _ in range(2):
            engine.clear_cache()
            engine.completed_join(model)
        assert builds == []
        child = engine.db.table("apartment")
        row = {c: child[c][0] for c in child.column_names}
        row[child.primary_key] = int(child[child.primary_key].max()) + 1
        engine.apply_mutations(inserts={"apartment": [row]})
        for _ in range(2):
            engine.clear_cache()
            engine.completed_join(model)
        assert builds == [str(model.layout.fan_out_hops[1])]

    @pytest.mark.parametrize("table_name,column,write", [
        ("apartment", "room_type", "insert_delete"),
        ("neighborhood", "state", "update"),
    ])
    def test_vocabulary_changes_recomplete_like_scratch(
        self, dataset, table_name, column, write
    ):
        """A write that brings a string no row held and removes the row of
        another value's first occurrence changes the table's vocabulary.
        An insert and delete in the walked child table re-walks every chunk
        under the new vocabulary; root updates re-walk only their chunks,
        and the cached ones, under the old vocabulary, assemble with them.
        Either way the join equals a from-scratch completion."""
        engine = make_engine(dataset)
        model = _model(engine, ("neighborhood", "apartment"))
        engine.recomplete(model=model)
        table = engine.db.table(table_name)
        values = table[column].tolist()
        second = list(dict.fromkeys(values))[1]
        if write == "insert_delete":
            row = {c: table[c][0] for c in table.column_names}
            row["id"] = int(table["id"].max()) + 1
            row[column] = "Treehouse"
            delta = engine.apply_mutations(
                inserts={table_name: [row]},
                deletes={table_name: [int(table["id"][values.index(second)])]},
            )
        else:
            other = next(v for v in values if v != second)
            delta = engine.apply_mutations(updates={table_name: [
                {"id": int(table["id"][0]), column: "Treehouse"},
                {"id": int(table["id"][values.index(second)]), column: other},
            ]})
        warm = engine.recomplete(delta, model=model)
        walked = warm.recompletion["chunks_walked"]
        total = len(engine._grid(model))
        assert walked == total if write == "insert_delete" else 0 < walked < total
        assert "Treehouse" in warm.result.columns[f"{table_name}.{column}"]
        engine.clear_cache()
        scratch = engine.recomplete(model=model)
        assert scratch.recompletion["chunks_cached"] == 0
        assert joins_bitwise_identical(warm, scratch)

    def test_mixed_cache_matches_scratch(self, dataset, tracer, monkeypatch):
        engine = make_engine(dataset)
        model = engine._default_model()
        engine.recomplete()
        grid = engine._grid(model)
        root = model.layout.path.tables[0]
        table = engine.db.table(root)
        pk = table.primary_key
        column = next(c for c in table.column_names
                      if table.meta(c).kind == ColumnKind.CONTINUOUS)
        encoded = _count_encoded_tables(monkeypatch)
        delta = engine.apply_mutations(updates={root: [
            {pk: int(table[pk][grid[i][0]]),
             column: float(table[column][grid[i][0]]) + 1.0}
            for i in (2, 9)
        ]})
        # Evidence forests re-encode on first use, not on every write.
        assert any(m.kind == "ssar" for m in engine.fitted_models().values())
        assert encoded == []
        tracer.clear()
        warm = engine.recomplete(delta)
        assert warm.recompletion == {
            "chunks_total": len(grid), "chunks_walked": 2,
            "chunks_cached": len(grid) - 2,
        }
        [chunk_pass] = _spans(tracer, "join.chunk")
        assert chunk_pass.attrs["chunks"] == 2
        scratch = IncompletenessJoin(model, seed=engine.config.seed).run()
        assert joins_bitwise_identical(warm, scratch)

    def test_join_cache_hit_reports_every_chunk_cached(self, engine):
        engine.clear_cache()
        model = engine._default_model()
        engine.completed_join(model)
        served = engine.recomplete()
        total = len(engine._grid(model))
        assert served.recompletion == {
            "chunks_total": total, "chunks_walked": 0, "chunks_cached": total,
        }

    def test_returned_provenance_is_never_rewritten(self, engine):
        engine.clear_cache()
        first = engine.recomplete()
        total = len(engine._grid(engine._default_model()))
        cold = {"chunks_total": total, "chunks_walked": total,
                "chunks_cached": 0}
        assert first.recompletion == cold
        second = engine.recomplete()
        assert second.recompletion["chunks_walked"] == 0
        assert first.recompletion == cold
        assert second.result is first.result  # a shallow copy, no arrays

    def test_warm_answer_reports_its_own_provenance(self, engine):
        """A memo hit served through ``answer`` reports every chunk cached,
        and the cold answer's provenance stays the cold walk's."""
        query = parse_query("SELECT AVG(price) FROM apartment;")
        engine.clear_cache()
        first = engine.answer(query)
        second = engine.answer(query)
        total = len(engine._grid(first.model))
        assert total == GRID_CHUNKS
        assert not first.from_cache and second.from_cache
        assert second.completed.recompletion == {
            "chunks_total": total, "chunks_walked": 0, "chunks_cached": total,
        }
        assert second.completed.result is first.completed.result
        assert first.completed.recompletion["chunks_walked"] == total
