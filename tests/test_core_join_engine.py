"""Integration tests: incompleteness join, merging, selection, engine, confidence."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ARCompletionModel,
    BiasDirection,
    ConfidenceEstimator,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    ReStore,
    ReStoreConfig,
    SamplingBudget,
    SuspectedBias,
    build_encoders,
    compatible_order,
    merge_paths,
    training_savings,
)
from repro.core.engine import _first_rows
from repro.datasets import (
    HousingConfig,
    SyntheticConfig,
    generate_housing,
    generate_synthetic,
)
from repro.errors import QueryValidationError
from repro.incomplete import RemovalSpec, make_incomplete, registry
from repro.metrics import bias_reduction, cardinality_correction
from repro.obs import profile_kernels
from repro.nn import TrainConfig
from repro.relational import CompletionPath, enumerate_completion_paths
from repro.query import (
    Aggregate,
    AggregateKind,
    Query,
    execute,
    execute_on_join,
    parse_query,
    validate_query_columns,
)
from repro.relational import CompletionPath

FAST = TrainConfig(epochs=8, batch_size=128, lr=1e-2, patience=3)


@pytest.fixture(scope="module")
def synthetic_engineless():
    db = generate_synthetic(SyntheticConfig(num_parents=400, predictability=0.9,
                                            seed=0))
    dataset = make_incomplete(db, [RemovalSpec("tb", "b", 0.5, 0.4)],
                              tf_keep_rate=0.5, seed=1)
    encoders = build_encoders(dataset.incomplete, num_bins=8)
    layout = PathLayout(dataset.incomplete, dataset.annotation,
                        CompletionPath(("ta", "tb")), encoders)
    model = ARCompletionModel(layout, ModelConfig(hidden=(32, 32), train=FAST))
    model.fit()
    return db, dataset, model


@pytest.fixture(scope="module")
def housing_engine():
    db = generate_housing(HousingConfig(seed=0, num_neighborhoods=60,
                                        num_landlords=250,
                                        apartments_per_neighborhood=12.0))
    dataset = make_incomplete(db, [RemovalSpec("apartment", "price", 0.5, 0.4)],
                              tf_keep_rate=0.3, seed=1)
    config = ReStoreConfig(model=ModelConfig(hidden=(48, 48), train=FAST))
    engine = ReStore.from_dataset(dataset, config).fit()
    return db, dataset, engine


class TestIncompletenessJoin:
    def test_restores_cardinality(self, synthetic_engineless):
        db, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        total = completed.result.effective_weights().sum()
        true_n = len(db.table("tb"))
        inc_n = len(dataset.incomplete.table("tb"))
        assert cardinality_correction(true_n, inc_n, total) > 0.5

    def test_reduces_bias(self, synthetic_engineless):
        db, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        values = completed.result.resolve("tb.b")
        weights = completed.result.effective_weights()
        uniques, counts = np.unique(db.table("tb")["b"], return_counts=True)
        value = uniques[counts.argmax()]
        true_f = (db.table("tb")["b"] == value).mean()
        inc_f = (dataset.incomplete.table("tb")["b"] == value).mean()
        comp_f = float((weights * (values == value)).sum() / weights.sum())
        assert bias_reduction(true_f, inc_f, comp_f) > 0.3

    def test_existing_rows_preserved(self, synthetic_engineless):
        db, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        synth = completed.target_synthesized()
        inc_tb = dataset.incomplete.table("tb")
        # Every available tb tuple appears exactly once among real rows.
        real_ids = completed.result.resolve("tb.id")[~synth]
        np.testing.assert_array_equal(np.sort(real_ids), np.sort(inc_tb["id"]))

    def test_synth_ids_unique_negative(self, synthetic_engineless):
        _, __, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        synth = completed.target_synthesized()
        ids = completed.result.resolve("tb.id")[synth]
        assert (ids <= -2).all()
        assert len(np.unique(ids)) == len(ids)

    def test_stop_table_truncates(self, housing_engine):
        db, dataset, engine = housing_engine
        candidate = next(
            c for c in engine.candidates("apartment")
            if c.path.tables == ("neighborhood", "apartment")
        )
        join = IncompletenessJoin(candidate.model, seed=0)
        with pytest.raises(ValueError):
            join.run(stop_table="neighborhood")
        with pytest.raises(ValueError):
            join.run(stop_table="ghost")

    def test_deterministic_given_seed(self, synthetic_engineless):
        _, __, model = synthetic_engineless
        a = IncompletenessJoin(model, seed=7).run()
        b = IncompletenessJoin(model, seed=7).run()
        np.testing.assert_array_equal(
            a.result.resolve("tb.b"), b.result.resolve("tb.b")
        )

    def test_codes_carried_for_confidence(self, synthetic_engineless):
        _, __, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        assert completed.codes is not None
        assert len(completed.codes) == completed.num_rows


MERGE_GROUPS = Path(__file__).parent / "data" / "merge_groups.json"


def _scenario_paths(name):
    """Every completion path of a registry scenario's incomplete tables."""
    dataset = registry.make_scenario_dataset(name, seed=0, scale=0.05)
    return [
        path
        for target in sorted(dataset.annotation.incomplete_tables)
        for path in enumerate_completion_paths(
            dataset.incomplete, dataset.annotation, target
        )
    ]


def _merged(paths):
    return [
        (" ".join(group.table_order), [" ".join(p.tables) for p in group.paths])
        for group in merge_paths(paths)
    ]


class TestMerging:
    def test_subset_paths_merge(self):
        long = CompletionPath(("t3", "t2", "t1"))
        short = CompletionPath(("t3", "t2"))
        groups = merge_paths([long, short])
        assert len(groups) == 1
        assert len(groups[0]) == 2
        assert groups[0].table_order == ("t3", "t2", "t1")

    def test_conflicting_orders_do_not_merge(self):
        # p(T2|T1) and p(T1|T2) cannot share one ordering (paper example).
        a = CompletionPath(("t1", "t2"))
        b = CompletionPath(("t2", "t1"))
        groups = merge_paths([a, b])
        assert len(groups) == 2

    def test_disjoint_tables_do_not_merge(self):
        a = CompletionPath(("a", "b"))
        b = CompletionPath(("c", "d"))
        assert len(merge_paths([a, b])) == 2

    def test_compatible_order_none_for_cycle(self):
        a = CompletionPath(("t1", "t2"))
        b = CompletionPath(("t2", "t1"))
        assert compatible_order([a, b]) is None

    def test_groups_and_orders_pinned_on_every_registry_scenario(self):
        """``merge_paths`` groups and orders, as recorded when the order
        came from networkx's lexicographic topological sort."""
        pinned = json.loads(MERGE_GROUPS.read_text())
        assert sorted(pinned) == sorted(registry.names())
        for name in registry.names():
            assert _merged(_scenario_paths(name)) == [
                (order, paths) for order, paths in pinned[name]
            ], name

    def test_orders_match_networkx(self, monkeypatch):
        nx = pytest.importorskip("networkx")

        def reference(paths):
            graph = nx.DiGraph()
            for path in paths:
                graph.add_nodes_from(path.tables)
                for i, later in enumerate(path.tables):
                    for earlier in path.tables[:i]:
                        graph.add_edge(earlier, later)
            if not nx.is_directed_acyclic_graph(graph):
                return None
            return tuple(nx.lexicographical_topological_sort(graph))

        # Random path sets over few tables: ties and cycles are common.
        rng = np.random.default_rng(0)
        tables = ["a", "b", "c", "d", "e", "f"]
        for _ in range(300):
            paths = [
                CompletionPath(tuple(rng.permutation(tables)[:rng.integers(2, 5)]))
                for _ in range(rng.integers(1, 4))
            ]
            assert compatible_order(paths) == reference(paths), paths
        ours = {name: _merged(_scenario_paths(name)) for name in registry.names()}
        monkeypatch.setattr("repro.core.merging.compatible_order", reference)
        for name in registry.names():
            assert _merged(_scenario_paths(name)) == ours[name], name

    def test_training_savings(self):
        paths = [
            CompletionPath(("t3", "t2", "t1")),
            CompletionPath(("t3", "t2")),
            CompletionPath(("x", "y")),
        ]
        stats = training_savings(paths)
        assert stats["models_without_merging"] == 3
        assert stats["models_with_merging"] == 2
        assert stats["saved"] == 1


class TestEngine:
    def test_candidates_ranked_by_signal(self, housing_engine):
        _, __, engine = housing_engine
        chosen = engine.select_model("apartment")
        signals = [c.signal for c in engine.candidates("apartment")]
        assert chosen.signal == max(signals)

    def test_coverage_constraint(self, housing_engine):
        _, __, engine = housing_engine
        query = parse_query(
            "SELECT AVG(price) FROM landlord NATURAL JOIN apartment;"
        )
        chosen = engine.select_model("apartment", query=query)
        assert {"landlord", "apartment"} <= set(chosen.path.tables)

    def test_answer_complete_query_passthrough(self, housing_engine):
        db, dataset, engine = housing_engine
        query = parse_query("SELECT COUNT(*) FROM neighborhood;")
        answer = engine.answer(query)
        assert not answer.used_completion
        assert answer.result.scalar == len(dataset.incomplete.table("neighborhood"))

    def test_answer_improves_count(self, housing_engine):
        db, dataset, engine = housing_engine
        query = Query(("apartment",), Aggregate(AggregateKind.COUNT))
        truth = execute(db, query).scalar
        inc = execute(dataset.incomplete, query).scalar
        answer = engine.answer(query)
        assert abs(answer.result.scalar - truth) < abs(inc - truth)

    def test_answer_improves_avg_price(self, housing_engine):
        db, dataset, engine = housing_engine
        query = Query(("apartment",), Aggregate(AggregateKind.AVG, "price"))
        truth = execute(db, query).scalar
        inc = execute(dataset.incomplete, query).scalar
        bias = SuspectedBias("price", BiasDirection.UNDERESTIMATED)
        answer = engine.answer(query, suspected_bias=bias)
        assert abs(answer.result.scalar - truth) < abs(inc - truth)

    def test_join_cache_reused(self, housing_engine):
        _, __, engine = housing_engine
        engine.clear_cache()
        q1 = Query(("apartment",), Aggregate(AggregateKind.COUNT))
        q2 = Query(("apartment",), Aggregate(AggregateKind.AVG, "price"))
        a1 = engine.answer(q1)
        a2 = engine.answer(q2)
        same_model = (a1.model.kind, a1.model.layout.path.tables) == (
            a2.model.kind, a2.model.layout.path.tables)
        if same_model:
            assert engine.cache_stats.hits >= 1
            assert a2.from_cache

    def test_merge_stats_populated(self, housing_engine):
        _, __, engine = housing_engine
        assert engine.merge_stats["models_without_merging"] >= 2

    def test_unknown_target_raises(self, housing_engine):
        _, __, engine = housing_engine
        with pytest.raises(RuntimeError):
            engine.candidates("neighborhood")

    def test_annotation_must_cover(self):
        db = generate_housing(HousingConfig(seed=2, num_neighborhoods=10,
                                            num_landlords=20,
                                            apartments_per_neighborhood=3.0))
        from repro.relational import SchemaAnnotation
        partial = SchemaAnnotation(complete_tables={"neighborhood"},
                                   incomplete_tables={"apartment"})
        with pytest.raises(ValueError):
            ReStore(db, partial)

    def test_query_no_trained_path_covers_is_rejected(self):
        """An incomplete query table without candidates answers on a
        covering trained path; with none, the error names the tables and
        the trained paths (a ValueError, as selection errors always were)."""
        db = generate_housing(HousingConfig(seed=0, num_neighborhoods=20,
                                            num_landlords=60,
                                            apartments_per_neighborhood=6.0))
        dataset = make_incomplete(
            db,
            [RemovalSpec("apartment", "price", 0.5, 0.4),
             RemovalSpec("landlord", "landlord_response_rate", 0.5, 0.4)],
            tf_keep_rate=0.3, seed=1,
        )
        config = ReStoreConfig(model=ModelConfig(
            hidden=(16, 16), train=TrainConfig(epochs=2, batch_size=128)
        ))
        engine = ReStore.from_dataset(dataset, config).fit(targets=["apartment"])
        with pytest.raises(QueryValidationError,
                           match=r"\['landlord'\].*neighborhood -> apartment"):
            engine.answer(parse_query("SELECT COUNT(*) FROM landlord;"))


class TestProjection:
    """§4.4 projection and the columns a query's answer materializes."""

    @staticmethod
    def _reference_keep_rows(keys):
        """The projection's dedup before it sorted 1-D keys: the rows of
        the stacked identity sorted as void records."""
        identity = np.stack(keys, axis=1)
        _, first_idx = np.unique(identity, axis=0, return_index=True)
        return np.sort(first_idx)

    @pytest.mark.parametrize("num_keys", [1, 2, 3])
    def test_first_rows_equals_void_row_unique(self, num_keys):
        rng = np.random.default_rng(num_keys)
        for num_rows in [0, 1, 2, *rng.integers(3, 400, size=20)]:
            keys = []
            for _ in range(num_keys):
                key = rng.integers(0, 12, num_rows).astype(np.int64)
                synthetic = rng.random(num_rows) < 0.3
                key[synthetic] = -2 - rng.integers(
                    0, 2**62, int(synthetic.sum()), dtype=np.int64)
                keys.append(key)
            if num_rows:  # duplicate whole identity rows
                rows = rng.integers(0, num_rows, num_rows)
                keys = [key[rows] for key in keys]
            expected = self._reference_keep_rows(keys)
            assert np.array_equal(_first_rows(keys), expected)

    @pytest.fixture
    def executed(self, monkeypatch):
        """Records the join each ``execute_on_join`` call of the engine
        gets, and each ``project_to_tables`` call's completed join."""
        import repro.core.engine as engine_module

        original_project = ReStore.project_to_tables
        calls = {"joins": [], "projected": [], "project": original_project}

        def recording_execute(joined, query):
            calls["joins"].append(joined)
            return execute_on_join(joined, query)

        def recording_project(self, *args, **kwargs):
            calls["projected"].append(args[0])
            return original_project(self, *args, **kwargs)

        monkeypatch.setattr(engine_module, "execute_on_join", recording_execute)
        monkeypatch.setattr(ReStore, "project_to_tables", recording_project)
        return calls

    @pytest.mark.parametrize("sql, columns", [
        ("SELECT AVG(price) FROM apartment WHERE room_type = 'Private room'",
         {"apartment.price", "apartment.room_type"}),
        ("SELECT COUNT(*) FROM apartment", set()),
        ("SELECT SUM(price) FROM neighborhood NATURAL JOIN apartment "
         "WHERE apartment.price > 50 GROUP BY state",
         {"apartment.price", "neighborhood.state"}),
        ("SELECT COUNT(*) FROM neighborhood NATURAL JOIN apartment", set()),
    ])
    def test_answer_reads_only_referenced_columns(
        self, housing_engine, executed, sql, columns
    ):
        _db, _dataset, engine = housing_engine
        query = parse_query(sql)
        engine.answer(query)                 # cold, then warm
        answer = engine.answer(query)
        assert answer.from_cache
        completed = answer.completed
        projects = set(completed.path.tables) != set(query.tables)
        full = (executed["project"](engine, completed, query.tables)
                if projects else completed.result)
        joined = executed["joins"][-1]
        assert set(joined.columns) == columns
        assert joined.num_rows == full.num_rows
        assert np.array_equal(joined.weights, full.effective_weights())
        # Warm answers still project through the public method, handing
        # it the completed join positionally (perfbench reads args[1]).
        assert len(executed["projected"]) == (2 if projects else 0)
        assert not projects or executed["projected"][-1] is completed
        assert answer.result.values == execute_on_join(full, query).values

    def test_progressive_steps_read_only_referenced_columns(
        self, housing_engine, executed
    ):
        _db, _dataset, engine = housing_engine
        query = parse_query("SELECT AVG(price) FROM apartment")
        engine.clear_cache()
        budget = SamplingBudget(initial_chunks=1, max_chunks=3)
        steps = list(engine.answer_progressive(query, budget=budget))
        assert len(executed["joins"]) == len(steps) > 1
        assert all(set(j.columns) == {"apartment.price"}
                   for j in executed["joins"])

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) FROM ghost",                                # table
        "SELECT SUM(nope) FROM apartment",                           # column
        "SELECT SUM(id) FROM neighborhood NATURAL JOIN apartment",   # ambiguous
    ])
    @pytest.mark.parametrize("entry", ["answer", "pushdown", "progressive"])
    def test_bad_columns_rejected_before_any_completion(
        self, housing_engine, sql, entry
    ):
        _db, _dataset, engine = housing_engine
        query = parse_query(sql)
        with pytest.raises(QueryValidationError) as admission:
            validate_query_columns(engine.db, query)
        engine.clear_cache()
        with pytest.raises(QueryValidationError) as err:
            if entry == "progressive":
                next(engine.answer_progressive(query))
            else:
                engine.answer(query, pushdown=entry == "pushdown")
        assert str(err.value) == str(admission.value)
        assert len(engine.partial_cache) == 0


class TestConfidence:
    def test_band_contains_truth_and_envelope(self, synthetic_engineless):
        db, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        uniques, counts = np.unique(db.table("tb")["b"], return_counts=True)
        value = uniques[counts.argmax()]
        band = ConfidenceEstimator(model, completed).count_fraction("b", value)
        true_fraction = (db.table("tb")["b"] == value).mean()
        assert band.theoretical_min - 1e-9 <= band.lower
        assert band.upper <= band.theoretical_max + 1e-9
        assert band.contains(true_fraction)

    def test_band_ordering(self, synthetic_engineless):
        db, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        band = ConfidenceEstimator(model, completed).count_fraction("b", "v0")
        assert band.lower <= band.estimate <= band.upper

    def test_higher_confidence_wider(self, synthetic_engineless):
        db, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        narrow = ConfidenceEstimator(model, completed, 0.8).count_fraction("b", "v0")
        wide = ConfidenceEstimator(model, completed, 0.99).count_fraction("b", "v0")
        assert wide.width >= narrow.width

    def test_continuous_needs_average(self, synthetic_engineless):
        db, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        est = ConfidenceEstimator(model, completed)
        with pytest.raises(TypeError):
            est.average("b")

    def test_average_band_on_housing(self, housing_engine):
        db, dataset, engine = housing_engine
        choice = engine.select_model("apartment")
        completed = engine.completed_join(choice.model)
        band = ConfidenceEstimator(choice.model, completed).average("price")
        assert band.lower <= band.estimate <= band.upper
        assert band.theoretical_min <= band.lower
        assert band.upper <= band.theoretical_max

    def test_total_band_scales_average(self, housing_engine):
        db, dataset, engine = housing_engine
        choice = engine.select_model("apartment")
        completed = engine.completed_join(choice.model)
        est = ConfidenceEstimator(choice.model, completed)
        avg = est.average("price")
        total = est.total("price")
        weight_sum = completed.result.effective_weights().sum()
        assert total.estimate == pytest.approx(avg.estimate * weight_sum)

    def test_ssar_band_forwards_each_root_prefix_once(self, housing_engine):
        """An in-RAM join keeps its rows' root rows, so the estimator hands
        them to ``conditional_probs`` as context ids: rows sharing a root
        and a prefix share one forward, and the distributions keep their
        bits."""
        _, _, engine = housing_engine
        model = next(m for m in engine.fitted_models().values()
                     if m.kind == "ssar")
        completed = engine.completed_join(model)
        assert completed.roots is not None
        assert len(completed.roots) == completed.num_rows
        estimator = ConfidenceEstimator(model, completed)
        variable = estimator._variable_index("price")
        with profile_kernels() as profiler:
            band = estimator.average("price")
        kernels = profiler.snapshot()
        assert band.lower <= band.estimate <= band.upper
        assert kernels["made.distinct"]["rows"] < kernels["made.row_steps"]["rows"]
        synth = completed.target_synthesized()
        p_model, _ = estimator._per_tuple_distributions(variable)
        assert np.array_equal(p_model, model.conditional_probs(
            completed.codes[synth], variable, context=completed.context[synth]))

    def test_synthesis_ratio(self, synthetic_engineless):
        _, dataset, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        ratio = ConfidenceEstimator(model, completed).synthesis_ratio()
        assert 0.2 < ratio < 0.8  # half the tuples were removed

    def test_invalid_confidence_level(self, synthetic_engineless):
        _, __, model = synthetic_engineless
        completed = IncompletenessJoin(model, seed=0).run()
        with pytest.raises(ValueError):
            ConfidenceEstimator(model, completed, confidence=0.4)
