"""Tests for evaluation metrics, workload definitions and experiment helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    bias_reduction,
    cardinality_correction,
    categorical_fraction,
    relative_error,
    relative_error_improvement,
    weighted_average,
)
from repro.query import QueryResult
from repro.workloads import (
    ALL_SETUPS,
    HOUSING_SETUPS,
    MOVIES_SETUPS,
    base_database,
    queries_for,
)


class TestRelativeError:
    def test_scalar(self):
        est = QueryResult({(): 90.0})
        truth = QueryResult({(): 100.0})
        assert relative_error(est, truth) == pytest.approx(0.1)

    def test_group_average(self):
        est = QueryResult({("a",): 90.0, ("b",): 110.0})
        truth = QueryResult({("a",): 100.0, ("b",): 100.0})
        assert relative_error(est, truth) == pytest.approx(0.1)

    def test_missing_group_counts_as_one(self):
        est = QueryResult({("a",): 100.0})
        truth = QueryResult({("a",): 100.0, ("b",): 50.0})
        assert relative_error(est, truth) == pytest.approx(0.5)

    def test_zero_truth_guard(self):
        est = QueryResult({(): 0.0})
        truth = QueryResult({(): 0.0})
        assert relative_error(est, truth) == 0.0
        est2 = QueryResult({(): 5.0})
        assert relative_error(est2, truth) == 1.0

    def test_empty_truth(self):
        assert relative_error(QueryResult({}), QueryResult({})) == 0.0
        assert relative_error(QueryResult({(): 1.0}), QueryResult({})) == 1.0

    def test_improvement_sign(self):
        truth = QueryResult({(): 100.0})
        incomplete = QueryResult({(): 50.0})
        completed = QueryResult({(): 90.0})
        assert relative_error_improvement(incomplete, completed, truth) > 0
        assert relative_error_improvement(completed, incomplete, truth) < 0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1, 1000), st.floats(-1000, 1000))
    def test_error_nonnegative(self, truth_value, est_value):
        err = relative_error(QueryResult({(): est_value}),
                             QueryResult({(): truth_value}))
        assert err >= 0


class TestBiasReduction:
    def test_perfect_completion(self):
        assert bias_reduction(100.0, 50.0, 100.0) == pytest.approx(1.0)

    def test_no_improvement(self):
        assert bias_reduction(100.0, 50.0, 50.0) == pytest.approx(0.0)

    def test_worse_than_incomplete(self):
        assert bias_reduction(100.0, 50.0, 0.0) < 0

    def test_undefined_when_no_bias(self):
        assert np.isnan(bias_reduction(100.0, 100.0, 90.0))

    def test_cardinality_alias(self):
        assert cardinality_correction(1000, 500, 950) == pytest.approx(0.9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(10, 100), st.floats(110, 200))
    def test_bounded_above_by_one(self, completed, truth):
        incomplete = 50.0
        assert bias_reduction(truth, incomplete, completed) <= 1.0 + 1e-12


class TestWeightedStats:
    def test_weighted_average(self):
        assert weighted_average(np.array([1.0, 3.0]),
                                np.array([3.0, 1.0])) == pytest.approx(1.5)

    def test_unweighted_default(self):
        assert weighted_average(np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_categorical_fraction(self):
        vals = np.array(["a", "b", "a"], dtype=object)
        assert categorical_fraction(vals, "a") == pytest.approx(2 / 3)
        assert categorical_fraction(vals, "a",
                                    np.array([0.0, 1.0, 1.0])) == pytest.approx(0.5)

    def test_empty_inputs(self):
        assert np.isnan(weighted_average(np.array([])))
        assert np.isnan(categorical_fraction(np.array([]), "a"))
        assert np.isnan(categorical_fraction(np.array(["a"]), "a", np.array([0.0])))


class TestWorkloads:
    def test_setup_inventory_matches_fig4c(self):
        assert set(HOUSING_SETUPS) == {"H1", "H2", "H3", "H4", "H5"}
        assert set(MOVIES_SETUPS) == {"M1", "M2", "M3", "M4", "M5"}
        assert len(ALL_SETUPS) == 10

    def test_biased_attributes_match_paper(self):
        assert ALL_SETUPS["H1"].biased_attribute == "price"
        assert ALL_SETUPS["H2"].biased_attribute == "room_type"
        assert ALL_SETUPS["M1"].biased_attribute == "production_year"
        assert ALL_SETUPS["M5"].biased_attribute == "country_code"

    def test_tf_keep_rates_match_paper(self):
        assert all(s.tf_keep_rate == 0.3 for s in HOUSING_SETUPS.values())
        assert all(s.tf_keep_rate == 0.2 for s in MOVIES_SETUPS.values())

    def test_m45_remove_extra_movies(self):
        assert ALL_SETUPS["M4"].extra_removals
        assert ALL_SETUPS["M4"].extra_removals[0].table == "movie"
        assert not ALL_SETUPS["M1"].extra_removals

    def test_queries_parse_and_reference_real_columns(self):
        for dataset in ("housing", "movies"):
            db = base_database(dataset, scale=0.2)
            for name, (setup, query) in queries_for(dataset).items():
                assert setup in ALL_SETUPS
                for table in query.tables:
                    assert table in db.tables, f"{dataset} {name}: {table}"
                columns = {
                    f"{t}.{c}" for t in query.tables
                    for c in db.table(t).column_names
                }
                bare = {c.split(".")[-1] for c in columns}
                for col in query.columns_referenced():
                    assert col.split(".")[-1] in bare, f"{dataset} {name}: {col}"

    def test_setup_make_produces_incomplete(self):
        db = base_database("movies", scale=0.2)
        dataset = ALL_SETUPS["M5"].make(db, 0.5, 0.4, seed=0)
        assert not dataset.annotation.is_complete("company")
        assert not dataset.annotation.is_complete("movie")  # M5 extra removal
        # Dangling company references survive (evidence of missing tuples).
        refs = dataset.incomplete.table("movie_company")["company_id"]
        keys = set(dataset.incomplete.table("company")["id"].tolist())
        assert any(r not in keys for r in refs.tolist())

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            base_database("bogus")


@pytest.mark.slow
class TestTable1Answers:
    """Every Table 1 query answers at its setup, in the cell the cold-query
    benchmark runs (keep rate 0.5, removal correlation 0.6)."""

    @pytest.fixture(scope="class")
    def answers(self):
        from repro.experiments import ExperimentConfig, run_setup_cell
        from repro.query import execute

        config = ExperimentConfig(seed=0)
        out = {}
        for dataset in ("housing", "movies"):
            db = base_database(dataset, seed=config.seed, scale=config.scale)
            cells = {}
            for name, (setup, query) in queries_for(dataset).items():
                if setup not in cells:
                    cells[setup] = run_setup_cell(
                        ALL_SETUPS[setup], 0.5, 0.6, config, db=db
                    )
                engine, incomplete = cells[setup]
                out[f"{dataset}/{name}"] = (
                    engine.answer(query),
                    execute(db, query),
                    execute(incomplete.incomplete, query),
                )
        return out

    def test_every_query_answers_with_completion(self, answers):
        assert len(answers) == 20
        for name, (answer, _truth, _incomplete) in answers.items():
            assert answer.used_completion, name
            assert np.isfinite(list(answer.result.values.values())).all(), name

    def test_link_table_query_answers_on_a_covering_path(self, answers):
        """Movies Q7 touches only the link table ``movie_company`` among
        incomplete tables, which has no candidates of its own: it answers
        on the trained path that covers it, projected, and beats the
        incomplete database."""
        answer, truth, incomplete = answers["movies/Q7"]
        assert set(answer.query.tables) < set(answer.model.layout.path.tables)
        assert relative_error(answer.result, truth) < relative_error(
            incomplete, truth
        )


class TestExperimentHelpers:
    def test_biased_value_is_mode(self):
        from repro.experiments import biased_value_of
        db = base_database("housing", scale=0.2)
        value = biased_value_of(db, "apartment", "room_type")
        values, counts = np.unique(db.table("apartment")["room_type"],
                                   return_counts=True)
        assert value == values[counts.argmax()]

    def test_experiment_config_env(self, monkeypatch):
        from repro.experiments import ExperimentConfig, full_grid
        monkeypatch.delenv("RESTORE_BENCH_FULL", raising=False)
        assert not full_grid()
        cfg = ExperimentConfig.default()
        assert cfg.scale < 1.0
        monkeypatch.setenv("RESTORE_BENCH_FULL", "1")
        assert full_grid()
        assert ExperimentConfig.default().scale == 1.0

    def test_run_setup_cell_end_to_end(self):
        from repro.experiments import ExperimentConfig, evaluate_candidates, run_setup_cell
        cfg = ExperimentConfig(keep_rates=(0.5,), removal_correlations=(0.3,),
                               scale=0.25, epochs=4)
        setup = ALL_SETUPS["H1"]
        engine, dataset = run_setup_cell(setup, 0.5, 0.3, cfg)
        evals = evaluate_candidates(engine, dataset, setup, 0.5, 0.3)
        assert evals
        for evaluation in evals:
            assert evaluation.setup == "H1"
            assert not np.isnan(evaluation.completed_statistic)
