"""Tests for AR/SSAR completion models, forests and NN replacement."""

import numpy as np
import pytest

from repro.core import (
    ARCompletionModel,
    EuclideanReplacer,
    EvidenceForest,
    ModelConfig,
    PathLayout,
    SSARCompletionModel,
    TupleSpace,
    build_child_index,
    build_encoders,
)
from repro.relational.keys import ChildIndex, gather_children
from repro.datasets import SyntheticConfig, generate_synthetic
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import TrainConfig
from repro.relational import CompletionPath, fan_out_relations

FAST = TrainConfig(epochs=6, batch_size=128, lr=1e-2, patience=3)


@pytest.fixture(scope="module")
def synthetic_setup():
    db = generate_synthetic(SyntheticConfig(num_parents=300, predictability=0.9,
                                            seed=0))
    dataset = make_incomplete(db, [RemovalSpec("tb", "b", 0.5, 0.4)],
                              tf_keep_rate=0.5, seed=1)
    encoders = build_encoders(dataset.incomplete, num_bins=8)
    layout = PathLayout(dataset.incomplete, dataset.annotation,
                        CompletionPath(("ta", "tb")), encoders)
    return db, dataset, encoders, layout


def fitted_ar(layout, epochs=6):
    model = ARCompletionModel(layout, ModelConfig(
        hidden=(32, 32), train=TrainConfig(epochs=epochs, batch_size=128,
                                           lr=1e-2, patience=3)))
    model.fit()
    return model


class TestARModel:
    def test_requires_fit(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = ARCompletionModel(layout, ModelConfig(train=FAST))
        with pytest.raises(RuntimeError):
            model.target_test_loss()
        with pytest.raises(RuntimeError):
            model.sample_slot(np.zeros((1, layout.num_variables), dtype=int), 1,
                              np.random.default_rng(0))

    def test_fit_records_result(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = fitted_ar(layout)
        assert model.train_result is not None
        assert model.train_result.epochs_run >= 3
        assert model.training_data.num_rows > 0

    def test_signal_positive_for_predictable_data(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = fitted_ar(layout, epochs=12)
        assert model.marginal_target_loss() > model.target_test_loss()

    def test_predict_tuple_factors_masks_unknown(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = fitted_ar(layout)
        prefix = np.zeros((16, layout.num_variables), dtype=np.int64)
        tfs = model.predict_tuple_factors(prefix, 1, np.random.default_rng(0))
        codec = layout.tf_codec_for(1)
        assert (tfs >= 0).all()
        assert (tfs <= codec.cap).all()
        # The sampled code was written into the prefix.
        assert (prefix[:, layout.tf_variable_index(1)] == codec.encode(tfs)).all()

    def test_predict_tuple_factors_min_counts(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = fitted_ar(layout)
        prefix = np.zeros((20, layout.num_variables), dtype=np.int64)
        mins = np.full(20, 3)
        tfs = model.predict_tuple_factors(prefix, 1, np.random.default_rng(0),
                                          min_counts=mins)
        assert (tfs >= 3).all()

    def test_min_counts_above_cap_falls_back(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = fitted_ar(layout)
        codec = layout.tf_codec_for(1)
        prefix = np.zeros((4, layout.num_variables), dtype=np.int64)
        mins = np.full(4, codec.cap + 5)
        tfs = model.predict_tuple_factors(prefix, 1, np.random.default_rng(0),
                                          min_counts=mins)
        assert (tfs == codec.cap).all()

    def test_sample_slot_fills_target(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = fitted_ar(layout)
        prefix = np.zeros((8, layout.num_variables), dtype=np.int64)
        out = model.sample_slot(prefix, 1, np.random.default_rng(0))
        start, stop = layout.slot_range(1)
        for var in range(start, stop):
            assert out[:, var].max() < layout.variables[var].vocab_size

    def test_sampled_b_tracks_evidence(self, synthetic_setup):
        db, dataset, encoders, layout = synthetic_setup
        model = fitted_ar(layout, epochs=15)
        # Encode evidence rows with a known 'a' value and check sampled 'b'
        # predominantly agrees (predictability 0.9).
        ta = dataset.incomplete.table("ta")
        codes = np.zeros((len(ta), layout.num_variables), dtype=np.int64)
        codes[:, 0] = encoders["ta"].encode_columns({"a": ta["a"]})[:, 0]
        model.predict_tuple_factors(codes, 1, np.random.default_rng(0))
        out = model.sample_slot(codes, 1, np.random.default_rng(1))
        b_var = next(i for i, v in enumerate(layout.variables)
                     if v.name == "tb.b")
        b_vals = encoders["tb"].codec("b").decode(out[:, b_var])
        agree = (b_vals == ta["a"]).mean()
        assert agree > 0.6

    def test_debias_weights_shape(self, synthetic_setup):
        *_, layout = synthetic_setup
        model = fitted_ar(layout)
        weights = model._debias_weights(model.training_data)
        assert set(weights) == set(range(layout.num_variables))
        for w in weights.values():
            assert len(w) == model.training_data.num_rows
            assert (w > 0).all() and (w <= 1.0).all()


class TestChildIndexAndForest:
    def test_child_index_counts(self, synthetic_setup):
        db, dataset, *_ = synthetic_setup
        fk = dataset.incomplete.fk_between("tb", "ta")
        index = build_child_index(dataset.incomplete, fk)
        counts = index.counts()
        assert counts.sum() == len(dataset.incomplete.table("tb"))
        # children_of matches the FK relation
        ta = dataset.incomplete.table("ta")
        tb = dataset.incomplete.table("tb")
        for parent_row in range(0, len(ta), 37):
            children = index.children_of(parent_row)
            np.testing.assert_array_equal(
                tb["ta_id"][children],
                np.full(len(children), ta["id"][parent_row]),
            )

    def test_forest_specs_and_batches(self, synthetic_setup):
        db, dataset, encoders, _ = synthetic_setup
        walks = fan_out_relations(
            dataset.incomplete, dataset.annotation,
            CompletionPath(("ta", "tb")),
        )
        assert ("ta", "tb") in walks
        forest = EvidenceForest(dataset.incomplete, "ta", walks, encoders,
                                self_evidence_table="tb")
        specs = forest.specs()
        assert [s.name for s in specs] == ["ta/tb"]
        batch = forest.batch_for_roots(np.array([0, 1, 2]))
        assert "ta/tb" in batch
        assert batch["ta/tb"].parent_ids.max(initial=-1) < 3

    def test_leave_one_out_excludes_target(self, synthetic_setup):
        db, dataset, encoders, _ = synthetic_setup
        walks = fan_out_relations(
            dataset.incomplete, dataset.annotation, CompletionPath(("ta", "tb")),
        )
        forest = EvidenceForest(dataset.incomplete, "ta", walks, encoders,
                                self_evidence_table="tb")
        fk = dataset.incomplete.fk_between("tb", "ta")
        index = build_child_index(dataset.incomplete, fk)
        # Pick a parent with at least 2 children.
        parent = next(p for p in range(len(dataset.incomplete.table("ta")))
                      if len(index.children_of(p)) >= 2)
        child = int(index.children_of(parent)[0])
        with_loo = forest.batch_for_roots(np.array([parent]),
                                          exclude_target_rows=np.array([child]))
        without = forest.batch_for_roots(np.array([parent]))
        assert with_loo["ta/tb"].num_rows == without["ta/tb"].num_rows - 1


def _gather_children_reference(index, parent_rows):
    """The per-parent loop :func:`gather_children` replaced."""
    counts = index.offsets[parent_rows + 1] - index.offsets[parent_rows]
    child_rows = np.empty(int(counts.sum()), dtype=np.int64)
    cursor = 0
    for i, parent in enumerate(parent_rows):
        n = int(counts[i])
        if n:
            start = index.offsets[parent]
            child_rows[cursor:cursor + n] = index.child_rows[start:start + n]
            cursor += n
    parent_ids = np.repeat(np.arange(len(parent_rows), dtype=np.int64), counts)
    return child_rows, parent_ids


class TestGatherChildren:
    """The CSR gather against the per-parent loop, bitwise."""

    @staticmethod
    def _index(rng, num_parents):
        counts = rng.integers(0, 4, size=num_parents)
        counts[::3] = 0  # plenty of childless parents
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        child_rows = rng.permutation(int(offsets[-1])).astype(np.int64)
        parent_of = np.empty(len(child_rows), dtype=np.int64)
        parent_of[child_rows] = np.repeat(np.arange(num_parents), counts)
        return ChildIndex(fk=None, child_rows=child_rows, offsets=offsets,
                          parent_of=parent_of)

    @pytest.mark.parametrize("case", [
        "none", "childless", "repeated_unsorted", "all", "random",
    ])
    def test_matches_per_parent_loop(self, case):
        rng = np.random.default_rng(11)
        index = self._index(rng, 40)
        childless = np.flatnonzero(index.counts() == 0)
        parent_rows = {
            "none": np.zeros(0, dtype=np.int64),
            "childless": childless[:5],
            "repeated_unsorted": np.array([7, 2, 7, 39, 0, 2, 2, 13]),
            "all": np.arange(40),
            "random": rng.integers(0, 40, size=200),
        }[case]
        got = gather_children(index, parent_rows)
        want = _gather_children_reference(index, parent_rows)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    def test_real_index_matches_per_parent_loop(self, synthetic_setup):
        _db, dataset, *_ = synthetic_setup
        fk = dataset.incomplete.fk_between("tb", "ta")
        index = build_child_index(dataset.incomplete, fk)
        rng = np.random.default_rng(12)
        parent_rows = rng.integers(0, len(index.offsets) - 1, size=500)
        for g, w in zip(gather_children(index, parent_rows),
                        _gather_children_reference(index, parent_rows)):
            np.testing.assert_array_equal(g, w)


class TestSSARModel:
    def test_fit_and_context(self, synthetic_setup):
        db, dataset, encoders, layout = synthetic_setup
        walks = fan_out_relations(
            dataset.incomplete, dataset.annotation, CompletionPath(("ta", "tb")),
        )
        forest = EvidenceForest(dataset.incomplete, "ta", walks, encoders,
                                self_evidence_table="tb")
        model = SSARCompletionModel(layout, forest, ModelConfig(
            hidden=(32, 32), train=FAST))
        model.fit()
        ctx = model.context_for_roots(np.array([0, 1]))
        assert ctx.shape == (2, model.tree_encoder.context_dim)

    def test_requires_walks(self, synthetic_setup):
        db, dataset, encoders, layout = synthetic_setup
        empty = EvidenceForest(dataset.incomplete, "ta", [], encoders)
        with pytest.raises(ValueError):
            SSARCompletionModel(layout, empty)


class TestNNReplacement:
    def test_exact_replacement_finds_identical(self, housing_mini):
        table = housing_mini.table("apartment")
        replacer = EuclideanReplacer(table, approximate=False)
        cols = {c: table[c][:2] for c in replacer.space.columns}
        rows = replacer.replace(cols)
        np.testing.assert_array_equal(rows, [0, 1])

    def test_replacement_values_include_keys(self, housing_mini):
        table = housing_mini.table("landlord")
        replacer = EuclideanReplacer(table, approximate=False)
        values = replacer.replacement_values({"age": np.array([59.2])})
        assert values["id"][0] == 3  # landlord with age 59

    def test_approximate_mode_close_to_exact(self):
        rng = np.random.default_rng(0)
        from repro.relational import ColumnKind, Table
        table = Table(
            "t",
            {"id": np.arange(500), "x": rng.normal(size=500),
             "y": rng.normal(size=500)},
            {"id": ColumnKind.KEY, "x": ColumnKind.CONTINUOUS,
             "y": ColumnKind.CONTINUOUS},
        )
        exact = EuclideanReplacer(table, approximate=False)
        approx = EuclideanReplacer(table, approximate=True, projection_dim=2)
        queries = {"x": rng.normal(size=50), "y": rng.normal(size=50)}
        rows_exact = exact.replace(queries)
        rows_approx = approx.replace(queries)
        # Approximate answers must at least be valid rows; with only 2 true
        # dims the projection preserves most neighbours.
        agree = (rows_exact == rows_approx).mean()
        assert agree > 0.3

    def test_tuple_space_onehot_distance(self, housing_mini):
        space = TupleSpace(housing_mini.table("apartment"))
        a = space.transform({"rent": [2000.0], "room_type": ["entire"],
                             "neighborhood_id": [1], "landlord_id": [1]}
                            if False else
                            {c: housing_mini.table("apartment")[c][:1]
                             for c in space.columns})
        assert a.shape[0] == 1
        assert a.shape[1] == space.dim
