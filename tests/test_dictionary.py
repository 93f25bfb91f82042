"""Dictionary columns: string columns as codes plus a vocabulary.

Every operation on a :class:`~repro.relational.DictColumn` must give, once
decoded, exactly what the same operation gives on the decoded values:
row selection, concatenation (shared, differing and empty vocabularies),
predicates and the Euclidean replacer's one-hot features.
"""

import numpy as np
import pytest

from repro.core.nn_replacement import TupleSpace
from repro.query.ast import Filter, FilterOp
from repro.query.executor import predicate_mask
from repro.relational import ColumnKind, DictColumn, Table
from repro.relational.dictionary import (
    code_dtype,
    concat_columns,
    dictionary_encode,
    object_array,
)

VOCAB = object_array(["red", "green", "blue", "", "grün"])


def _column(codes, vocab=VOCAB) -> DictColumn:
    return DictColumn(np.asarray(codes, dtype=code_dtype(len(vocab))), vocab)


def _assert_decodes_to(column, values) -> None:
    got = np.asarray(column)
    assert got.dtype == values.dtype
    assert got.tolist() == values.tolist()


class TestDictColumn:
    def test_decode_is_vocab_gathered_by_codes(self):
        column = _column([0, 2, 2, 4, 3])
        _assert_decodes_to(column, VOCAB[[0, 2, 2, 4, 3]])
        assert len(column) == 5

    @pytest.mark.parametrize("rows", [
        np.array([4, 0, 0, 2]), slice(1, 4), slice(None, None, -1),
        np.array([], dtype=np.int64), np.array([True, False, True, False, True]),
    ])
    def test_selecting_rows_keeps_the_vocabulary(self, rows):
        column = _column([0, 2, 2, 4, 3])
        picked = column[rows]
        assert isinstance(picked, DictColumn) and picked.vocab is VOCAB
        _assert_decodes_to(picked, np.asarray(column)[rows])

    def test_one_row_is_its_value(self):
        assert _column([0, 4])[1] == "grün"

    def test_dictionary_encode_lists_first_occurrences(self):
        values = object_array(["b", "a", "b", "c", "a"])
        column = dictionary_encode(values)
        assert column.vocab.tolist() == ["b", "a", "c"]
        assert column.codes.dtype == np.int16
        _assert_decodes_to(column, values)

    @pytest.mark.parametrize("values", [
        object_array(["a", 1]),
        object_array(["a", np.str_("a")]),
        np.array(["a", "b"]),
        np.arange(3),
    ])
    def test_dictionary_encode_takes_only_exact_strings(self, values):
        assert dictionary_encode(values) is None

    def test_code_dtype_ladder(self):
        assert code_dtype(0) == np.int16
        assert code_dtype(32768) == np.int16
        assert code_dtype(32769) == np.int32


class TestConcat:
    def test_shared_vocabulary_concatenates_codes(self):
        parts = [_column([0, 1]), _column([4]), _column([2, 2, 3])]
        merged = concat_columns(parts)
        assert merged.vocab is VOCAB
        np.testing.assert_array_equal(merged.codes, [0, 1, 4, 2, 2, 3])

    def test_equal_vocabularies_unite_to_the_first(self):
        copy = object_array(VOCAB.tolist())
        merged = concat_columns([_column([0, 1]), _column([4], copy)])
        assert merged.vocab.tolist() == VOCAB.tolist()
        np.testing.assert_array_equal(merged.codes, [0, 1, 4])

    def test_differing_vocabularies_unite_by_value_in_part_order(self):
        other = object_array(["blue", "black", "red"])
        third = object_array(["white"])
        parts = [_column([0, 2]), _column([1, 0, 2], other),
                 _column([0], third)]
        merged = concat_columns(parts)
        assert merged.vocab.tolist() == VOCAB.tolist() + ["black", "white"]
        _assert_decodes_to(
            merged, np.concatenate([np.asarray(p) for p in parts]))

    @pytest.mark.parametrize("empty_at", [0, 1, 2])
    def test_empty_parts(self, empty_at):
        other = object_array(["black"])
        parts = [_column([0, 3]), _column([0], other)]
        parts.insert(empty_at, _column([], object_array(["zzz", "red"])))
        merged = concat_columns(parts)
        _assert_decodes_to(
            merged, np.concatenate([np.asarray(p) for p in parts]))

    def test_plain_parts_decode_all(self):
        parts = [_column([1]), object_array(["x"])]
        merged = concat_columns(parts)
        assert isinstance(merged, np.ndarray)
        assert merged.tolist() == ["green", "x"]

    def test_union_past_int16_widens_codes(self):
        big = object_array([f"v{i}" for i in range(40_000)])
        parts = [_column([0, 1]), DictColumn(np.array([39_999], np.int32), big)]
        merged = concat_columns(parts)
        assert merged.codes.dtype == np.int32
        _assert_decodes_to(merged, object_array(["red", "green", "v39999"]))


PREDICATES = [
    Filter("c", FilterOp.EQ, "blue"),
    Filter("c", FilterOp.EQ, "absent"),
    Filter("c", FilterOp.NE, "red"),
    Filter("c", FilterOp.NE, "absent"),
    Filter("c", FilterOp.LT, "green"),
    Filter("c", FilterOp.LE, "green"),
    Filter("c", FilterOp.GT, "green"),
    Filter("c", FilterOp.GE, "grün"),
    Filter("c", FilterOp.IN, ("red", "absent", "")),
    Filter("c", FilterOp.IN, ("absent",)),
]


class TestPredicates:
    @pytest.mark.parametrize("predicate", PREDICATES, ids=str)
    @pytest.mark.parametrize("codes", [[0, 1, 2, 3, 4, 4, 0, 2], []])
    def test_mask_over_codes_equals_mask_over_values(self, predicate, codes):
        column = _column(codes)
        got = predicate_mask(column, predicate)
        want = predicate_mask(np.asarray(column), predicate)
        assert got.dtype == bool and got.shape == (len(codes),)
        np.testing.assert_array_equal(got, want)


class TestTupleSpace:
    def test_features_through_the_vocabulary(self):
        rng = np.random.default_rng(0)
        table = Table("t", {
            "id": np.arange(40),
            "colour": VOCAB[rng.integers(0, 4, size=40)],
            "x": rng.normal(size=40),
        }, {"id": ColumnKind.KEY, "colour": ColumnKind.CATEGORICAL,
            "x": ColumnKind.CONTINUOUS})
        space = TupleSpace(table)
        # Codes into a wider vocabulary, some values unknown to the table.
        column = _column(rng.integers(0, len(VOCAB), size=25))
        x = rng.normal(size=25)
        got = space.transform({"colour": column, "x": x})
        want = space.transform({"colour": np.asarray(column), "x": x})
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
