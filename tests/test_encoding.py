"""Tests for column codecs and the table encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import (
    CategoricalCodec,
    ContinuousCodec,
    TableEncoder,
    TupleFactorCodec,
)
from repro.relational import ColumnKind, Table
from repro.relational.tuple_factors import TF_UNKNOWN


def _binary_search_codes(codec, values):
    """The searchsorted encoding object arrays used to take."""
    fitted = codec._values
    pos = np.searchsorted(fitted, values)
    clipped = np.minimum(pos, len(fitted) - 1)
    found = fitted[clipped] == values
    return np.where(found, clipped + 1, CategoricalCodec.UNK).astype(np.int64)


class TestCategoricalCodec:
    @pytest.mark.parametrize("fit_dtype", [object, str])
    def test_object_arrays_match_binary_search(self, fit_dtype):
        rng = np.random.default_rng(0)
        vocab = np.array([f"v{i:03d}" for i in range(300)], dtype=object)
        codec = CategoricalCodec().fit(
            np.asarray(vocab[rng.integers(0, 250, size=2000)], dtype=fit_dtype)
        )
        # Values 250.. were never fitted; "" and "zzz" sort outside it.
        values = np.concatenate([
            vocab[rng.integers(0, 300, size=5000)],
            np.array(["", "zzz", "v"], dtype=object),
        ])
        for arr in (values, values[::-1], values[:0], values[:1]):
            got = codec.encode(arr)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _binary_search_codes(codec, arr))
        assert (codec.encode(values) == CategoricalCodec.UNK).sum() > 0

    def test_object_integers_match_binary_search(self):
        codec = CategoricalCodec().fit([3, 1, 2, 7])
        arr = np.array([1, 7, 5, 2, 0, 3], dtype=object)
        np.testing.assert_array_equal(codec.encode(arr),
                                      _binary_search_codes(codec, arr))

    def test_roundtrip(self):
        codec = CategoricalCodec().fit(["b", "a", "b", "c"])
        codes = codec.encode(["a", "b", "c"])
        decoded = codec.decode(codes)
        np.testing.assert_array_equal(decoded, ["a", "b", "c"])

    def test_vocab_includes_unk(self):
        codec = CategoricalCodec().fit(["a", "b"])
        assert codec.vocab_size == 3

    def test_unseen_maps_to_unk(self):
        codec = CategoricalCodec().fit(["a", "b"])
        codes = codec.encode(["a", "zzz"])
        assert codes[0] != CategoricalCodec.UNK
        assert codes[1] == CategoricalCodec.UNK

    def test_unk_decodes_to_known_value(self):
        codec = CategoricalCodec().fit(["a", "b"])
        decoded = codec.decode(np.array([0, 0]), rng=np.random.default_rng(0))
        assert set(decoded) <= {"a", "b"}

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CategoricalCodec().encode(["a"])
        with pytest.raises(RuntimeError):
            _ = CategoricalCodec().vocab_size

    def test_integer_categories(self):
        codec = CategoricalCodec().fit([3, 1, 2])
        np.testing.assert_array_equal(codec.decode(codec.encode([1, 3])), [1, 3])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=30))
    def test_roundtrip_property(self, values):
        codec = CategoricalCodec().fit(values)
        decoded = codec.decode(codec.encode(values))
        np.testing.assert_array_equal(decoded, np.asarray(values))


class TestContinuousCodec:
    def test_bin_count_bounded(self):
        rng = np.random.default_rng(0)
        codec = ContinuousCodec(num_bins=8).fit(rng.normal(size=500))
        assert 2 <= codec.vocab_size <= 8

    def test_encode_within_vocab(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=300)
        codec = ContinuousCodec(num_bins=16).fit(data)
        codes = codec.encode(data)
        assert codes.min() >= 0 and codes.max() < codec.vocab_size

    def test_out_of_range_clipped(self):
        codec = ContinuousCodec(num_bins=4).fit(np.linspace(0, 1, 100))
        codes = codec.encode([-100.0, 100.0])
        assert codes[0] == 0
        assert codes[1] == codec.vocab_size - 1

    def test_decode_mean_mode(self):
        data = np.concatenate([np.zeros(50), np.ones(50)])
        codec = ContinuousCodec(num_bins=2).fit(data)
        decoded = codec.decode(codec.encode([0.0, 1.0]), dequantize=False)
        np.testing.assert_allclose(decoded, [0.0, 1.0], atol=0.01)

    def test_dequantize_stays_in_bin(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 10, size=400)
        codec = ContinuousCodec(num_bins=8).fit(data)
        codes = codec.encode(data)
        decoded = codec.decode(codes, rng=np.random.default_rng(3))
        recoded = codec.encode(decoded)
        # Dequantized values land back in their own bin.
        assert (recoded == codes).mean() > 0.99

    def test_constant_column(self):
        codec = ContinuousCodec(num_bins=8).fit(np.full(10, 5.0))
        assert codec.vocab_size == 1
        decoded = codec.decode(codec.encode([5.0]), dequantize=False)
        np.testing.assert_allclose(decoded, [5.0], atol=1e-6)

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            ContinuousCodec().fit([])

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError):
            ContinuousCodec(num_bins=1)

    def test_quantile_bins_balance_mass(self):
        rng = np.random.default_rng(4)
        data = np.exp(rng.normal(size=2000))  # heavily skewed
        codec = ContinuousCodec(num_bins=10).fit(data)
        codes = codec.encode(data)
        counts = np.bincount(codes, minlength=codec.vocab_size)
        # Quantile binning keeps bins within ~3x of each other.
        assert counts.max() < 3 * max(counts.min(), 1)

    def test_mean_preserved_approximately(self):
        rng = np.random.default_rng(5)
        data = rng.gamma(2.0, 3.0, size=3000)
        codec = ContinuousCodec(num_bins=32).fit(data)
        decoded = codec.decode(codec.encode(data), dequantize=False)
        assert abs(decoded.mean() - data.mean()) / data.mean() < 0.02


class TestTupleFactorCodec:
    def test_roundtrip_known(self):
        codec = TupleFactorCodec(cap=5)
        tfs = np.array([0, 3, 5])
        np.testing.assert_array_equal(codec.decode(codec.encode(tfs)), tfs)

    def test_cap_clips(self):
        codec = TupleFactorCodec(cap=5)
        assert codec.encode([99])[0] == 5

    def test_unknown_roundtrip(self):
        codec = TupleFactorCodec(cap=5)
        codes = codec.encode([TF_UNKNOWN, 2])
        assert codes[0] == codec.unknown_code
        decoded = codec.decode(codes)
        assert decoded[0] == TF_UNKNOWN and decoded[1] == 2

    def test_sampling_mask(self):
        codec = TupleFactorCodec(cap=3)
        mask = codec.sampling_mask()
        assert mask.sum() == codec.vocab_size - 1
        assert not mask[codec.unknown_code]

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            TupleFactorCodec(cap=0)


class TestTableEncoder:
    def make_table(self):
        return Table(
            "t",
            {
                "id": [1, 2, 3, 4],
                "color": ["r", "g", "r", "b"],
                "size": [1.0, 2.0, 3.0, 4.0],
            },
            {"id": ColumnKind.KEY, "color": ColumnKind.CATEGORICAL,
             "size": ColumnKind.CONTINUOUS},
        )

    def test_keys_excluded(self):
        enc = TableEncoder(self.make_table())
        assert enc.columns == ["color", "size"]

    def test_encode_decode_shapes(self):
        table = self.make_table()
        enc = TableEncoder(table, num_bins=4)
        codes = enc.encode_table(table)
        assert codes.shape == (4, 2)
        decoded = enc.decode_codes(codes, rng=np.random.default_rng(0))
        assert set(decoded) == {"color", "size"}
        np.testing.assert_array_equal(decoded["color"], table["color"])

    def test_vocab_sizes_align(self):
        enc = TableEncoder(self.make_table(), num_bins=4)
        sizes = enc.vocab_sizes()
        assert len(sizes) == 2
        assert sizes[0] == 4  # three colors + unk

    def test_decode_wrong_shape(self):
        enc = TableEncoder(self.make_table())
        with pytest.raises(ValueError):
            enc.decode_codes(np.zeros((2, 5), dtype=int))

    def test_unknown_column(self):
        enc = TableEncoder(self.make_table())
        with pytest.raises(KeyError):
            enc.codec("ghost")

    def test_encode_columns_dict(self):
        table = self.make_table()
        enc = TableEncoder(table)
        codes = enc.encode_columns({"color": ["g"], "size": [2.5]})
        assert codes.shape == (1, 2)

    def test_keys_only_table(self):
        t = Table("link", {"a": [1], "b": [2]},
                  {"a": ColumnKind.KEY, "b": ColumnKind.KEY}, primary_key=None)
        enc = TableEncoder(t)
        assert enc.columns == []
        codes = enc.encode_table(t)
        assert codes.shape == (1, 0)
