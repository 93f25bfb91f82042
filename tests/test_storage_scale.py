"""Out-of-core storage, the scale-tier generator and the spilled join.

Covers the column-store backends (edge cases, tamper detection, range
views), the counter-based scale generator (determinism, subset
regeneration, mmap/RAM identity), the streaming incompleteness join
(spilled chunks bitwise-identical to the in-RAM run, up to row order),
the vectorized movie generator against a per-row reference, the process
memory gauges, and the columnar artifact layout.
"""

import gc
import json
import os
import pickle
import subprocess
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    ARCompletionModel,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    ReStore,
    ReStoreConfig,
    build_encoders,
)
from repro.core.incompleteness_join import _load_state, _spill_state, _WalkState
from repro.datasets.movies import (
    COUNTRIES,
    COUNTRY_CODES,
    MoviesConfig,
    _pick_lead_companies,
    generate_movies,
)
from repro.datasets.scale import (
    SCALE_FK,
    ScaleConfig,
    annotated_mask,
    child_block,
    children_before,
    fan_outs,
    generate_scale,
    generate_scale_incomplete,
    keep_mask,
    root_block,
    scale_annotation,
    scale_training_slice,
)
from repro.errors import (
    ArtifactIntegrityError,
    StorageError,
    StoreIntegrityError,
)
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.obs import (
    current_rss_bytes,
    peak_rss_bytes,
    reset_peak_rss,
    update_process_gauges,
)
from repro.obs.metrics import MetricsRegistry
from repro.query import parse_query
from repro.relational import (
    ColumnKind,
    CompletionPath,
    Database,
    DictColumn,
    ForeignKey,
    Table,
)
from repro.relational import storage
from repro.relational.dictionary import code_dtype, object_array
from repro.relational.keys import child_index, lookup
from repro.relational.storage import (
    MappedStore,
    STORE_META,
    StoreWriter,
    contiguous_range,
    spill_arrays,
)
from repro.relational.tuple_factors import TF_UNKNOWN
from repro.runtime.cache import PartialJoinCache
from repro.serving import load_artifact, save_artifact, verify_artifact

K = ColumnKind.KEY
C = ColumnKind.CATEGORICAL
N = ColumnKind.CONTINUOUS

TINY = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)

#: A small universe the generator tests share: a few blocks' worth of roots.
CFG = ScaleConfig(num_roots_override=192, block_rows=64, seed=3)


def _table_columns(table: Table) -> dict:
    return {c: np.asarray(table[c]) for c in table.column_names}


def _assert_tables_equal(a: Table, b: Table) -> None:
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        np.testing.assert_array_equal(np.asarray(a[name]), np.asarray(b[name]))


# ----------------------------------------------------------------------
# ColumnStore edge cases
# ----------------------------------------------------------------------
@contextmanager
def _no_leaked_files():
    """Fail when a file opened inside the block is left for the collector."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


class TestStorageEdgeCases:
    def test_empty_table_round_trip(self, tmp_path):
        columns = {
            "id": np.array([], dtype=np.int64),
            "name": np.array([], dtype=object),
            "v": np.array([], dtype=np.float64),
        }
        kinds = {"id": K, "name": C, "v": N}
        store = spill_arrays(str(tmp_path / "empty"), "t", columns, kinds)
        assert store.num_rows == 0
        reopened = MappedStore.open(str(tmp_path / "empty"))
        for name in columns:
            assert len(reopened.read_full(name)) == 0
        # The dict-encoded column decodes to an (empty) object array.
        assert reopened.read_full("name").dtype == object

    def test_zero_row_blocks_interleave(self, tmp_path):
        writer = StoreWriter(str(tmp_path / "z"), "t", 4, primary_key=None)
        writer.add_column("x", N, dtype=np.float64)
        writer.add_column("s", C)
        writer.append_rows({"x": np.array([]), "s": np.array([], dtype=object)})
        writer.append_rows({"x": np.array([1.0, 2.0]),
                            "s": np.array(["a", "b"], dtype=object)})
        writer.append_rows({"x": np.array([]), "s": np.array([], dtype=object)})
        writer.append_rows({"x": np.array([3.0, 4.0]),
                            "s": np.array(["b", "c"], dtype=object)})
        store = writer.finalize()
        np.testing.assert_array_equal(store.read_full("x"), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(store.read_full("s"),
                                      np.array(["a", "b", "b", "c"], dtype=object))

    # A writer that raises closes every column file before re-raising.
    def test_underfilled_column_refuses_finalize(self, tmp_path):
        with _no_leaked_files():
            writer = StoreWriter(str(tmp_path / "u"), "t", 3, primary_key=None)
            writer.add_column("s", C)
            writer.add_column("x", N, dtype=np.float64)
            writer.append("s", np.array(["a", "b", "c"], dtype=object))
            writer.append("x", np.array([1.0]))
            with pytest.raises(StorageError, match="received 1 rows"):
                writer.finalize()
            del writer

    def test_overfilled_column_refuses_append(self, tmp_path):
        with _no_leaked_files():
            writer = StoreWriter(str(tmp_path / "o"), "t", 2, primary_key=None)
            writer.add_column("x", N, dtype=np.float64)
            writer.add_column("s", C)
            with pytest.raises(StorageError, match="past the declared"):
                writer.append("x", np.arange(3, dtype=np.float64))
            del writer

    def test_non_string_object_value_rejected(self, tmp_path):
        with _no_leaked_files():
            writer = StoreWriter(str(tmp_path / "ns"), "t", 2, primary_key=None)
            writer.add_column("x", N, dtype=np.float64)
            writer.add_column("s", C)
            with pytest.raises(StorageError, match="must contain strings"):
                writer.append_rows({"x": np.zeros(2),
                                    "s": np.array(["a", 1], dtype=object)})
            del writer

    def test_dict_overflow_promotes_to_int32(self, tmp_path):
        # More unique strings than int16 code space: the code file must be
        # stream-promoted mid-write and still round-trip bitwise.
        num = 33_000
        values = np.array([f"v{i:05d}" for i in range(num)], dtype=object)
        writer = StoreWriter(str(tmp_path / "wide"), "t", num, primary_key=None)
        writer.add_column("s", C)
        step = 8192
        for start in range(0, num, step):
            writer.append("s", values[start:start + step])
        store = writer.finalize()
        assert store.spec("s").code_dtype == np.dtype(np.int32).str
        np.testing.assert_array_equal(store.read_full("s"), values)
        # And a mid-file range decodes correctly after the promotion.
        np.testing.assert_array_equal(
            store.read_range("s", 32_700, 32_800), values[32_700:32_800]
        )
        # Dictionary blocks, each with its own vocabulary, write the same
        # code file and dictionary, byte for byte.
        rng = np.random.default_rng(5)
        coded = StoreWriter(str(tmp_path / "coded"), "t", num, primary_key=None)
        coded.add_column("s", C)
        for start in range(0, num, step):
            coded.append("s", _as_dict_column(values[start:start + step], rng))
        coded.finalize()
        for name in ("s.codes.npy", "s.dict.json"):
            assert ((tmp_path / "coded" / name).read_bytes()
                    == (tmp_path / "wide" / name).read_bytes()), name

    def test_reopen_from_fresh_process(self, tmp_path):
        columns = {
            "id": np.arange(10, dtype=np.int64),
            "name": np.array([f"n{i % 3}" for i in range(10)], dtype=object),
        }
        spill_arrays(str(tmp_path / "p"), "t", columns, {"id": K, "name": C})
        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.relational import Table\n"
            "t = Table.from_store(sys.argv[2])\n"
            "print(int(t['id'].sum()), t['name'][4])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, src, str(tmp_path / "p")],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["45", "n1"]

    def test_meta_tamper_detected(self, tmp_path):
        spill_arrays(str(tmp_path / "m"), "t",
                     {"id": np.arange(5, dtype=np.int64)}, {"id": K})
        meta_path = tmp_path / "m" / STORE_META
        meta = json.loads(meta_path.read_text())
        meta["num_rows"] = 50
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreIntegrityError, match="digest mismatch"):
            MappedStore.open(str(tmp_path / "m"))

    def test_truncated_column_file_detected(self, tmp_path):
        spill_arrays(str(tmp_path / "c"), "t",
                     {"id": np.arange(100, dtype=np.int64)}, {"id": K})
        npy = tmp_path / "c" / "id.npy"
        npy.write_bytes(npy.read_bytes()[:-16])
        with pytest.raises(StoreIntegrityError, match="bytes, expected"):
            MappedStore.open(str(tmp_path / "c"))

    def test_missing_column_file_detected(self, tmp_path):
        spill_arrays(str(tmp_path / "d"), "t",
                     {"id": np.arange(3, dtype=np.int64)}, {"id": K})
        os.remove(tmp_path / "d" / "id.npy")
        with pytest.raises(StoreIntegrityError, match="missing"):
            MappedStore.open(str(tmp_path / "d"))


def _as_dict_column(values: np.ndarray, rng) -> DictColumn:
    """``values`` as a dictionary block over a vocabulary of its own: its
    distinct values shuffled, plus one value no row uses."""
    vocab = list(dict.fromkeys(values.tolist()))
    rng.shuffle(vocab)
    vocab = object_array(vocab + [f"unused{rng.integers(1 << 30)}"])
    position = {value: i for i, value in enumerate(vocab.tolist())}
    codes = np.array([position[v] for v in values.tolist()],
                     dtype=code_dtype(len(vocab)))
    return DictColumn(codes, vocab)


def _dict_append_reference(self, values):
    """The per-row loop ``_DictColumnWriter.append`` replaced."""
    arr = np.asarray(values, dtype=object)
    codes = np.empty(len(arr), dtype=np.int64)
    for i, value in enumerate(arr):
        code = self.codes.get(value)
        if code is None:
            if not isinstance(value, str):
                raise StorageError("object columns must contain strings")
            code = len(self.values)
            self.codes[value] = code
            self.values.append(value)
        codes[i] = code
    limit = np.iinfo(self._writer.dtype).max
    if self.values and len(self.values) - 1 > limit:
        self._promote()
    return self._writer.append(codes)


class TestDictColumnWriter:
    """Store files byte-identical to the per-row encoding loop's."""

    @staticmethod
    def _blocks(case):
        rng = np.random.default_rng(4)
        if case == "low_cardinality":
            vocab = np.array(["x", "y", "z"], dtype=object)
            return [vocab[rng.integers(0, 3, size=26_000)] for _ in range(3)]
        if case == "new_values_unsorted":
            vocab = np.array([f"w{i:04d}" for i in range(2000)],
                             dtype=object)[::-1]
            return [
                np.concatenate([vocab[start:start + 250],
                                vocab[rng.integers(0, start + 250, size=750)]])
                for start in range(0, 2000, 250)
            ]
        # Promotion: the dictionary outgrows int16 in the middle of a block.
        vocab = np.array([f"v{i:05d}" for i in range(33_000)], dtype=object)
        values = np.concatenate([vocab, vocab[rng.integers(0, 33_000, 5000)]])
        return [values[start:start + 8192] for start in range(0, len(values), 8192)]

    @pytest.mark.parametrize(
        "case", ["low_cardinality", "new_values_unsorted", "promotion"]
    )
    def test_store_bytes_match_per_row_loop(self, tmp_path, monkeypatch, case):
        blocks = self._blocks(case)

        def write(directory):
            writer = StoreWriter(str(directory), "t",
                                 sum(len(b) for b in blocks), primary_key=None)
            writer.add_column("s", C)
            for block in blocks:
                writer.append("s", block)
            store = writer.finalize()
            files = {name: (directory / name).read_bytes()
                     for name in sorted(os.listdir(directory))}
            return store, files

        store, files = write(tmp_path / "vectorized")
        monkeypatch.setattr(storage._DictColumnWriter, "append",
                            _dict_append_reference)
        _, reference = write(tmp_path / "loop")
        assert files == reference
        expected = "<i4" if case == "promotion" else "<i2"
        assert store.spec("s").code_dtype == expected
        np.testing.assert_array_equal(store.read_full("s"),
                                      np.concatenate(blocks))

    @pytest.mark.parametrize("case", ["low_cardinality", "new_values_unsorted"])
    def test_dictionary_blocks_write_the_same_bytes(self, tmp_path, case):
        """Dictionary blocks, each over a vocabulary of its own, write the
        files the decoded blocks write (promotion: see
        ``test_dict_overflow_promotes_to_int32``)."""
        blocks = self._blocks(case)
        rng = np.random.default_rng(6)
        files = []
        for name, written in (
            ("values", blocks),
            ("dictionary", [_as_dict_column(b, rng) for b in blocks]),
        ):
            writer = StoreWriter(str(tmp_path / name), "t",
                                 sum(len(b) for b in blocks), primary_key=None)
            writer.add_column("s", C)
            for block in written:
                writer.append("s", block)
            writer.finalize()
            files.append({f: (tmp_path / name / f).read_bytes()
                          for f in ("s.codes.npy", "s.dict.json")})
        assert files[0] == files[1]


# ----------------------------------------------------------------------
# Row selection: range views vs. copies on both backends
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def both_backends(tmp_path_factory):
    rng = np.random.default_rng(11)
    columns = {
        "id": np.arange(500, dtype=np.int64),
        "label": np.array([f"l{i % 7}" for i in range(500)], dtype=object),
        "v": rng.normal(size=500),
    }
    kinds = {"id": K, "label": C, "v": N}
    ram = Table("t", columns, kinds)
    mapped = ram.spill_to(str(tmp_path_factory.mktemp("views") / "t"))
    return ram, mapped


class TestRangeViews:
    def test_contiguous_range_detection(self):
        assert contiguous_range(np.arange(5, 12)) == (5, 12)
        assert contiguous_range(np.array([3, 5, 4])) is None
        assert contiguous_range(np.array([2, 2, 3])) is None
        assert contiguous_range(np.array([], dtype=np.int64)) is None

    def test_in_ram_range_reads_are_views(self, both_backends):
        ram, _ = both_backends
        view = ram.column_range("v", 100, 200)
        assert np.shares_memory(view, ram.column("v"))

    def test_contiguous_select_matches_fancy(self, both_backends):
        for table in both_backends:
            mask = np.zeros(table.num_rows, dtype=bool)
            mask[40:260] = True
            picked = table.select(mask)
            for name in table.column_names:
                np.testing.assert_array_equal(
                    np.asarray(picked[name]), np.asarray(table[name])[mask]
                )

    def test_contiguous_take_matches_fancy(self, both_backends):
        scattered = np.array([3, 9, 9, 470, 22])
        for table in both_backends:
            contig = table.take(np.arange(50, 90))
            for name in table.column_names:
                np.testing.assert_array_equal(
                    np.asarray(contig[name]), np.asarray(table[name])[50:90]
                )
            fancy = table.take(scattered)
            for name in table.column_names:
                np.testing.assert_array_equal(
                    np.asarray(fancy[name]), np.asarray(table[name])[scattered]
                )

    def test_gather_contiguous_equals_range(self, both_backends):
        for table in both_backends:
            np.testing.assert_array_equal(
                table.gather("v", np.arange(10, 60)),
                table.column_range("v", 10, 60),
            )

    @pytest.mark.parametrize("rows", [
        np.arange(40, 260), np.array([3, 9, 9, 470, 22]),
        np.array([], dtype=np.int64),
    ], ids=["contiguous", "fancy", "empty"])
    def test_gather_encoded_decodes_to_gather(self, both_backends, rows):
        for table in both_backends:
            for name in table.column_names:
                got = table.gather_encoded(name, rows)
                want = table.gather(name, rows)
                assert isinstance(got, DictColumn) == (name == "label")
                decoded = np.asarray(got)
                assert decoded.dtype == want.dtype
                np.testing.assert_array_equal(decoded, want)
            # One vocabulary object per store and column.
            first = table.gather_encoded("label", np.arange(3))
            assert table.gather_encoded("label", rows).vocab is first.vocab

    def test_backends_read_identically(self, both_backends):
        ram, mapped = both_backends
        assert mapped.is_mapped and not ram.is_mapped
        _assert_tables_equal(ram, mapped)


class TestTablePickling:
    """A table pickles with its store; a mapped store as its directory."""

    @pytest.mark.parametrize("num_rows", [10, 200_000])
    def test_mapped_table_pickles_small_whatever_its_rows(self, tmp_path,
                                                          num_rows):
        rng = np.random.default_rng(num_rows)
        ram = Table("t", {
            "id": np.arange(num_rows, dtype=np.int64),
            "label": np.array([f"l{i % 7}" for i in range(num_rows)],
                              dtype=object),
            "v": rng.normal(size=num_rows),
        }, {"id": K, "label": C, "v": N})
        blob = pickle.dumps(ram.spill_to(str(tmp_path / "t")))
        assert len(blob) < 2048
        restored = pickle.loads(blob)
        assert restored.is_mapped
        assert restored.kinds() == ram.kinds()
        assert restored.primary_key == ram.primary_key
        _assert_tables_equal(restored, ram)

    @pytest.mark.parametrize("num_rows", [10, 200_000])
    def test_mapped_database_with_built_indexes_pickles_small(self, tmp_path,
                                                              num_rows):
        """Key structures live in a per-database memo, not on the database:
        a mapped database still ships as its directories."""
        rng = np.random.default_rng(num_rows)
        parent = Table("p", {"id": np.arange(num_rows, dtype=np.int64)},
                       {"id": K})
        child = Table("c", {
            "id": np.arange(num_rows, dtype=np.int64),
            "p_id": rng.integers(-1, num_rows + 5, size=num_rows),
        }, {"id": K, "p_id": K})
        fk = ForeignKey("c", "p_id", "p")
        db = Database([parent, child], [fk]).spill_to(str(tmp_path / "db"))
        index = child_index(db, fk)
        lookup(db, "c", "id", np.arange(3))
        blob = pickle.dumps(db)
        assert len(blob) < 2048
        restored = pickle.loads(blob)
        assert all(t.is_mapped for t in restored.tables.values())
        np.testing.assert_array_equal(child_index(restored, fk).parent_of,
                                      index.parent_of)

    def test_in_ram_table_round_trips(self, both_backends):
        ram, _ = both_backends
        restored = pickle.loads(pickle.dumps(ram))
        assert not restored.is_mapped
        assert restored.kinds() == ram.kinds()
        assert restored.primary_key == ram.primary_key
        _assert_tables_equal(restored, ram)


# ----------------------------------------------------------------------
# Scale-tier generator
# ----------------------------------------------------------------------
class TestScaleGenerator:
    def test_generation_is_deterministic(self):
        a = generate_scale(CFG)
        b = generate_scale(CFG)
        for name in ("site", "reading"):
            _assert_tables_equal(a.table(name), b.table(name))

    def test_seed_changes_content(self):
        a = generate_scale(CFG)
        b = generate_scale(replace(CFG, seed=4))
        assert not np.array_equal(a.table("site")["score"],
                                  b.table("site")["score"])

    def test_root_subset_regenerates_in_place(self):
        full = root_block(CFG, 0, CFG.num_roots)
        part = root_block(CFG, 50, 80)
        for name, values in part.items():
            np.testing.assert_array_equal(values, full[name][50:80])

    def test_child_subset_regenerates_in_place(self):
        full = child_block(CFG, 0, CFG.num_roots, base_child_id=0)
        base = children_before(CFG, 50)
        stop = base + int(fan_outs(CFG, 50, 80).sum())
        part = child_block(CFG, 50, 80)
        for name, values in part.items():
            np.testing.assert_array_equal(values, full[name][base:stop])

    def test_block_size_does_not_change_content(self):
        a = generate_scale(CFG)
        b = generate_scale(replace(CFG, block_rows=17))
        for name in ("site", "reading"):
            _assert_tables_equal(a.table(name), b.table(name))

    def test_mapped_generation_matches_ram(self, tmp_path):
        ram = generate_scale(CFG)
        mapped = generate_scale(CFG, spill_dir=str(tmp_path / "sf"))
        for name in ("site", "reading"):
            assert mapped.table(name).is_mapped
            _assert_tables_equal(ram.table(name), mapped.table(name))

    def test_incomplete_is_keep_masked_complete(self):
        complete = generate_scale(CFG)
        incomplete, annotation = generate_scale_incomplete(CFG)
        kept = keep_mask(CFG, complete.table("reading")["id"])
        for name in complete.table("reading").column_names:
            np.testing.assert_array_equal(
                incomplete.table("reading")[name],
                complete.table("reading")[name][kept],
            )
        assert annotation.is_complete("site")
        assert not annotation.is_complete("reading")

    def test_annotation_carries_true_fan_outs(self):
        annotation = scale_annotation(CFG)
        tfs = annotation.known_tuple_factors[str(SCALE_FK)]
        known = annotated_mask(CFG, np.arange(CFG.num_roots))
        true_fans = fan_outs(CFG, 0, CFG.num_roots)
        np.testing.assert_array_equal(tfs[known], true_fans[known])
        assert (tfs[~known] == TF_UNKNOWN).all()
        # The annotation rate is a probability, not a quota — just check
        # both populations exist at this size.
        assert 0 < known.sum() < CFG.num_roots

    def test_training_slice_is_a_prefix(self):
        small = scale_training_slice(CFG, 48)
        assert small.num_roots == 48
        full_sites = root_block(CFG, 0, 48)
        slice_sites = root_block(small, 0, 48)
        for name in full_sites:
            np.testing.assert_array_equal(slice_sites[name], full_sites[name])
        db = generate_scale(small)
        assert len(db.table("site")) == 48


# ----------------------------------------------------------------------
# Streaming (spilled) incompleteness join
# ----------------------------------------------------------------------
JOIN_CFG = ScaleConfig(num_roots_override=200, seed=5)


@pytest.fixture(scope="module")
def scale_join_setup(tmp_path_factory):
    """A tiny fitted model plus the same database on both backends."""
    db, annotation = generate_scale_incomplete(JOIN_CFG)
    mapped_dir = tmp_path_factory.mktemp("scale_db")
    mapped_db, _ = generate_scale_incomplete(JOIN_CFG, spill_dir=str(mapped_dir))
    encoders = build_encoders(db, num_bins=8)
    path = CompletionPath(("site", "reading"))
    layout = PathLayout(db, annotation, path, encoders,
                        tf_cap=JOIN_CFG.fan_out_cap)
    config = ModelConfig(hidden=(24, 24), train=TINY)
    model = ARCompletionModel(layout, config)
    model.fit()
    mapped_layout = PathLayout(mapped_db, annotation, path,
                               build_encoders(mapped_db, num_bins=8),
                               tf_cap=JOIN_CFG.fan_out_cap)
    mapped_model = ARCompletionModel(mapped_layout, config)
    mapped_model.load_state_dict(model.state_dict())
    mapped_model.mark_fitted_from_artifact()
    return model, mapped_model


def _canonical(completed):
    """Row arrays of a completed join in a content-derived canonical order."""
    result = completed.result
    keys = [result.effective_weights()]
    for name in sorted(result.columns):
        col = np.asarray(result.columns[name])
        if col.dtype == object:
            _, inverse = np.unique(col.astype(str), return_inverse=True)
            keys.append(inverse)
        else:
            keys.append(col)
    order = np.lexsort(tuple(keys))
    arrays = {
        name: np.asarray(result.columns[name])[order]
        for name in result.columns
    }
    arrays["__weights__"] = result.effective_weights()[order]
    arrays["__synth__"] = completed.target_synthesized()[order]
    arrays["__codes__"] = np.asarray(completed.codes)[order]
    return arrays


def _assert_same_rows(a, b) -> None:
    ca, cb = _canonical(a), _canonical(b)
    assert set(ca) == set(cb)
    for name, values in ca.items():
        np.testing.assert_array_equal(values, cb[name], err_msg=name)


class TestSpilledJoin:
    def test_spilled_serial_matches_in_ram(self, scale_join_setup, tmp_path):
        model, mapped_model = scale_join_setup
        baseline = IncompletenessJoin(model, seed=0).run()
        spilled = IncompletenessJoin(
            mapped_model, seed=0, chunk_size=64,
            spill_dir=str(tmp_path / "run"),
        ).run()
        assert baseline.num_rows == spilled.num_rows
        _assert_same_rows(baseline, spilled)
        # The spilled result's columns are store-backed, not RAM arrays.
        assert (tmp_path / "run" / "result").is_dir()

    def test_spilled_process_matches_in_ram(self, scale_join_setup, tmp_path):
        model, mapped_model = scale_join_setup
        baseline = IncompletenessJoin(model, seed=0).run()
        spilled = IncompletenessJoin(
            mapped_model, seed=0, chunk_size=50, n_workers=2,
            parallel_backend="process", spill_dir=str(tmp_path / "run"),
        ).run()
        _assert_same_rows(baseline, spilled)

    def test_chunk_size_invariance_with_spill(self, scale_join_setup, tmp_path):
        _, mapped_model = scale_join_setup
        a = IncompletenessJoin(mapped_model, seed=0, chunk_size=32,
                               spill_dir=str(tmp_path / "a")).run()
        b = IncompletenessJoin(mapped_model, seed=0, chunk_size=128,
                               spill_dir=str(tmp_path / "b")).run()
        _assert_same_rows(a, b)

    @staticmethod
    def _state(n, columns, with_context=False) -> _WalkState:
        rng = np.random.default_rng(n)
        return _WalkState(
            codes=rng.integers(0, 9, size=(n, 3)),
            columns=columns,
            weights=rng.random(n),
            synthesized=rng.random(n) < 0.5,
            current_rows=rng.integers(-1, 50, size=n),
            context=(rng.normal(size=(n, 4)).astype(np.float32)
                     if with_context else None),
            streams=rng.integers(0, 2 ** 63, size=n, dtype=np.uint64),
            counters=rng.integers(0, 9, size=n, dtype=np.uint64),
            roots=rng.integers(0, 200, size=n),
        )

    @pytest.mark.parametrize("num_rows", [0, 37])
    @pytest.mark.parametrize("with_context", [False, True])
    def test_spill_record_round_trip(self, tmp_path, num_rows, with_context):
        rng = np.random.default_rng(num_rows)
        n = num_rows
        regions = object_array([f"r{i}" for i in range(4)])
        state = self._state(n, {
            "site.id": np.arange(n, dtype=np.int64),
            "site.region": DictColumn(
                rng.integers(0, 4, size=n).astype(np.int16), regions),
            "reading.value": rng.normal(size=n),
        }, with_context)
        path = str(tmp_path / "chunk.spill")
        loaded = _load_state(path, _spill_state(state, path))
        assert list(loaded.columns) == list(state.columns)
        region = loaded.columns["site.region"]
        assert isinstance(region, DictColumn)
        assert region.vocab.dtype == object
        assert region.vocab.tolist() == regions.tolist()
        pairs = [(getattr(loaded, f), getattr(state, f)) for f in (
            "codes", "weights", "synthesized", "current_rows", "streams",
            "counters", "roots",
        )] + [(loaded.columns[k], state.columns[k])
              for k in ("site.id", "reading.value")]
        pairs.append((region.codes, state.columns["site.region"].codes))
        if with_context:
            pairs.append((loaded.context, state.context))
        else:
            assert loaded.context is None
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_spilled_vocabulary_round_trips_any_string(self, tmp_path):
        vocab = object_array(["", "grün", "日本語", "tail\x00", "\x00", 'q"\\',
                              "\ud800", "x" * 5000])
        codes = np.arange(len(vocab), dtype=np.int16)[::-1].copy()
        state = self._state(len(vocab), {"t.s": DictColumn(codes, vocab)})
        path = str(tmp_path / "chunk.spill")
        loaded = _load_state(path, _spill_state(state, path)).columns["t.s"]
        assert loaded.vocab.tolist() == vocab.tolist()
        assert [type(v) for v in loaded.vocab.tolist()] == [str] * len(vocab)
        np.testing.assert_array_equal(loaded.codes, codes)

    @pytest.mark.parametrize("column", [
        DictColumn(np.zeros(2, dtype=np.int16), object_array(["a", 1])),
        object_array(["a", "b"]),
    ], ids=["non-string vocabulary", "object column"])
    def test_spill_refuses_objects(self, tmp_path, column):
        state = self._state(2, {"t.s": column})
        with pytest.raises(StorageError, match="strings"):
            _spill_state(state, str(tmp_path / "chunk.spill"))

    def test_spilled_join_keeps_strings_as_codes(self, scale_join_setup,
                                                 tmp_path, monkeypatch):
        """No walk state holds an object column, and nothing decodes a
        dictionary column before the result store writes its codes."""
        model, mapped_model = scale_join_setup
        baseline = IncompletenessJoin(model, seed=0).run()

        def refuse(*args, **kwargs):
            raise AssertionError("a dictionary column was decoded")

        with monkeypatch.context() as patched:
            patched.setattr(DictColumn, "decode", refuse)
            patched.setattr(DictColumn, "__array__", refuse)
            join = IncompletenessJoin(mapped_model, seed=0, chunk_size=64,
                                      spill_dir=str(tmp_path / "run"))
            outputs = join.walk_chunks(join.chunk_tasks())
            states = [output.load().state for output in outputs]
            spilled = join.assemble(outputs)
        columns = [v for state in states for v in state.columns.values()]
        assert any(isinstance(v, DictColumn) for v in columns)
        assert not any(isinstance(v, np.ndarray) and v.dtype == object
                       for v in columns)
        _assert_same_rows(baseline, spilled)

    def test_spilled_join_parses_each_header_once(self, scale_join_setup,
                                                  tmp_path, monkeypatch):
        """Mapped columns parse their ``.npy`` header once per store
        object, and chunk spills carry no header at all."""
        _, mapped_model = scale_join_setup
        # Every header read of numpy.lib.format goes through this function.
        format_globals = np.lib.format.read_array_header_2_0.__globals__
        read_header = format_globals["_read_array_header"]
        parsed = []

        def counting(fp, *args, **kwargs):
            parsed.append(str(fp.name))
            return read_header(fp, *args, **kwargs)

        monkeypatch.setitem(format_globals, "_read_array_header", counting)
        for run in ("a", "b"):
            completed = IncompletenessJoin(
                mapped_model, seed=0, chunk_size=64,
                spill_dir=str(tmp_path / run),
            ).run()
            np.asarray(completed.result.columns["reading.kind"])
        assert parsed, "the result stores' columns were never read"
        assert not [p for p in parsed if p.endswith(".spill")]
        repeated = {p for p in parsed if parsed.count(p) > 1}
        assert not repeated

    def test_planted_synthetic_id_collision_raises(self, scale_join_setup):
        model, _ = scale_join_setup
        join = IncompletenessJoin(model, seed=7, chunk_size=64)
        outputs = join.walk_chunks(join.chunk_tasks())
        issued = [o.acc.issued_ids for o in outputs if o.acc.issued_ids]
        table, ids = next(iter(issued[0].items()))
        issued[-1][table].append(ids[0][:1].copy())
        with pytest.raises(
            RuntimeError,
            match=rf"synthetic id collision for table '{table}' \(seed 7\)",
        ):
            join.assemble(outputs)

    def test_distinct_synthetic_ids_pass(self, scale_join_setup):
        model, _ = scale_join_setup
        join = IncompletenessJoin(model, seed=7, chunk_size=64)
        outputs = join.walk_chunks(join.chunk_tasks())
        assert any(o.acc.issued_ids for o in outputs)
        join.assemble(outputs)
        # Equal ids in two different tables are no collision.
        join._check_synth_ids({
            "a": [np.array([5, 1], dtype=np.uint64), np.array([9], np.uint64)],
            "b": [np.array([9, 5], dtype=np.uint64)],
        })

    def test_failed_assembly_closes_its_files(self, scale_join_setup, tmp_path, monkeypatch):
        _, mapped_model = scale_join_setup

        def fail(self, name, values):
            raise RuntimeError("disk full")

        monkeypatch.setattr(StoreWriter, "append", fail)
        with _no_leaked_files():
            with pytest.raises(RuntimeError, match="disk full"):
                IncompletenessJoin(mapped_model, seed=0, chunk_size=64,
                                   spill_dir=str(tmp_path / "run")).run()

    def test_spilled_outputs_stay_out_of_partial_cache(self):
        class _Spilled:
            cacheable = False

        class _Plain:
            pass

        cache = PartialJoinCache(capacity=4)
        cache.put("sig", ("grid",), (0, 10), frozenset(), _Spilled())
        assert len(cache) == 0
        cache.put("sig", ("grid",), (0, 10), frozenset(), _Plain())
        assert len(cache) == 1


# ----------------------------------------------------------------------
# Vectorized movie generator vs. a per-row reference
# ----------------------------------------------------------------------
def _pick_lead_companies_reference(u_domestic, u_pick, m_country, c_country,
                                   num_companies):
    """Scalar transcription of the documented lead-company rule."""
    m_country = m_country.copy()
    lead = np.empty(len(m_country), dtype=np.int64)
    for i in range(len(m_country)):
        pool = np.flatnonzero(c_country == m_country[i])
        if u_domestic[i] < 0.8 and len(pool):
            lead[i] = pool[min(int(u_pick[i] * len(pool)), len(pool) - 1)]
        else:
            pick = min(int(u_pick[i] * num_companies), num_companies - 1)
            lead[i] = pick
            m_country[i] = c_country[pick]
    return lead, m_country


class TestMoviesVectorized:
    def test_lead_companies_match_per_row_reference(self):
        rng = np.random.default_rng(21)
        n_m, n_c = 600, 40
        # Leave country 0 empty of companies: exercises the no-pool branch.
        c_country = rng.integers(1, 6, size=n_c)
        m_country = rng.integers(0, 6, size=n_m)
        u_dom, u_pick = rng.random(n_m), rng.random(n_m)
        lead_v, country_v = _pick_lead_companies(
            u_dom, u_pick, m_country, c_country, n_c
        )
        lead_r, country_r = _pick_lead_companies_reference(
            u_dom, u_pick, m_country, c_country, n_c
        )
        np.testing.assert_array_equal(lead_v, lead_r)
        np.testing.assert_array_equal(country_v, country_r)

    def test_input_country_array_not_mutated(self):
        rng = np.random.default_rng(3)
        m_country = rng.integers(0, 6, size=50)
        before = m_country.copy()
        _pick_lead_companies(np.ones(50), rng.random(50), m_country,
                             rng.integers(0, 6, size=20), 20)
        np.testing.assert_array_equal(m_country, before)

    def test_generate_movies_deterministic(self):
        a = generate_movies(MoviesConfig(num_movies=200, num_directors=60,
                                         num_actors=120, num_companies=30))
        b = generate_movies(MoviesConfig(num_movies=200, num_directors=60,
                                         num_actors=120, num_companies=30))
        for name in ("movie", "director", "actor", "company",
                     "movie_director", "movie_actor", "movie_company"):
            _assert_tables_equal(a.table(name), b.table(name))

    def test_movie_country_follows_lead_company(self):
        config = MoviesConfig(num_movies=300, num_companies=40)
        db = generate_movies(config)
        movie, company = db.table("movie"), db.table("company")
        links = db.table("movie_company")
        # The first num_movies link rows are the leads, in movie order.
        lead = np.asarray(links["company_id"][:config.num_movies])
        company_country = np.asarray([
            COUNTRIES[COUNTRY_CODES.index(code)]
            for code in company["country_code"][lead]
        ], dtype=object)
        np.testing.assert_array_equal(movie["country"], company_country)


# ----------------------------------------------------------------------
# Process memory gauges
# ----------------------------------------------------------------------
class TestProcessGauges:
    def test_rss_readings_are_positive(self):
        current = current_rss_bytes()
        peak = peak_rss_bytes()
        assert current > 0
        assert peak >= current > 0

    def test_reset_peak_keeps_readings_sane(self):
        reset_peak_rss()  # best-effort: may be a no-op without clear_refs
        assert peak_rss_bytes() > 0

    def test_update_process_gauges_stamps_registry(self):
        reg = MetricsRegistry()
        values = update_process_gauges(reg)
        assert values["process.rss_bytes"] > 0
        assert values["process.peak_rss_bytes"] > 0
        assert reg.gauge("process.rss_bytes").value == values["process.rss_bytes"]
        assert (reg.gauge("process.peak_rss_bytes").value
                == values["process.peak_rss_bytes"])


# ----------------------------------------------------------------------
# Columnar artifacts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scale_engine():
    dataset = make_scenario_dataset("scale/mcar", seed=7, scale=0.002)
    config = ReStoreConfig(model=ModelConfig(hidden=(16, 16), train=TINY))
    return ReStore.from_dataset(dataset, config).fit()


class TestColumnarArtifact:
    def test_layouts_share_the_database_digest(self, scale_engine, tmp_path):
        save_artifact(scale_engine, tmp_path / "plain")
        save_artifact(scale_engine, tmp_path / "col", columnar=True)
        plain = verify_artifact(tmp_path / "plain")
        col = verify_artifact(tmp_path / "col")
        assert col["database_format"] == "columnar"
        assert plain["database_digest"] == col["database_digest"]
        assert col["store_files"]

    def test_columnar_load_maps_tables_and_answers(self, scale_engine,
                                                   tmp_path):
        # Through the engine method, which must forward ``columnar``.
        scale_engine.save_artifact(tmp_path / "col", columnar=True)
        loaded = load_artifact(tmp_path / "col")
        assert all(t.is_mapped for t in loaded.db.tables.values())
        query = parse_query("SELECT COUNT(*) FROM reading")
        original = scale_engine.answer(query)
        reloaded = loaded.answer(query)
        assert original.result.values == reloaded.result.values

    def test_store_tamper_detected(self, scale_engine, tmp_path):
        save_artifact(scale_engine, tmp_path / "col", columnar=True)
        victim = next((tmp_path / "col" / "database_store").rglob("*.npy"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError, match="store file"):
            verify_artifact(tmp_path / "col")
