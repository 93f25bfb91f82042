"""Out-of-core column stores: the backend seam behind :class:`Table`.

A :class:`ColumnStore` owns the physical bytes of a table's columns; every
:class:`~repro.relational.table.Table` holds one.  Two implementations
exist:

* :class:`InMemoryStore` — what ``Table(...)`` builds: plain numpy arrays
  in RAM.  ``read_range`` returns basic-slice *views*, so contiguous chunk
  walks stop paying the fancy-indexing copy tax.
* :class:`MappedStore` — one ``.npy`` file per column under a spill
  directory, read through short-lived ``numpy`` memory maps.  Numeric
  columns are stored verbatim; object (string) columns are dictionary
  encoded (``int16`` codes, promoted to ``int32`` when a dictionary
  outgrows 32767 entries) with the dictionary in a JSON sidecar.  Each
  column file's ``.npy`` header is parsed once per store object; every
  read then opens a fresh read-only map at the known offset and drops it
  with the returned array, so resident pages are bounded by what callers
  keep alive — a chunked walk over a 10M-row table holds one chunk's
  pages, not the table.

Both stores serve a string column in dictionary form too
(:meth:`ColumnStore.gather_encoded`, a
:class:`~repro.relational.dictionary.DictColumn`): the mapped store its
stored codes with the cached dictionary, the in-RAM store codes and a
first-occurrence vocabulary it builds once, on first use.  Reads through
``read_*``/``gather`` return the values.

``store.json`` records the schema (row count, per-column dtype/kind/
encoding, file sizes) and a self-digest; :meth:`MappedStore.open` refuses
tampered or truncated stores with :class:`~repro.errors.StoreIntegrityError`.

Writes go through :class:`StoreWriter`, which streams row blocks into
``.npy`` files with plain buffered ``write`` calls — no dirty mapped
pages — so a generator can produce a table far larger than RAM.  A writer
given no row count takes whatever arrives: each file's header gets its
shape when the file closes, and the bytes equal a pre-sized write's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import StorageError, StoreIntegrityError
from .column import ColumnKind
from .dictionary import CODE_DTYPES, DictColumn, dictionary_encode

STORE_META = "store.json"
STORE_FORMAT_VERSION = 1


def _counter(name: str):
    """Spill telemetry counter (lazy import — relational stays obs-free)."""
    from ..obs.metrics import registry

    return registry().counter(name)


def _canonical_meta_bytes(meta: dict) -> bytes:
    """Deterministic serialization of the metadata minus its own digest."""
    body = {k: v for k, v in meta.items() if k != "digest"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def meta_digest(meta: dict) -> str:
    return hashlib.sha256(_canonical_meta_bytes(meta)).hexdigest()


@dataclass
class ColumnSpec:
    """Physical layout of one stored column."""

    name: str
    kind: str                  # ColumnKind value
    dtype: str                 # dtype of the materialized values
    encoding: str              # "raw" | "dict"
    file: str                  # npy file name within the store directory
    code_dtype: Optional[str] = None   # dict encoding: dtype of the codes
    dict_file: Optional[str] = None    # dict encoding: JSON dictionary

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "dtype": self.dtype,
            "encoding": self.encoding,
            "file": self.file,
        }
        if self.encoding == "dict":
            out["code_dtype"] = self.code_dtype
            out["dict_file"] = self.dict_file
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnSpec":
        return cls(
            name=data["name"],
            kind=data["kind"],
            dtype=data["dtype"],
            encoding=data["encoding"],
            file=data["file"],
            code_dtype=data.get("code_dtype"),
            dict_file=data.get("dict_file"),
        )


def contiguous_range(indices: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(start, stop)`` if ``indices`` is exactly ``arange(start, stop)``.

    The cheap first/last test is necessary but not sufficient (duplicates
    can balance gaps), so a full step check runs only when it passes.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or len(idx) == 0 or idx.dtype.kind not in "iu":
        return None
    first = int(idx[0])
    last = int(idx[-1])
    if last - first + 1 != len(idx):
        return None
    if len(idx) > 1 and not bool((np.diff(idx) == 1).all()):
        return None
    return first, last + 1


class ColumnStore:
    """Read interface shared by both backends."""

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    def names(self) -> List[str]:
        raise NotImplementedError

    def kind(self, name: str) -> ColumnKind:
        raise NotImplementedError

    def read_full(self, name: str) -> np.ndarray:
        raise NotImplementedError

    def read_range(self, name: str, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Rows at arbitrary positions; contiguous requests become ranges."""
        bounds = contiguous_range(rows)
        if bounds is not None:
            return self.read_range(name, bounds[0], bounds[1])
        return self._gather_fancy(name, np.asarray(rows))

    def _gather_fancy(self, name: str, rows: np.ndarray) -> np.ndarray:
        return self.read_full(name)[rows]

    def gather_encoded(self, name: str, rows: np.ndarray):
        """:meth:`gather`, with a string column as a :class:`DictColumn`.

        The codes index a vocabulary that is one array object per store
        and column, so parts gathered from one store concatenate by codes.
        """
        return self.gather(name, rows)

    def nbytes_materialized(self) -> int:
        """Bytes the columns occupy (or would occupy) materialized in RAM."""
        raise NotImplementedError


class InMemoryStore(ColumnStore):
    """The in-RAM backend: a dict of arrays plus their kinds.

    A string column's dictionary form is built on first use and kept:
    sound because a store is never written in place.  ``encoded`` may
    hand some in ready-made (each must decode to its column, with a
    vocabulary of ``str`` values), as a write does from the store it
    replaces.  It does not ride the store's pickle.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        kinds: Mapping[str, ColumnKind],
        encoded: Optional[Mapping[str, DictColumn]] = None,
    ):
        self._columns = dict(columns)
        self._kinds = dict(kinds)
        lengths = {len(a) for a in self._columns.values()}
        if len(lengths) > 1:
            raise StorageError(f"ragged columns with lengths {sorted(lengths)}")
        self._num_rows = lengths.pop() if lengths else 0
        self._encoded: Dict[str, Optional[DictColumn]] = dict(encoded or {})

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_encoded": {}}

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def names(self) -> List[str]:
        return list(self._columns)

    def kind(self, name: str) -> ColumnKind:
        return self._kinds[name]

    def read_full(self, name: str) -> np.ndarray:
        return self._columns[name]

    def read_range(self, name: str, start: int, stop: int) -> np.ndarray:
        # Basic slicing: a zero-copy view into the resident array.
        return self._columns[name][start:stop]

    def _gather_fancy(self, name: str, rows: np.ndarray) -> np.ndarray:
        return self._columns[name][rows]

    def gather_encoded(self, name: str, rows: np.ndarray):
        if name not in self._encoded:
            # Concurrent first callers may each build one; the first stored wins.
            self._encoded.setdefault(name, dictionary_encode(self._columns[name]))
        whole = self._encoded[name]
        if whole is None:
            return self.gather(name, rows)
        bounds = contiguous_range(rows)
        if bounds is not None:
            return whole[bounds[0]:bounds[1]]
        return whole[np.asarray(rows)]

    def nbytes_materialized(self) -> int:
        return int(sum(arr.nbytes for arr in self._columns.values()))


class MappedStore(ColumnStore):
    """Memory-mapped columnar backend rooted at one spill directory.

    Every read opens a *fresh* read-only memmap of the column file (at the
    data offset its header gave on the first read) and returns a slice
    view (zero-copy for numeric columns); the map is released when the
    caller drops the array, so nothing this store does pins table-sized
    resident memory.  Instances pickle as their directory
    path — process workers reopen the store instead of receiving array
    bytes, making fan-out cost O(1) in the table size.
    """

    def __init__(self, directory: str, meta: dict):
        self.directory = str(directory)
        self._meta = meta
        self._specs: Dict[str, ColumnSpec] = {
            spec["name"]: ColumnSpec.from_dict(spec) for spec in meta["columns"]
        }
        self._dicts: Dict[str, np.ndarray] = {}
        self._layouts: Dict[str, _NpyLayout] = {}

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def open(cls, directory: str) -> "MappedStore":
        """Open and verify an existing store directory."""
        meta_path = os.path.join(directory, STORE_META)
        if not os.path.isfile(meta_path):
            raise StorageError(f"{directory} is not a column store (no {STORE_META})")
        with open(meta_path, "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise StoreIntegrityError(f"{meta_path} is not valid JSON: {exc}")
        version = meta.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise StorageError(
                f"store format version {version!r} is not supported "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        recorded = meta.get("digest")
        if recorded != meta_digest(meta):
            raise StoreIntegrityError(
                f"store metadata digest mismatch in {meta_path} — "
                "the file was modified after the store was written"
            )
        store = cls(directory, meta)
        for file_name, size in meta["files"].items():
            path = os.path.join(directory, file_name)
            if not os.path.isfile(path):
                raise StoreIntegrityError(f"store file missing: {path}")
            actual = os.path.getsize(path)
            if actual != size:
                raise StoreIntegrityError(
                    f"store file {path} has {actual} bytes, expected {size}"
                )
        return store

    def __reduce__(self):
        return (MappedStore.open, (self.directory,))

    # -- schema --------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self._meta["num_rows"])

    @property
    def table_name(self) -> str:
        return self._meta["table"]

    @property
    def primary_key(self) -> Optional[str]:
        return self._meta.get("primary_key")

    def names(self) -> List[str]:
        return list(self._specs)

    def spec(self, name: str) -> ColumnSpec:
        if name not in self._specs:
            raise KeyError(f"store has no column {name!r}")
        return self._specs[name]

    def kind(self, name: str) -> ColumnKind:
        return ColumnKind(self.spec(name).kind)

    # -- reads ---------------------------------------------------------
    def _mmap(self, spec: ColumnSpec) -> np.ndarray:
        """A fresh read-only map of a column file; its header is parsed
        on the first map only."""
        path = os.path.join(self.directory, spec.file)
        layout = self._layouts.get(spec.file)
        if layout is None:
            layout = self._layouts.setdefault(spec.file, _NpyLayout.read(path))
        return layout.map(path)

    def dictionary(self, name: str) -> np.ndarray:
        """The decode dictionary of a dict-encoded column (cached: small)."""
        spec = self.spec(name)
        if spec.encoding != "dict":
            raise StorageError(f"column {name!r} is not dictionary encoded")
        if name not in self._dicts:
            path = os.path.join(self.directory, spec.dict_file)
            with open(path, "r", encoding="utf-8") as fh:
                values = json.load(fh)
            self._dicts.setdefault(name, np.array(values, dtype=object))
        return self._dicts[name]

    def read_full(self, name: str) -> np.ndarray:
        return self.read_range(name, 0, self.num_rows)

    def read_range(self, name: str, start: int, stop: int) -> np.ndarray:
        spec = self.spec(name)
        raw = self._mmap(spec)[start:stop]
        _counter("storage.spill.reads").add(1)
        if spec.encoding == "dict":
            # Decoding materializes the requested range only.
            codes = np.asarray(raw)
            _counter("storage.spill.bytes_read").add(int(codes.nbytes))
            return self.dictionary(name)[codes]
        _counter("storage.spill.bytes_read").add(int(raw.nbytes))
        return raw

    def _gather_fancy(self, name: str, rows: np.ndarray) -> np.ndarray:
        spec = self.spec(name)
        picked = self._mmap(spec)[rows]       # copies just the touched rows
        _counter("storage.spill.reads").add(1)
        _counter("storage.spill.bytes_read").add(int(picked.nbytes))
        if spec.encoding == "dict":
            return self.dictionary(name)[picked]
        return picked

    def gather_encoded(self, name: str, rows: np.ndarray):
        spec = self.spec(name)
        if spec.encoding != "dict":
            return self.gather(name, rows)
        bounds = contiguous_range(rows)
        if bounds is not None:
            codes = np.array(self._mmap(spec)[bounds[0]:bounds[1]])
        else:
            codes = self._mmap(spec)[np.asarray(rows)]
        _counter("storage.spill.reads").add(1)
        _counter("storage.spill.bytes_read").add(int(codes.nbytes))
        return DictColumn(codes, self.dictionary(name))

    def nbytes_materialized(self) -> int:
        """Bytes the table would occupy fully materialized in RAM.

        Dict-encoded columns count as object arrays (one pointer per row)
        plus their dictionary payload — the honest in-RAM equivalent.
        """
        total = 0
        for spec in self._specs.values():
            if spec.encoding == "dict":
                total += self.num_rows * np.dtype(object).itemsize
                total += sum(len(str(v)) for v in self.dictionary(spec.name))
            else:
                total += self.num_rows * np.dtype(spec.dtype).itemsize
        return total


@dataclass(frozen=True)
class _NpyLayout:
    """Where an ``.npy`` file's array lies: enough to map it unparsed."""

    dtype: np.dtype
    shape: Tuple[int, ...]
    offset: int                # first byte after the header

    @classmethod
    def read(cls, path: str) -> "_NpyLayout":
        with open(path, "rb") as fh:
            np.lib.format.read_magic(fh)
            # _npy_header always writes format 2.0, in C order
            shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
            return cls(dtype, shape, fh.tell())

    def map(self, path: str) -> np.memmap:
        """A read-only map of the array, as ``np.load(mmap_mode="r")``."""
        return np.memmap(
            path, dtype=self.dtype, mode="r", offset=self.offset,
            shape=self.shape,
        )


def _npy_header(fh, dtype: np.dtype, shape: Tuple[int, ...]) -> _NpyLayout:
    np.lib.format.write_array_header_2_0(
        fh, {"descr": np.lib.format.dtype_to_descr(dtype),
             "fortran_order": False, "shape": shape}
    )
    return _NpyLayout(np.dtype(dtype), shape, fh.tell())


#: The row count a header of unknown length is first written for: no file
#: holds more rows, so no real count needs a longer header.
_MAX_ROWS = np.iinfo(np.int64).max


def _rewrite_header(fh, layout: _NpyLayout, shape: Tuple[int, ...]) -> _NpyLayout:
    """Write the header of ``shape`` over the one ``layout`` describes.

    numpy pads the row count of a header to a fixed width, so the new
    header keeps the old one's length and the data stays where it is; a
    header that would not is refused before anything is written.
    """
    header = io.BytesIO()
    new = _npy_header(header, layout.dtype, shape)
    if new.offset != layout.offset:
        raise StorageError(
            f"{fh.name}: the npy header of shape {shape} takes {new.offset} "
            f"bytes, not the {layout.offset} written for its data"
        )
    fh.seek(0)
    fh.write(header.getvalue())
    return new


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


class _RawColumnWriter:
    """Streams fixed-dtype row blocks into an npy file.

    The file holds ``num_rows`` rows of ``trailing_shape`` each (a column
    by default; ``(width,)`` for a row-major matrix).  With ``num_rows``
    None it holds what was appended: the header is written for
    :data:`_MAX_ROWS` rows, and :meth:`close` writes the real count over
    it (:func:`_rewrite_header`), so the file equals a pre-sized write.
    Plain buffered writes after the header — no dirty mapped pages, so a
    file far larger than RAM does not grow RSS.  ``layout`` maps the
    closed file without parsing its header.
    """

    def __init__(
        self, path: str, dtype: np.dtype, num_rows: Optional[int],
        trailing_shape: Tuple[int, ...] = (),
    ):
        self.path = path
        self.dtype = np.dtype(dtype)
        self.num_rows = num_rows
        self.written = 0
        self._fh = open(path, "wb")
        rows = _MAX_ROWS if num_rows is None else num_rows
        self.layout = _npy_header(
            self._fh, self.dtype, (rows,) + tuple(trailing_shape)
        )

    def append(self, values: np.ndarray) -> int:
        block = np.ascontiguousarray(values, dtype=self.dtype)
        if self.num_rows is not None and self.written + len(block) > self.num_rows:
            raise StorageError(
                f"{self.path}: writing past the declared {self.num_rows} rows"
            )
        self._fh.write(block)
        self.written += len(block)
        return int(block.nbytes)

    def close(self) -> None:
        if self._fh is None:
            return
        try:
            if self.num_rows is None:
                self.layout = _rewrite_header(
                    self._fh, self.layout, (self.written,) + self.layout.shape[1:]
                )
        finally:
            self.abort()

    def abort(self) -> None:
        """Close the file as it stands."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def discard(self) -> None:
        """Close the file and remove it."""
        self.abort()
        _remove(self.path)


class _DictColumnWriter:
    """Dictionary-encodes object values into a code file plus a JSON dict.

    A block is encoded by one C-level pass of dictionary lookups over the
    object array; only a block holding unseen values takes a second pass,
    after they get the next codes in first-occurrence order.  A
    :class:`DictColumn` block is mapped through its vocabulary instead,
    into the same codes, so the files do not depend on the form.  Codes start
    as ``int16``; the moment the dictionary outgrows the int16 code space,
    the already-written code file is stream-promoted to ``int32`` and
    writing continues — no caller involvement, no second pass over the
    source data.
    """

    def __init__(self, path: str, dict_path: str, num_rows: Optional[int]):
        self.path = path
        self.dict_path = dict_path
        self._promote_path = path + ".promote"
        self.num_rows = num_rows
        self.codes: Dict[object, int] = {}
        self.values: List[object] = []
        self._writer = _RawColumnWriter(path, CODE_DTYPES[0], num_rows)

    @property
    def code_dtype(self) -> np.dtype:
        return self._writer.dtype

    @property
    def written(self) -> int:
        return self._writer.written

    def _promote(self) -> None:
        """Rewrite the code file at the next wider dtype, then swap it in.

        The half-written file is shorter than its pre-sized header claims,
        so it cannot be memory-mapped yet — the written prefix is streamed
        back as raw bytes instead.
        """
        self._writer.close()
        old = self._writer
        new_dtype = CODE_DTYPES[CODE_DTYPES.index(old.dtype) + 1]
        promoted = _RawColumnWriter(self._promote_path, new_dtype, self.num_rows)
        step = 1 << 20
        try:
            with open(self.path, "rb") as fh:
                fh.seek(old.layout.offset)
                for start in range(0, old.written, step):
                    count = min(step, old.written - start)
                    block = np.frombuffer(
                        fh.read(count * old.dtype.itemsize), dtype=old.dtype
                    )
                    promoted.append(block)
            promoted.close()
        except BaseException:
            promoted.discard()
            raise
        os.replace(self._promote_path, self.path)
        promoted.path = self.path
        promoted._fh = open(self.path, "r+b")
        promoted._fh.seek(0, os.SEEK_END)
        self._writer = promoted

    def append(self, values) -> int:
        if isinstance(values, DictColumn):
            codes = self._map_vocab(values)
        else:
            codes = self._encode_values(np.asarray(values, dtype=object))
        limit = np.iinfo(self._writer.dtype).max
        if self.values and len(self.values) - 1 > limit:
            self._promote()
        return self._writer.append(codes)

    def _encode_values(self, arr: np.ndarray) -> np.ndarray:
        try:
            return self._encode(arr)
        except KeyError:
            pass
        # New values get the next codes in first-occurrence order.
        for value in dict.fromkeys(arr):
            self._code_of(value)
        return self._encode(arr)

    def _map_vocab(self, column: DictColumn) -> np.ndarray:
        """A dictionary block's codes in this file's dictionary, mapped
        through one vocabulary-sized array; the vocabulary values its rows
        use for the first time get the next codes in first-occurrence
        order, as in :meth:`_encode_values`."""
        vocab = column.vocab.tolist()
        mapped = np.fromiter(
            map(self.codes.get, vocab, repeat(-1)), np.int64, count=len(vocab)
        )
        codes = mapped[column.codes]
        unseen = codes < 0
        if unseen.any():
            positions, first = np.unique(column.codes[unseen], return_index=True)
            for position in positions[np.argsort(first)].tolist():
                mapped[position] = self._code_of(vocab[position])
            codes = mapped[column.codes]
        return codes

    def _code_of(self, value) -> int:
        """``value``'s code, the next one if it is new."""
        code = self.codes.get(value)
        if code is None:
            if not isinstance(value, str):
                raise StorageError(
                    "object columns must contain strings to spill; got "
                    f"{type(value).__name__} ({value!r})"
                )
            code = self.codes[value] = len(self.values)
            self.values.append(value)
        return code

    def _encode(self, arr: np.ndarray) -> np.ndarray:
        """Codes of ``arr``'s values; ``KeyError`` on an unseen value."""
        return np.fromiter(
            map(self.codes.__getitem__, arr), np.int64, count=len(arr)
        )

    def close(self) -> None:
        self._writer.close()
        with open(self.dict_path, "w", encoding="utf-8") as fh:
            json.dump(self.values, fh)

    def abort(self) -> None:
        """Close the code file without writing the dictionary."""
        self._writer.abort()

    def discard(self) -> None:
        """Close the code file and remove every file of the column."""
        self.abort()
        for path in (self.path, self._promote_path, self.dict_path):
            _remove(path)


class StoreWriter:
    """Streams a table into a new :class:`MappedStore`.

    Columns are declared up front (name, kind, dtype); rows arrive in
    blocks via :meth:`append` / :meth:`append_rows`.  ``finalize`` checks
    that every column received exactly ``num_rows`` rows (with
    ``num_rows`` None, the same number of rows), writes the digested
    metadata and returns the opened store.
    """

    def __init__(
        self,
        directory: str,
        table_name: str,
        num_rows: Optional[int],
        primary_key: Optional[str] = "id",
    ):
        self.directory = str(directory)
        self.table_name = table_name
        self.num_rows = None if num_rows is None else int(num_rows)
        self.primary_key = primary_key
        self._made_directory = not os.path.isdir(self.directory)
        os.makedirs(self.directory, exist_ok=True)
        self._order: List[str] = []
        self._kinds: Dict[str, ColumnKind] = {}
        self._writers: Dict[str, object] = {}
        self._bytes_written = 0

    def add_column(
        self, name: str, kind: ColumnKind, dtype: Optional[np.dtype] = None
    ) -> None:
        if name in self._writers:
            raise StorageError(f"column {name!r} declared twice")
        safe = name.replace(os.sep, "_")
        if dtype is not None and np.dtype(dtype) != np.dtype(object):
            writer = _RawColumnWriter(
                os.path.join(self.directory, f"{safe}.npy"),
                np.dtype(dtype), self.num_rows,
            )
        else:
            writer = _DictColumnWriter(
                os.path.join(self.directory, f"{safe}.codes.npy"),
                os.path.join(self.directory, f"{safe}.dict.json"),
                self.num_rows,
            )
        self._order.append(name)
        self._kinds[name] = kind
        self._writers[name] = writer

    def append(self, name: str, values: Sequence) -> None:
        with self._closing_on_error():
            if name not in self._writers:
                raise StorageError(f"column {name!r} was never declared")
            self._bytes_written += self._writers[name].append(values)

    def append_rows(self, columns: Mapping[str, Sequence]) -> None:
        """One row block touching every declared column."""
        with self._closing_on_error():
            if set(columns) != set(self._order):
                raise StorageError(
                    f"row block columns {sorted(columns)} != "
                    f"declared {sorted(self._order)}"
                )
            for name in self._order:
                self.append(name, columns[name])

    def abort(self) -> None:
        """Close every column file without finishing the store.

        The partial files stay on disk and the writer is unusable after;
        what this prevents is handles left open until garbage collection.
        """
        for writer in self._writers.values():
            writer.abort()

    def discard(self) -> None:
        """:meth:`abort`, then remove every file the writer makes (its
        column files and ``store.json``), and its directory when the writer
        made that and nothing else is in it."""
        for writer in self._writers.values():
            writer.discard()
        _remove(os.path.join(self.directory, STORE_META))
        if self._made_directory:
            with contextlib.suppress(OSError):
                os.rmdir(self.directory)

    @contextlib.contextmanager
    def _closing_on_error(self):
        """:meth:`abort` when the block raises, then re-raise."""
        try:
            yield
        except BaseException:
            self.abort()
            raise

    def finalize(self) -> MappedStore:
        num_rows = self.num_rows
        if num_rows is None:
            num_rows = next((w.written for w in self._writers.values()), 0)
        with self._closing_on_error():
            specs: List[dict] = []
            for name in self._order:
                writer = self._writers[name]
                if writer.written != num_rows:
                    raise StorageError(
                        f"column {name!r} received {writer.written} rows, "
                        f"expected {num_rows}"
                    )
                writer.close()
                safe = name.replace(os.sep, "_")
                if isinstance(writer, _DictColumnWriter):
                    decoded = np.dtype(object)
                    specs.append(ColumnSpec(
                        name=name, kind=self._kinds[name].value,
                        dtype=decoded.str, encoding="dict",
                        file=f"{safe}.codes.npy",
                        code_dtype=np.dtype(writer.code_dtype).str,
                        dict_file=f"{safe}.dict.json",
                    ).as_dict())
                else:
                    specs.append(ColumnSpec(
                        name=name, kind=self._kinds[name].value,
                        dtype=np.dtype(writer.dtype).str, encoding="raw",
                        file=f"{safe}.npy",
                    ).as_dict())
        files = {}
        for spec in specs:
            for key in ("file", "dict_file"):
                file_name = spec.get(key)
                if file_name:
                    files[file_name] = os.path.getsize(
                        os.path.join(self.directory, file_name)
                    )
        meta = {
            "format_version": STORE_FORMAT_VERSION,
            "table": self.table_name,
            "num_rows": num_rows,
            "primary_key": self.primary_key,
            "columns": specs,
            "files": files,
        }
        meta["digest"] = meta_digest(meta)
        with open(os.path.join(self.directory, STORE_META), "w",
                  encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
        _counter("storage.spill.writes").add(1)
        _counter("storage.spill.bytes_written").add(self._bytes_written)
        return MappedStore.open(self.directory)


def spill_arrays(
    directory: str,
    table_name: str,
    columns: Mapping[str, np.ndarray],
    kinds: Mapping[str, ColumnKind],
    primary_key: Optional[str] = "id",
    block_rows: int = 1 << 18,
) -> MappedStore:
    """Write in-RAM columns to a new mapped store in bounded blocks."""
    lengths = {len(a) for a in columns.values()}
    if len(lengths) > 1:
        raise StorageError(f"ragged columns with lengths {sorted(lengths)}")
    num_rows = lengths.pop() if lengths else 0
    writer = StoreWriter(directory, table_name, num_rows, primary_key=primary_key)
    for name, values in columns.items():
        arr = np.asarray(values)
        dtype = None if arr.dtype == object else arr.dtype
        writer.add_column(name, kinds[name], dtype=dtype)
    for start in range(0, num_rows, block_rows):
        stop = min(start + block_rows, num_rows)
        writer.append_rows({n: np.asarray(v)[start:stop] for n, v in columns.items()})
    if num_rows == 0:
        writer.append_rows({n: np.asarray(v)[:0] for n, v in columns.items()})
    return writer.finalize()


class StoreColumns(Mapping):
    """Lazy column mapping over a store — for results too big to hold.

    Accessing a key materializes that column on demand (memmap-backed for
    numeric columns, decoded for dict columns); nothing is cached, so the
    caller controls residency.
    """

    def __init__(self, store: MappedStore, names: Optional[Iterable[str]] = None):
        self._store = store
        self._names = list(names) if names is not None else store.names()

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        return self._store.read_full(name)

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    @property
    def store(self) -> MappedStore:
        return self._store


__all__ = [
    "ColumnSpec",
    "ColumnStore",
    "InMemoryStore",
    "MappedStore",
    "StoreColumns",
    "StoreWriter",
    "STORE_FORMAT_VERSION",
    "STORE_META",
    "contiguous_range",
    "meta_digest",
    "spill_arrays",
]
