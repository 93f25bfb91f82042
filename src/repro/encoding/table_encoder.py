"""Fit per-column codecs for a table and encode/decode row batches."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..relational import ColumnKind, DictColumn, Table
from .codecs import CategoricalCodec, ContinuousCodec

Codec = Union[CategoricalCodec, ContinuousCodec]


class TableEncoder:
    """Codecs for the modelable (non-key) columns of one table.

    The encoder is fitted once per table on the available data and reused by
    every completion model that touches the table, so all models share one
    consistent code space (a prerequisite for model merging).
    """

    def __init__(self, table: Table, num_bins: int = 32):
        self.table_name = table.name
        self.columns: List[str] = table.modelable_columns()
        self._codecs: Dict[str, Codec] = {}
        self._last_vocab: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for column in self.columns:
            kind = table.meta(column).kind
            if kind is ColumnKind.CATEGORICAL:
                codec: Codec = CategoricalCodec().fit(table[column])
            else:
                codec = ContinuousCodec(num_bins).fit(table[column])
            self._codecs[column] = codec

    def codec(self, column: str) -> Codec:
        if column not in self._codecs:
            raise KeyError(f"{self.table_name} has no encoded column {column!r}")
        return self._codecs[column]

    def vocab_sizes(self) -> List[int]:
        return [self._codecs[c].vocab_size for c in self.columns]

    def encode_table(self, table: Table) -> np.ndarray:
        """Encode the modelable columns of ``table`` to ``(rows, cols)`` codes."""
        if not self.columns:
            return np.zeros((table.num_rows, 0), dtype=np.int64)
        return self.encode_columns({c: table[c] for c in self.columns})

    def encode_columns(self, columns: Dict[str, Sequence]) -> np.ndarray:
        """Encode a column dict (e.g. a slice of a join result).

        A :class:`~repro.relational.dictionary.DictColumn` is encoded
        through its vocabulary: one vocabulary-sized array of codec codes,
        gathered by the column's codes (:meth:`_vocab_codes`).
        """
        if not self.columns:
            return np.zeros((self._infer_len(columns), 0), dtype=np.int64)
        encoded = []
        for column in self.columns:
            values = columns[column]
            if isinstance(values, DictColumn):
                encoded.append(self._vocab_codes(column, values.vocab)[values.codes])
            else:
                encoded.append(self._codecs[column].encode(values))
        return np.stack(encoded, axis=1)

    def _vocab_codes(self, column: str, vocab: np.ndarray) -> np.ndarray:
        """The codec codes of ``vocab``'s values.

        The last vocabulary encoded per column is kept with its codes: a
        join passes every block of a column with one vocabulary object, so
        it is encoded once per join, not once per block.
        """
        last = self._last_vocab.get(column)
        if last is None or last[0] is not vocab:
            last = (vocab, self._codecs[column].encode(vocab))
            self._last_vocab[column] = last
        return last[1]

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_last_vocab": {}}

    def decode_codes(
        self,
        codes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        uniforms: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Decode a ``(rows, cols)`` code matrix back to raw column values.

        ``uniforms`` optionally supplies a ``(rows, cols)`` matrix of
        ``[0, 1)`` draws — column ``i`` drives the dequantization (or
        unknown-code fallback) of the ``i``-th encoded column, keeping
        decoding independent of how rows were batched.  String columns
        come back as :class:`~repro.relational.dictionary.DictColumn` over
        their codec's values.
        """
        if codes.ndim != 2 or codes.shape[1] != len(self.columns):
            raise ValueError(
                f"expected (rows, {len(self.columns)}) codes for {self.table_name}"
            )
        if uniforms is not None and uniforms.shape != codes.shape:
            raise ValueError("uniforms must align with the code matrix")
        out: Dict[str, np.ndarray] = {}
        for i, column in enumerate(self.columns):
            codec = self._codecs[column]
            u = None if uniforms is None else uniforms[:, i]
            if isinstance(codec, CategoricalCodec):
                out[column] = codec.decode_column(codes[:, i], rng=rng, uniforms=u)
            else:
                out[column] = codec.decode(codes[:, i], rng=rng, uniforms=u)
        return out

    @staticmethod
    def _infer_len(columns: Dict[str, Sequence]) -> int:
        for values in columns.values():
            return len(values)
        return 0

    # ------------------------------------------------------------------
    # Serialization (see repro.serving.artifacts)
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        """Fitted state of every codec, keyed by column (arrays stay numpy)."""
        return {
            "table": self.table_name,
            "columns": list(self.columns),
            "codecs": {c: self._codecs[c].get_state() for c in self.columns},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "TableEncoder":
        """Rebuild an encoder from :meth:`get_state` output (no refit)."""
        encoder = cls.__new__(cls)
        encoder.table_name = state["table"]
        encoder.columns = list(state["columns"])
        encoder._codecs = {}
        encoder._last_vocab = {}
        for column in encoder.columns:
            codec_state = state["codecs"][column]
            kind = codec_state["kind"]
            if kind == "categorical":
                encoder._codecs[column] = CategoricalCodec.from_state(codec_state)
            elif kind == "continuous":
                encoder._codecs[column] = ContinuousCodec.from_state(codec_state)
            else:
                raise ValueError(f"unknown codec kind {kind!r} for {column!r}")
        return encoder
