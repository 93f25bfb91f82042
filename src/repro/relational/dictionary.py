"""Dictionary columns: a string column as integer codes into its vocabulary.

A :class:`DictColumn` is the one form a string column takes from the column
stores through the incompleteness join to the spilled result store: the
codes of its rows plus the array of distinct values ("vocabulary") they
index.  Row selection keeps the vocabulary, parts that share one
concatenate by their codes, and ``np.asarray`` decodes (``vocab[codes]``),
so code without a dictionary fast path still sees the values.

Codes stay narrow: ``int16`` while the vocabulary fits, ``int32`` beyond,
the code ladder of the mapped store's dictionary files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Union

import numpy as np

#: Dictionary code dtypes, narrowest first.
CODE_DTYPES = (np.dtype(np.int16), np.dtype(np.int32))
_CODE_MAX = tuple((int(np.iinfo(dtype).max), dtype) for dtype in CODE_DTYPES)


def code_dtype(vocab_size: int) -> np.dtype:
    """The narrowest code dtype that indexes ``vocab_size`` values."""
    for largest, dtype in _CODE_MAX:
        if vocab_size - 1 <= largest:
            return dtype
    return np.dtype(np.int64)


def object_array(values: Sequence) -> np.ndarray:
    """A 1-D object array holding ``values`` as they are."""
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@dataclass(frozen=True)
class DictColumn:
    """Rows of a string column: ``vocab[codes]``, with ``codes`` narrow."""

    codes: np.ndarray
    vocab: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> Union["DictColumn", object]:
        codes = self.codes[rows]
        if np.ndim(codes) == 0:
            return self.vocab[codes]
        return DictColumn(codes, self.vocab)

    def decode(self) -> np.ndarray:
        return self.vocab[self.codes]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        values = self.decode()
        return values if dtype is None else values.astype(dtype, copy=False)


def decoded(values) -> np.ndarray:
    """``values`` with a dictionary column decoded; anything else as is."""
    return values.decode() if isinstance(values, DictColumn) else values


def dictionary_encode(values: np.ndarray) -> Optional[DictColumn]:
    """An object column of ``str`` values as a :class:`DictColumn`.

    One hashing pass, no sort: the vocabulary lists each distinct value at
    its first occurrence.  ``None`` unless every value is exactly a
    ``str``: a dictionary keeps one object per equal value, which would
    turn ``True`` into ``1`` or a ``str`` subclass into ``str``.
    """
    if values.dtype != object:
        return None
    items = values.tolist()
    if not set(map(type, items)) <= {str}:
        return None
    vocab = list(dict.fromkeys(items))
    position = dict(zip(vocab, range(len(vocab))))
    codes = np.fromiter(
        map(position.__getitem__, items), code_dtype(len(vocab)), count=len(items)
    )
    return DictColumn(codes, object_array(vocab))


def encode_into(vocab: np.ndarray, values: Sequence) -> Optional[DictColumn]:
    """``values`` as codes into ``vocab``, which grows by appending the
    values it lacks in first-occurrence order; the same array object when
    it lacks none.  ``None`` unless every value is exactly a ``str``, the
    rule of :func:`dictionary_encode`."""
    items = list(values)
    if not set(map(type, items)) <= {str}:
        return None
    position = dict(zip(vocab.tolist(), range(len(vocab))))
    lacking = [v for v in dict.fromkeys(items) if v not in position]
    if lacking:
        position.update(zip(lacking, range(len(vocab), len(vocab) + len(lacking))))
        vocab = np.concatenate([vocab, object_array(lacking)])
    codes = np.fromiter(
        map(position.__getitem__, items), code_dtype(len(vocab)), count=len(items)
    )
    return DictColumn(codes, vocab)


def concat_columns(parts: Sequence) -> Union[np.ndarray, DictColumn]:
    """``np.concatenate`` for walk columns; decoded, the two agree bitwise.

    Dictionary parts that share one vocabulary concatenate by their codes.
    Otherwise their vocabularies are unified by value, in part order, and
    each part's codes are remapped into the union.  Any plain array among
    the parts decodes them all.
    """
    is_dict = [isinstance(part, DictColumn) for part in parts]
    if not any(is_dict):
        return np.concatenate(parts)
    if not all(is_dict):
        return np.concatenate([decoded(part) for part in parts])
    first = parts[0].vocab
    if all(part.vocab is first for part in parts):
        vocab = first
        codes = [part.codes for part in parts]
    else:
        vocab, remaps = _unify([part.vocab for part in parts])
        codes = [remap[part.codes] for part, remap in zip(parts, remaps)]
    return DictColumn(
        np.concatenate(codes).astype(code_dtype(len(vocab)), copy=False), vocab
    )


def recode(column: DictColumn, vocab: np.ndarray) -> Optional[DictColumn]:
    """``column``'s rows as codes into ``vocab``; None when ``vocab`` lacks
    a value they use."""
    if column.vocab is vocab:
        return column
    used = np.flatnonzero(np.bincount(column.codes, minlength=len(column.vocab)))
    values = column.vocab[used].tolist()
    position = dict(zip(vocab.tolist(), range(len(vocab))))
    if not all(value in position for value in values):
        return None
    remap = np.zeros(len(column.vocab), dtype=code_dtype(len(vocab)))
    remap[used] = [position[value] for value in values]
    return DictColumn(remap[column.codes], vocab)


def _unify(vocabs: List[np.ndarray]):
    """The union of ``vocabs`` by value in order, and each one's remap."""
    values = list(dict.fromkeys(chain.from_iterable(v.tolist() for v in vocabs)))
    # The dtype np.concatenate would give the decoded parts.
    union = np.empty(len(values), dtype=np.result_type(*vocabs))
    union[:] = values
    position = dict(zip(values, range(len(values))))
    dtype = code_dtype(len(values))
    remaps = [
        np.fromiter(map(position.__getitem__, v.tolist()), dtype, count=len(v))
        for v in vocabs
    ]
    return union, remaps


__all__ = [
    "CODE_DTYPES",
    "DictColumn",
    "code_dtype",
    "concat_columns",
    "decoded",
    "dictionary_encode",
    "encode_into",
    "object_array",
    "recode",
]
