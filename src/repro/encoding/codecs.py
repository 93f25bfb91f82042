"""Column codecs: discretize attribute values for the completion models.

Following the naru lineage the paper builds on [40], every modeled column is
mapped to a dense integer code space:

* categorical columns are dictionary-encoded with a reserved ``<unk>`` code
  for values never seen in the (incomplete) training data,
* continuous columns are quantile-binned; decoding draws uniformly within
  the bin (dequantization) or returns the bin's training mean,
* tuple factors are capped counts with a reserved ``unknown`` code used when
  the relationship completeness is not annotated for a parent tuple.

Codecs are fitted on the *available* (incomplete) data — the only data
ReStore ever sees — and applied to evidence tuples at completion time.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional, Sequence

import numpy as np

from ..relational.dictionary import DictColumn, code_dtype
from ..relational.tuple_factors import TF_UNKNOWN


class CategoricalCodec:
    """Dictionary encoding with an explicit unknown bucket (code 0)."""

    UNK = 0

    def __init__(self) -> None:
        self._values: Optional[np.ndarray] = None
        self._code_of: Dict = {}

    def fit(self, values: Sequence) -> "CategoricalCodec":
        uniques = np.unique(np.asarray(values))
        self._values = uniques
        self._code_of = {value: code + 1 for code, value in enumerate(uniques.tolist())}
        return self

    @property
    def vocab_size(self) -> int:
        self._require_fitted()
        return len(self._values) + 1  # type: ignore[arg-type]

    def encode(self, values: Sequence) -> np.ndarray:
        self._require_fitted()
        arr = np.asarray(values)
        if len(self._values) == 0:
            return np.full(len(arr), self.UNK, dtype=np.int64)
        if arr.dtype != object:
            try:
                # Vectorized path: the fitted values are sorted (np.unique), so
                # dictionary encoding is a binary search plus an exact match.
                pos = np.searchsorted(self._values, arr)
                clipped = np.minimum(pos, len(self._values) - 1)
                found = self._values[clipped] == arr
                return np.where(found, clipped + 1, self.UNK).astype(np.int64)
            except TypeError:
                pass  # unorderable against the fitted values
        # Object arrays (strings) look each value up in the dictionary: a
        # binary search would compare Python objects at every probe step.
        return np.fromiter(
            map(self._code_of.get, arr.tolist(), repeat(self.UNK)),
            np.int64, count=len(arr),
        )

    @property
    def values(self) -> np.ndarray:
        """The fitted values, sorted: code ``i + 1`` stands for ``values[i]``."""
        self._require_fitted()
        return self._values  # type: ignore[return-value]

    def decode(
        self,
        codes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        uniforms: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Map codes back to values; unknown codes draw a random known value.

        Sampling should never produce ``<unk>`` in practice (the training
        data contains no unknowns), but a uniform fallback keeps decoding
        total.  ``uniforms`` optionally supplies one ``[0, 1)`` draw per row
        (the runtime's counter-based streams) so the fallback does not
        depend on batch chunking.
        """
        return self.values[self._positions(codes, rng, uniforms)]

    def decode_column(
        self,
        codes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        uniforms: Optional[np.ndarray] = None,
    ):
        """:meth:`decode`, with string values kept as a
        :class:`~repro.relational.dictionary.DictColumn` over
        :attr:`values`."""
        positions = self._positions(codes, rng, uniforms)
        if self.values.dtype != object:
            return self.values[positions]
        return DictColumn(
            positions.astype(code_dtype(len(self.values))), self.values
        )

    def _positions(
        self,
        codes: np.ndarray,
        rng: Optional[np.random.Generator],
        uniforms: Optional[np.ndarray],
    ) -> np.ndarray:
        """Each code's position in :attr:`values`."""
        num_values = len(self.values)
        codes = np.asarray(codes)
        out = np.empty(len(codes), dtype=np.int64)
        known = codes > 0
        out[known] = codes[known] - 1
        if (~known).any():
            if uniforms is not None:
                picks = (np.asarray(uniforms)[~known] * num_values).astype(int)
                out[~known] = np.minimum(picks, num_values - 1)
            else:
                rng = rng or np.random.default_rng(0)
                out[~known] = rng.choice(num_values, size=int((~known).sum()))
        return out

    def _require_fitted(self) -> None:
        if self._values is None:
            raise RuntimeError("codec must be fitted before use")

    def get_state(self) -> Dict[str, object]:
        """Serializable fitted state (arrays stay numpy; see serving.artifacts)."""
        self._require_fitted()
        return {"kind": "categorical", "values": np.array(self._values, copy=True)}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "CategoricalCodec":
        """Rebuild a fitted codec from :meth:`get_state` output."""
        codec = cls()
        values = np.asarray(state["values"])
        codec._values = values
        codec._code_of = {value: code + 1 for code, value in enumerate(values.tolist())}
        return codec


class ContinuousCodec:
    """Quantile binning with per-bin dequantization.

    ``num_bins`` is an upper bound; duplicate quantile edges (heavily
    repeated values) collapse into fewer effective bins.
    """

    def __init__(self, num_bins: int = 32):
        if num_bins < 2:
            raise ValueError("need at least 2 bins")
        self.num_bins = num_bins
        self._edges: Optional[np.ndarray] = None
        self._bin_means: Optional[np.ndarray] = None
        self._bin_lo: Optional[np.ndarray] = None
        self._bin_hi: Optional[np.ndarray] = None
        self._integral = False

    def fit(self, values: Sequence) -> "ContinuousCodec":
        arr = np.asarray(values, dtype=float)
        if len(arr) == 0:
            raise ValueError("cannot fit a continuous codec on no data")
        # Integer-valued columns (years, counts) must decode to integers,
        # otherwise synthesized values never match GROUP BY keys or equality
        # filters on the original domain.
        self._integral = bool(np.all(arr == np.round(arr)))
        quantiles = np.linspace(0.0, 1.0, self.num_bins + 1)
        edges = np.unique(np.quantile(arr, quantiles))
        if len(edges) < 2:  # constant column
            edges = np.array([edges[0], edges[0] + 1e-9])
        self._edges = edges
        codes = self._bin_of(arr)
        k = self.vocab_size
        sums = np.bincount(codes, weights=arr, minlength=k)
        counts = np.bincount(codes, minlength=k)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        # Empty bins fall back to the bin midpoint.
        lows, highs = edges[:-1], edges[1:]
        mid = (lows + highs) / 2.0
        self._bin_means = np.where(counts > 0, means, mid)
        self._bin_lo = lows
        self._bin_hi = highs
        return self

    @property
    def vocab_size(self) -> int:
        self._require_fitted()
        return len(self._edges) - 1  # type: ignore[arg-type]

    def _bin_of(self, arr: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._edges, arr, side="right") - 1  # type: ignore[arg-type]
        return np.clip(idx, 0, self.vocab_size - 1).astype(np.int64)

    def encode(self, values: Sequence) -> np.ndarray:
        self._require_fitted()
        return self._bin_of(np.asarray(values, dtype=float))

    def decode(
        self,
        codes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        dequantize: bool = True,
        uniforms: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Bin codes back to floats — uniform within-bin draws by default.

        Columns that were integral at fit time decode to rounded values so
        synthesized data stays on the original domain.  ``uniforms``
        optionally supplies the per-row within-bin positions directly (the
        runtime's counter-based streams), taking precedence over ``rng``.
        """
        self._require_fitted()
        codes = np.asarray(codes)
        if not dequantize or (rng is None and uniforms is None):
            out = self._bin_means[codes]  # type: ignore[index]
        else:
            lo = self._bin_lo[codes]  # type: ignore[index]
            hi = self._bin_hi[codes]  # type: ignore[index]
            u = np.asarray(uniforms) if uniforms is not None else rng.random(len(codes))
            out = lo + u * (hi - lo)
        if self._integral:
            return np.round(out)
        return out

    def _require_fitted(self) -> None:
        if self._edges is None:
            raise RuntimeError("codec must be fitted before use")

    def get_state(self) -> Dict[str, object]:
        """Serializable fitted state (arrays stay numpy; see serving.artifacts)."""
        self._require_fitted()
        return {
            "kind": "continuous",
            "num_bins": self.num_bins,
            "integral": bool(self._integral),
            "edges": np.array(self._edges, copy=True),
            "bin_means": np.array(self._bin_means, copy=True),
            "bin_lo": np.array(self._bin_lo, copy=True),
            "bin_hi": np.array(self._bin_hi, copy=True),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ContinuousCodec":
        """Rebuild a fitted codec from :meth:`get_state` output."""
        codec = cls(int(state["num_bins"]))
        codec._integral = bool(state["integral"])
        codec._edges = np.asarray(state["edges"], dtype=float)
        codec._bin_means = np.asarray(state["bin_means"], dtype=float)
        codec._bin_lo = np.asarray(state["bin_lo"], dtype=float)
        codec._bin_hi = np.asarray(state["bin_hi"], dtype=float)
        return codec


class TupleFactorCodec:
    """Capped-count encoding for tuple factors with an ``unknown`` code.

    Codes ``0 .. cap`` are literal counts (``cap`` also absorbs the clipped
    tail); code ``cap + 1`` marks parents whose relationship completeness is
    unannotated (``TF_UNKNOWN``).  Sampling masks the unknown code out — a
    synthesized tuple factor is always an actual count.
    """

    def __init__(self, cap: int = 20):
        if cap < 1:
            raise ValueError("tuple-factor cap must be >= 1")
        self.cap = cap

    @property
    def vocab_size(self) -> int:
        return self.cap + 2

    @property
    def unknown_code(self) -> int:
        return self.cap + 1

    def encode(self, tfs: Sequence[int]) -> np.ndarray:
        arr = np.asarray(tfs, dtype=np.int64)
        out = np.clip(arr, 0, self.cap)
        out[arr == TF_UNKNOWN] = self.unknown_code
        return out

    def decode(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        out = codes.copy()
        out[codes == self.unknown_code] = TF_UNKNOWN
        return out

    def sampling_mask(self) -> np.ndarray:
        """Boolean mask over the vocabulary: which codes sampling may emit."""
        mask = np.ones(self.vocab_size, dtype=bool)
        mask[self.unknown_code] = False
        return mask
