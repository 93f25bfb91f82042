"""Completion confidence intervals (paper §6).

For every synthesized tuple we compare the model's conditional distribution
``P_model`` of a query attribute with the marginal ``P_incomplete`` observed
in the training data.  An uncertain model falls back to the marginal, so the
normalized KL divergence

.. math:: C(t_e) = 1 - \\exp(-D_{KL}(P_{model} \\| P_{incomplete}))

measures per-tuple certainty.  Bounds mix the model's distribution with a
worst-case distribution: ``P_upper`` puts the confidence level's mass (e.g.
95%) on the queried value / top quantile, ``P_lower`` the complement.  The
bound for a synthesized tuple is ``C·P_model + (1-C)·P_bound``; existing
tuples contribute their exact values.  Theoretical min/max bounds replace
none/all synthesized values with the queried value (the sanity envelope of
Fig. 6/13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..encoding import CategoricalCodec, ContinuousCodec
from ..query import AggregateKind, Query
from .incompleteness_join import CompletedJoin
from .models import _CompletionModelBase


@dataclass
class ConfidenceBand:
    """An interval for one aggregate over the completed data."""

    estimate: float
    lower: float
    upper: float
    theoretical_min: Optional[float] = None
    theoretical_max: Optional[float] = None

    def contains(self, value: float) -> bool:
        return self.lower - 1e-12 <= value <= self.upper + 1e-12

    @property
    def width(self) -> float:
        return self.upper - self.lower


class ConfidenceEstimator:
    """Derive §6 confidence bands from a completed join.

    Parameters
    ----------
    model:
        The fitted completion model that produced the join.
    completed:
        The :class:`CompletedJoin` (must carry ``codes``).
    confidence:
        Two-sided confidence level; 0.95 reproduces the paper's plots.
    """

    def __init__(
        self,
        model: _CompletionModelBase,
        completed: CompletedJoin,
        confidence: float = 0.95,
    ):
        if not 0.5 < confidence < 1.0:
            raise ValueError("confidence must be in (0.5, 1)")
        if completed.codes is None:
            raise ValueError("completed join does not carry model codes")
        self.model = model
        self.completed = completed
        self.confidence = confidence
        self.layout = model.layout
        self.target = model.layout.path.target
        self._distributions: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _variable_index(self, column: str) -> int:
        name = f"{self.target}.{column}"
        for i, spec in enumerate(self.layout.variables):
            if spec.name == name:
                return i
        raise KeyError(f"{name} is not a model variable")

    def _per_tuple_distributions(self, variable: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(P_model per synthesized row, certainty per synthesized row)``.

        Memoized per variable: the model forward over every synthesized row
        dominates band cost, and repeated ``count_fraction`` calls for
        different values of one column — or ``average`` + ``total`` on the
        same column — share identical distributions.  The completed join is
        immutable, so entries never go stale.
        """
        if variable in self._distributions:
            return self._distributions[variable]
        synth = self.completed.target_synthesized()
        codes = self.completed.codes[synth]
        ctx = None if self.completed.context is None else self.completed.context[synth]
        roots = None if self.completed.roots is None else self.completed.roots[synth]
        p_model = self.model.conditional_probs(
            codes, variable, context=ctx, context_ids=roots
        )

        train = self.model.training_data.matrix[:, variable]
        vocab = self.layout.variables[variable].vocab_size
        counts = np.bincount(train, minlength=vocab).astype(float)
        p_incomplete = (counts + 0.5) / (counts.sum() + 0.5 * vocab)

        kl = np.sum(
            p_model * (np.log(np.maximum(p_model, 1e-12)) - np.log(p_incomplete)),
            axis=1,
        )
        certainty = 1.0 - np.exp(-np.maximum(kl, 0.0))
        self._distributions[variable] = (p_model, certainty)
        return p_model, certainty

    def _weights(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        weights = self.completed.result.effective_weights()
        synth = self.completed.target_synthesized()
        return weights, weights[synth], weights[~synth]

    # ------------------------------------------------------------------
    # COUNT of one categorical value (the paper's canonical case)
    # ------------------------------------------------------------------
    def count_fraction(self, column: str, value) -> ConfidenceBand:
        """Band for the *fraction* of target tuples with ``column == value``."""
        variable = self._variable_index(column)
        codec = self.layout.encoders[self.target].codec(column)
        if not isinstance(codec, CategoricalCodec):
            raise TypeError(f"{column} is not categorical; use average()")
        code = int(codec.encode([value])[0])

        p_model, certainty = self._per_tuple_distributions(variable)
        weights, w_synth, w_exist = self._weights()
        synth = self.completed.target_synthesized()
        values = self.completed.result.resolve(f"{self.target}.{column}")
        exist_hits = float((w_exist * (values[~synth] == value)).sum())

        p_value = p_model[:, code]
        upper_mass = self.confidence
        lower_mass = 1.0 - self.confidence
        mixed_up = certainty * p_value + (1.0 - certainty) * upper_mass
        mixed_lo = certainty * p_value + (1.0 - certainty) * lower_mass

        total = float(weights.sum())
        estimate = (exist_hits + float((w_synth * p_value).sum())) / total
        return ConfidenceBand(
            estimate=estimate,
            lower=(exist_hits + float((w_synth * mixed_lo).sum())) / total,
            upper=(exist_hits + float((w_synth * mixed_up).sum())) / total,
            theoretical_min=exist_hits / total,
            theoretical_max=(exist_hits + float(w_synth.sum())) / total,
        )

    # ------------------------------------------------------------------
    # AVG of a continuous attribute (§6.2)
    # ------------------------------------------------------------------
    def average(self, column: str) -> ConfidenceBand:
        """Band for the average of a continuous target attribute."""
        variable = self._variable_index(column)
        codec = self.layout.encoders[self.target].codec(column)
        if not isinstance(codec, ContinuousCodec):
            raise TypeError(f"{column} is not continuous; use count_fraction()")

        p_model, certainty = self._per_tuple_distributions(variable)
        weights, w_synth, w_exist = self._weights()
        synth = self.completed.target_synthesized()
        values = np.asarray(
            self.completed.result.resolve(f"{self.target}.{column}"), dtype=float
        )
        exist_sum = float((w_exist * values[~synth]).sum())

        bin_values = codec.decode(np.arange(codec.vocab_size), dequantize=False)
        model_mean = p_model @ bin_values
        low_value, high_value = bin_values.min(), bin_values.max()
        # P_lower/P_upper put the confidence mass on the extreme bin and the
        # rest on the model mean — the conservative §6.2 construction.
        upper_mean = self.confidence * high_value + (1 - self.confidence) * model_mean
        lower_mean = self.confidence * low_value + (1 - self.confidence) * model_mean
        mixed_up = certainty * model_mean + (1.0 - certainty) * upper_mean
        mixed_lo = certainty * model_mean + (1.0 - certainty) * lower_mean

        total = float(weights.sum())
        estimate = (exist_sum + float((w_synth * model_mean).sum())) / total
        return ConfidenceBand(
            estimate=estimate,
            lower=(exist_sum + float((w_synth * mixed_lo).sum())) / total,
            upper=(exist_sum + float((w_synth * mixed_up).sum())) / total,
            theoretical_min=(exist_sum + float(w_synth.sum()) * low_value) / total,
            theoretical_max=(exist_sum + float(w_synth.sum()) * high_value) / total,
        )

    # ------------------------------------------------------------------
    # SUM = AVG x COUNT (paper: "treated as a combination")
    # ------------------------------------------------------------------
    def total(self, column: str) -> ConfidenceBand:
        """Band for the sum of a continuous target attribute."""
        avg_band = self.average(column)
        total_weight = float(self.completed.result.effective_weights().sum())
        return ConfidenceBand(
            estimate=avg_band.estimate * total_weight,
            lower=avg_band.lower * total_weight,
            upper=avg_band.upper * total_weight,
            theoretical_min=(
                None if avg_band.theoretical_min is None
                else avg_band.theoretical_min * total_weight
            ),
            theoretical_max=(
                None if avg_band.theoretical_max is None
                else avg_band.theoretical_max * total_weight
            ),
        )

    def synthesis_ratio(self) -> float:
        """Share of (weighted) rows whose target tuple is synthetic —
        the per-query statistic shown for unsupported query types."""
        weights = self.completed.result.effective_weights()
        synth = self.completed.target_synthesized()
        total = float(weights.sum())
        if total == 0:
            return 0.0
        return float(weights[synth].sum()) / total


def band_for_query(
    estimator: ConfidenceEstimator, query: Query
) -> Optional[ConfidenceBand]:
    """A §6 band for the query's aggregate, where the machinery supports one.

    Supported: ungrouped ``AVG``/``SUM`` over a *continuous* column of the
    completion target.  Anything else (grouping, COUNT, non-target or
    categorical columns) returns ``None`` — progressive refinement then
    streams point estimates without bands rather than failing.
    """
    if query.group_by:
        return None
    agg = query.aggregate
    if agg.column is None or agg.kind is AggregateKind.COUNT:
        return None
    column = agg.column
    if "." in column:
        table, column = column.split(".", 1)
        if table != estimator.target:
            return None
    target_table = estimator.layout.db.table(estimator.target)
    if column not in target_table.column_names:
        return None
    try:
        if agg.kind is AggregateKind.AVG:
            return estimator.average(column)
        return estimator.total(column)
    except (TypeError, KeyError):
        # categorical column or not a model variable
        return None
