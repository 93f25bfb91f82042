"""AR and SSAR completion models over a completion path.

``ARCompletionModel`` (paper §3.2) is a residual MADE over all variables of
a :class:`~repro.core.path_data.PathLayout`; ``SSARCompletionModel``
(paper §3.3) additionally conditions every output on a deep-sets encoding of
the evidence tuple's fan-out tree (including self-evidence with
leave-one-out during training).

Both expose the same hop-level API used by the incompleteness join:

* :meth:`predict_tuple_factors` — sample/read the number of child tuples an
  evidence tuple should have,
* :meth:`sample_slot` — synthesize the columns of the next table on the
  path, conditioned on everything sampled so far,
* :meth:`conditional_probs` — the per-variable distribution needed by the
  confidence estimator (§6).

Every forward of that API, and the §5 selection loss, runs on the float32
network runtime (:mod:`repro.runtime.training` over a frozen parameter
buffer); the ``repro.nn`` modules hold the named float64 parameters that
``fit`` trains and artifacts store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..nn import (
    EvidenceTreeEncoder,
    Module,
    ResidualMADE,
    TrainConfig,
    TrainResult,
    train,
)
from ..runtime.rng import _sample_rows
from ..runtime.training import (
    FusedResidualMADE,
    FusedTrainStepper,
    FusedTreeEncoder,
    ParameterBuffer,
)
from .forest import EvidenceForest
from .path_data import PathLayout, TrainingData, assemble_training_data

#: A model's float32 runtime: its MADE and, for SSAR, its tree encoder.
_Networks = Tuple[FusedResidualMADE, Optional[FusedTreeEncoder]]


@dataclass
class ModelConfig:
    """Architecture and training hyper-parameters of a completion model."""

    embed_dim: int = 16
    hidden: Sequence[int] = (64, 64)
    tree_dim: int = 16
    seed: int = 0
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=20, batch_size=256, lr=5e-3, patience=4,
    ))


class _HopSamplingAPI:
    """The hop-level sampling surface consumed by the incompleteness join.

    Everything is expressed through three hooks — ``layout``,
    :meth:`_require_fitted` and :meth:`_networks` (plus ``forest`` for
    SSAR) — so the same code drives both the live (trainable) completion
    models and the picklable :class:`CompletionSnapshot` shipped to process
    workers.  Both sample through the same float32 network objects.
    """

    kind = "base"
    layout: PathLayout
    #: The evidence forest SSAR models encode contexts from (None for AR).
    forest: Optional[EvidenceForest] = None

    def _require_fitted(self) -> None:
        raise NotImplementedError

    def _networks(self) -> _Networks:
        """The float32 MADE and (SSAR) tree encoder every forward runs on."""
        raise NotImplementedError

    def _cond_probs(
        self, prefix: np.ndarray, variable: int, context: Optional[np.ndarray],
        context_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``P(x_variable | earlier, context)``."""
        made, _tree = self._networks()
        return made.conditional_probs(
            prefix, variable, context=context, context_ids=context_ids
        )

    def context_for_roots(self, root_rows: np.ndarray) -> Optional[np.ndarray]:
        """Raw context vectors for evidence root rows (None for AR).

        Inference-time contexts encode the full trees (no leave-one-out).
        """
        if self.forest is None:
            return None
        _made, tree = self._networks()
        batches = self.forest.batch_for_roots(np.asarray(root_rows, dtype=np.int64))
        return tree.forward(batches, len(root_rows))

    # -- hop-level sampling API ------------------------------------------
    def predict_tuple_factors(
        self,
        prefix: np.ndarray,
        slot: int,
        rng: Optional[np.random.Generator] = None,
        context: Optional[np.ndarray] = None,
        min_counts: Optional[np.ndarray] = None,
        draws: Optional[np.ndarray] = None,
        context_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sample tuple factors for the fan-out hop entering ``slot``.

        The reserved ``unknown`` code is masked out, so the result is always
        an actual count.  ``min_counts`` truncates each row's conditional at
        the number of children already observed — we *know* TF >= existing,
        and sampling untruncated then clamping would bias counts upward.
        The sampled code is also written into ``prefix`` (callers pass the
        same array on to :meth:`sample_slot`).  Randomness comes from
        ``draws`` (one uniform per row, the runtime's counter-based streams)
        when given, else from ``rng``.  Accepts row-chunked batches: rows
        are independent, so any partition of a batch yields the same result.
        ``context_ids`` (each row's root row) lets rows that share a root
        and a prefix share one forward; see :meth:`sample_slot`.
        """
        self._require_fitted()
        tf_idx = self.layout.tf_variable_index(slot)
        if tf_idx is None:
            raise ValueError(f"slot {slot} is not a fan-out hop")
        codec = self.layout.tf_codec_for(slot)
        probs = self._cond_probs(prefix, tf_idx, context, context_ids)
        probs = probs * codec.sampling_mask()[None, :]
        if min_counts is not None:
            counts_axis = np.arange(probs.shape[1])
            probs = probs * (counts_axis[None, :] >= np.asarray(min_counts)[:, None])
            # Rows whose observed count exceeds every remaining code fall
            # back to exactly the observed count.
            dead = probs.sum(axis=1) <= 0
            if dead.any():
                probs[dead] = 0.0
                clip = np.minimum(np.asarray(min_counts)[dead], codec.cap)
                probs[np.flatnonzero(dead), clip] = 1.0
        probs = probs / probs.sum(axis=1, keepdims=True)
        codes = _sample_rows(probs, rng, draws)
        prefix[:, tf_idx] = codes
        return codec.decode(codes)

    def sample_slot(
        self,
        prefix: np.ndarray,
        slot: int,
        rng: Optional[np.random.Generator] = None,
        context: Optional[np.ndarray] = None,
        draws: Optional[np.ndarray] = None,
        context_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Synthesize the column variables of path slot ``slot``.

        ``prefix`` must already contain all earlier variables (and the
        slot's TF variable if the hop fans out).  Returns the full code
        matrix with the slot filled in.  ``draws`` supplies the
        ``(rows, num_slot_columns)`` sampling uniforms for the
        chunk-invariant runtime path; otherwise ``rng`` is used.
        ``context_ids`` names each row's context: rows with equal ids must
        have bitwise-equal contexts (the join passes root rows, of which
        SSAR contexts are a function), and rows that also share their
        codes so far are forwarded once.
        """
        self._require_fitted()
        start, stop = self.layout.slot_range(slot)
        tf_idx = self.layout.tf_variable_index(slot)
        first_column = start if tf_idx is None else tf_idx + 1
        made, _tree = self._networks()
        return made.sample(
            prefix, first_column, rng, context=context, stop_variable=stop,
            draws=draws, context_ids=context_ids,
        )

    def slot_sample_width(self, slot: int) -> int:
        """Number of variables :meth:`sample_slot` draws for ``slot``."""
        start, stop = self.layout.slot_range(slot)
        tf_idx = self.layout.tf_variable_index(slot)
        first_column = start if tf_idx is None else tf_idx + 1
        return stop - first_column

    def conditional_probs(
        self,
        prefix: np.ndarray,
        variable: int,
        context: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``P(x_variable | earlier variables, context)`` for confidence."""
        self._require_fitted()
        return self._cond_probs(prefix, variable, context)

    def describe(self) -> str:
        return f"{self.kind.upper()}({self.layout.path})"


class CompletionSnapshot(_HopSamplingAPI):
    """Picklable, inference-only view of a fitted completion model.

    Carries the model's float32 networks — ``made`` and, for SSAR,
    ``tree``, built over a frozen
    :class:`~repro.runtime.training.ParameterBuffer` — plus the path layout
    and evidence forest — everything the incompleteness join touches and
    nothing of the parameter module — so process workers receive only the
    float32 weights they sample with.  The live model samples through the
    very same network objects, which is what keeps sharded runs bitwise
    identical across backends.
    """

    def __init__(
        self,
        kind: str,
        layout: PathLayout,
        made: FusedResidualMADE,
        tree: Optional[FusedTreeEncoder] = None,
        forest: Optional[EvidenceForest] = None,
    ):
        self.kind = kind
        self.layout = layout
        self.made = made
        self.tree = tree
        self.forest = forest

    def _require_fitted(self) -> None:
        pass  # snapshots only exist for fitted models

    def _networks(self) -> _Networks:
        return self.made, self.tree

    def inference_snapshot(self) -> "CompletionSnapshot":
        return self


class _CompletionModelBase(_HopSamplingAPI, Module):
    """Shared plumbing of AR and SSAR completion models."""

    kind = "base"

    def __init__(self, layout: PathLayout, config: Optional[ModelConfig] = None):
        self.layout = layout
        self.config = config or ModelConfig()
        self.train_result: Optional[TrainResult] = None
        self.training_data: Optional[TrainingData] = None
        self._val_indices: Optional[np.ndarray] = None
        self._fitted_from_artifact = False
        # The float32 networks, built from the current weights on first use
        # and dropped whenever the weights change.
        self._sampler: Optional[_Networks] = None

    # -- float32 runtime -------------------------------------------------
    def _networks(self) -> _Networks:
        if self._sampler is None:
            self._sampler = self._build_networks()
        return self._sampler

    def _build_networks(self) -> _Networks:
        """Fresh float32 networks over a frozen copy of the current weights."""
        buffer = ParameterBuffer(self).freeze()
        tree = getattr(self, "tree_encoder", None)
        return (
            FusedResidualMADE(self.made, buffer),
            None if tree is None else FusedTreeEncoder(tree, buffer),
        )

    def inference_snapshot(self) -> CompletionSnapshot:
        """A picklable float32 view of this model for process workers."""
        self._require_fitted()
        made, tree = self._networks()
        return CompletionSnapshot(self.kind, self.layout, made, tree, self.forest)

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._sampler = None

    # -- context hooks (overridden by SSAR) ----------------------------
    def _context_batches(self, indices: np.ndarray):
        """Raw evidence-tree batches for training rows (``(None, 0)`` for AR).

        SSAR batches leave each row's own target tuple out of its
        self-evidence; training and the §5 selection loss both encode them.
        """
        return None, 0

    # -- training -------------------------------------------------------
    def fit(self, warm_start: bool = False) -> TrainResult:
        """Assemble training data from the incomplete database and train.

        Training runs the fused float32 kernels of
        :mod:`repro.runtime.training` and writes the result back into the
        model's float64 parameters.

        With ``warm_start=True`` training continues from the current
        parameters (incremental fine-tuning after a database mutation):
        the log-marginal output-bias re-initialization is skipped — it
        would clobber the fitted heads — and the result records
        ``warm_start=True``.
        """
        data = assemble_training_data(self.layout)
        if data.num_rows < 8:
            raise ValueError(
                f"path {self.layout.path} yields only {data.num_rows} training rows"
            )
        self.training_data = data
        matrix = data.matrix
        var_weights = self._debias_weights(data)
        if not warm_start:
            self._init_output_bias(matrix, var_weights)

        cfg = self.config.train
        stepper = FusedTrainStepper(self, matrix, var_weights, cfg)
        result = train(stepper, data.num_rows, cfg)
        result.warm_start = warm_start
        self.train_result = result
        self._val_indices = result.val_indices
        self._sampler = None
        return result

    def _require_fitted(self) -> None:
        if self.train_result is None and not self._fitted_from_artifact:
            raise RuntimeError("completion model must be fitted first")

    def mark_fitted_from_artifact(
        self, train_result: Optional[TrainResult] = None
    ) -> None:
        """Declare this model fitted with externally restored parameters.

        Used by :mod:`repro.serving.artifacts` after ``load_state_dict``:
        the weights are a trained snapshot, but the training-time state
        (training matrix, validation split) is intentionally not part of an
        artifact, so selection statistics must come from the artifact's
        stored candidate scores rather than be recomputed here.  An optional
        ``train_result`` restores the loss trajectory for provenance.
        """
        self._fitted_from_artifact = True
        if train_result is not None:
            self.train_result = train_result
        self._sampler = None

    def _init_output_bias(
        self, matrix: np.ndarray, var_weights: Dict[int, np.ndarray]
    ) -> None:
        """Start each output head at the variable's (debiased) marginal.

        Standard practice in the naru lineage [40]: with log-marginal output
        biases, an under-trained conditional degrades gracefully to the
        marginal instead of to uniform — which matters most for the
        tuple-factor heads, whose expectation drives how many tuples the
        incompleteness join synthesizes.  The marginal uses the same
        size-debiasing weights as the loss, so a parent appearing once per
        child does not skew its own TF marginal upward.
        """
        bias = self.made.output_layer.bias
        if bias is None:
            return
        for i, spec in enumerate(self.layout.variables):
            vocab = spec.vocab_size
            weights = var_weights.get(i)
            counts = np.bincount(
                matrix[:, i], weights=weights, minlength=vocab
            ).astype(float)
            probs = (counts + 0.5) / (counts.sum() + 0.5 * vocab)
            start = int(self.made._logit_offsets[i])
            bias.data[start:start + vocab] = np.log(probs)

    def _debias_weights(self, data: TrainingData) -> Dict[int, np.ndarray]:
        """Per-variable training weights undoing join size bias.

        A join row exists once per child combination, so the variables of
        path slot *j* (and the tuple factor entering slot *j*, which belongs
        to the slot *j-1* tuple) would otherwise be learned size-biased:
        parents with many kept children dominate.  Weighting each slot's
        variables by ``1 / multiplicity`` of its distinct tuple combination
        restores per-tuple semantics — in particular E[TF | evidence] becomes
        unbiased, which drives the cardinality correction (Fig. 7b).
        """
        tables = self.layout.path.tables
        weights: Dict[int, np.ndarray] = {}
        slot_weight: Dict[int, np.ndarray] = {}
        # Slot combos are encoded incrementally: the group ids of slots
        # 0..j-1 pair with slot j's row positions to give the ids of slots
        # 0..j, so each slot costs one 1-D unique instead of re-sorting an
        # ever-growing stacked (rows, j) matrix.
        group_ids: Optional[np.ndarray] = None
        for slot, table in enumerate(tables):
            positions = data.row_positions[table]
            if group_ids is None:
                combined = positions
            else:
                combined = group_ids * (int(positions.max(initial=0)) + 1) + positions
            _, group_ids, counts = np.unique(
                combined, return_inverse=True, return_counts=True
            )
            slot_weight[slot] = 1.0 / counts[group_ids]
        for var_idx, spec in enumerate(self.layout.variables):
            if spec.is_tuple_factor:
                weights[var_idx] = slot_weight[spec.slot - 1]
            else:
                weights[var_idx] = slot_weight[spec.slot]
        return weights

    # -- selection criteria ----------------------------------------------
    def _require_training_data(self) -> TrainingData:
        """The training rows the §5 losses are scored on.

        Artifacts keep no training data, so a model restored from one has
        only the scores stored with its engine.
        """
        self._require_fitted()
        if self.training_data is None:
            raise RuntimeError(
                f"{self.describe()} was restored from an artifact, which "
                f"keeps no training data; read its stored §5 scores with "
                f"engine.candidates(target)"
            )
        return self.training_data

    def target_test_loss(self) -> float:
        """Held-out NLL restricted to the target table's variables (§5).

        This is the paper's basic model-selection signal: if the target
        attributes cannot be predicted from the evidence, this loss stays
        near the marginal entropy and the model should not be trusted.
        SSAR contexts leave each row's own target tuple out, as in training.
        """
        data = self._require_training_data()
        idx = self._val_indices
        # Reuse cached networks, but cache none: most candidates never
        # answer a query, and their networks would only hold memory.
        made, tree = self._sampler or self._build_networks()
        batches, batch_size = self._context_batches(idx)
        context = None if tree is None else tree.forward(batches, batch_size)
        per_row = made.per_example_nll(
            data.matrix[idx], context, variables=self.layout.target_variables()
        )
        return float(per_row.mean())

    def marginal_target_loss(self) -> float:
        """NLL of the empirical per-column marginals on the same held-out rows.

        The gap ``marginal - model`` measures how much signal the evidence
        actually provides (0 gap = unpredictable target, prune the model).
        """
        matrix = self._require_training_data().matrix
        idx = self._val_indices
        total = np.zeros(len(idx))
        for var in self.layout.target_variables():
            values = matrix[:, var]
            counts = np.bincount(values, minlength=self.layout.variables[var].vocab_size)
            probs = (counts + 0.5) / (counts.sum() + 0.5 * len(counts))
            total += -np.log(probs[matrix[idx, var]])
        return float(total.mean())

class ARCompletionModel(_CompletionModelBase):
    """Simple autoregressive completion model (paper §3.2)."""

    kind = "ar"

    def __init__(self, layout: PathLayout, config: Optional[ModelConfig] = None):
        super().__init__(layout, config)
        rng = np.random.default_rng(self.config.seed)
        self.made = ResidualMADE(
            layout.vocab_sizes(),
            embed_dim=self.config.embed_dim,
            hidden=tuple(self.config.hidden),
            rng=rng,
        )


class SSARCompletionModel(_CompletionModelBase):
    """Schema-structured autoregressive model with fan-out evidence (§3.3)."""

    kind = "ssar"

    def __init__(
        self,
        layout: PathLayout,
        forest: EvidenceForest,
        config: Optional[ModelConfig] = None,
    ):
        super().__init__(layout, config)
        if not forest.has_walks:
            raise ValueError(
                "SSAR model needs at least one fan-out walk; use AR instead"
            )
        self.forest = forest
        rng = np.random.default_rng(self.config.seed)
        self.tree_encoder = EvidenceTreeEncoder(
            forest.specs(),
            embed_dim=self.config.embed_dim,
            node_dim=self.config.tree_dim,
            rng=rng,
        )
        self.made = ResidualMADE(
            layout.vocab_sizes(),
            embed_dim=self.config.embed_dim,
            hidden=tuple(self.config.hidden),
            rng=rng,
            context_dim=self.tree_encoder.context_dim,
        )

    def _context_batches(self, indices: np.ndarray):
        data = self.training_data
        root_table = self.layout.path.tables[0]
        target_table = self.layout.path.target
        roots = data.row_positions[root_table][indices]
        exclude = None
        if self.forest.self_evidence_table == target_table:
            exclude = data.row_positions[target_table][indices]
        batches = self.forest.batch_for_roots(roots, exclude_target_rows=exclude)
        return batches, len(indices)
