"""The float32 network runtime: fused training kernels and inference forwards.

This is the one implementation of the two networks the engine trains —
:class:`~repro.nn.made.ResidualMADE` and the deep-sets
:class:`~repro.nn.deepsets.EvidenceTreeEncoder`, whose float64 parameters
:mod:`repro.nn` defines: hand-derived fused forward+backward kernels running
on a single flat float32 parameter buffer with an array-based Adam
(:class:`repro.nn.optim.AdamArrays`).  Built over a *frozen* buffer, the
same two classes are the inference runtime the incompleteness join samples
with (``conditional_probs``, ``sample`` and the tree ``forward``) and the
§5 selection scorer (``per_example_nll``).

Design:

* **One network implementation.**  The dense/embedding/softmax primitives
  live in :mod:`repro.runtime.kernels`.  Training and inference share the
  feature gather, the masked-weight preparation and the hidden-stack
  forward; the backward passes here differentiate exactly those forwards.
* **Fixed inference tiles.**  Inference runs every dense layer over
  zero-padded tiles of :data:`~repro.runtime.kernels.TILE` rows
  (:func:`~repro.runtime.kernels.tile_apply`), so a row's activations are
  bitwise identical no matter how the batch around it is chunked — which
  lets the chunked incompleteness join reproduce the unchunked run
  exactly.  The layers receive up to
  :data:`~repro.runtime.kernels.TILES_PER_CALL` tiles stacked in one
  array: a stacked matmul is still one fixed-shape GEMM per tile, with
  one Python call per stack instead of per tile.  Training runs whole
  mini-batches.
* **Flat buffers.**  :class:`ParameterBuffer` packs every named parameter
  of a module into one contiguous array (plus a matching gradient array)
  and hands out reshaped views keyed by the module's parameter objects.
  Optimizer steps, gradient clipping and best-epoch snapshots are single
  vectorized operations on the flat arrays.  A frozen buffer
  (:meth:`ParameterBuffer.freeze`) instead holds gradient-free standalone
  copies, so a network built over it pickles exactly the float32 arrays it
  computes with — the payload process workers receive.
* **Checked against a float64 oracle.**  Buffers accept a ``dtype`` so
  the gradcheck suite can run the same kernels in float64 and compare them
  to machine precision with the test-only graph engine under
  ``tests/oracle``; production training uses float32.
* **Write-back.**  After training, :meth:`ParameterBuffer.write_back`
  copies the buffer into the module's float64 parameters, so ``state_dict``
  names and serialized artifacts key the same arrays the buffer trained.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.deepsets import EvidenceTreeEncoder, TreeNodeBatch, _NodeEncoder
from ..nn.layers import Module
from ..nn.made import ResidualMADE
from ..nn.optim import AdamArrays, clip_grad_norm_arrays
from ..nn.train import TrainConfig, TrainStepper
from ..obs import profile as _profile
from . import kernels
from . import rng as _rng


class ParameterBuffer:
    """Flat typed storage for a module's parameters and their gradients.

    Packs every ``named_parameters()`` array of ``module`` into one
    contiguous ``dtype`` array (float32 by default) and exposes reshaped
    views by parameter name or by the module's parameter object.  The views
    alias the flat array, so an optimizer update on :attr:`flat` is
    immediately visible to every kernel holding a view.

    :meth:`freeze` derives the inference variant.
    """

    def __init__(self, module: Module, dtype=kernels.DTYPE):
        self.dtype = np.dtype(dtype)
        self.frozen = False
        named = list(module.named_parameters())
        self.names: List[str] = [name for name, _ in named]
        self._params = [param for _, param in named]
        sizes = [param.data.size for param in self._params]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        total = int(offsets[-1])
        self.flat = np.empty(total, dtype=self.dtype)
        self.grad = np.zeros(total, dtype=self.dtype)
        self._views: Dict[str, np.ndarray] = {}
        self._grad_views: Dict[str, np.ndarray] = {}
        self._name_by_id: Dict[int, str] = {}
        for name, param, start, stop in zip(
            self.names, self._params, offsets[:-1], offsets[1:]
        ):
            shape = param.data.shape
            self._views[name] = self.flat[start:stop].reshape(shape)
            self._grad_views[name] = self.grad[start:stop].reshape(shape)
            self._name_by_id[id(param)] = name
            self._views[name][...] = param.data

    def _name_of(self, key) -> str:
        if isinstance(key, str):
            return key
        name = self._name_by_id.get(id(key))
        if name is None:
            raise KeyError("not a parameter of the buffered module")
        return name

    def view(self, key) -> np.ndarray:
        """Parameter view (by name or by the module's parameter object)."""
        return self._views[self._name_of(key)]

    def grad_view(self, key) -> Optional[np.ndarray]:
        """Gradient view aligned with :meth:`view` (``None`` when frozen)."""
        return self._grad_views[self._name_of(key)]

    def stacked_views(self, keys) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Row-stacked (param, grad) views over adjacent 2-D parameters.

        When the given parameters occupy consecutive ranges of the flat
        buffer and share their trailing dimension, their concatenation is
        itself a contiguous ``(sum(rows), dim)`` view — one gather/scatter
        can then serve all of them (the MADE embedding fast path).  Returns
        ``None`` when the layout does not line up, and always when frozen.
        """
        views = [self._views[self._name_of(k)] for k in keys]
        if self.frozen or not views or any(v.ndim != 2 for v in views):
            return None
        dim = views[0].shape[1]
        if any(v.shape[1] != dim for v in views):
            return None
        offset = self._offset_of(views[0])
        lo = offset
        for view in views:
            if self._offset_of(view) != offset:
                return None
            offset += view.size
        return (
            self.flat[lo:offset].reshape(-1, dim),
            self.grad[lo:offset].reshape(-1, dim),
        )

    def _offset_of(self, view: np.ndarray) -> int:
        """Element offset of a parameter view within the flat buffer."""
        byte_offset = view.__array_interface__["data"][0] - \
            self.flat.__array_interface__["data"][0]
        return byte_offset // self.flat.itemsize

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def snapshot(self) -> np.ndarray:
        """A copy of the current flat parameters (cheap best-epoch state)."""
        return self.flat.copy()

    def restore(self, state: np.ndarray) -> None:
        self.flat[...] = state

    def write_back(self) -> None:
        """Copy the buffer into the module's own (float64) parameters."""
        for name, param in zip(self.names, self._params):
            param.data[...] = self._views[name].astype(param.data.dtype)

    def freeze(self) -> "ParameterBuffer":
        """A frozen, gradient-free copy of the current parameters.

        The inference variant: every parameter is a standalone copy, and
        there is no flat array, no gradient and no reference to the module,
        so networks built over it pickle nothing but those arrays.
        """
        frozen = copy.copy(self)
        frozen.frozen = True
        frozen.flat = frozen.grad = None
        frozen._params = []
        frozen._views = {name: view.copy() for name, view in self._views.items()}
        frozen._grad_views = dict.fromkeys(self._grad_views)
        return frozen


class FusedResidualMADE:
    """Hand-derived forward+backward for :class:`ResidualMADE`, plus sampling.

    Computes the training loss ``sum_i weighted_mean_CE(logits_i, x[:, i])``:
    embedding gather → masked input layer → ReLU residual blocks → masked
    output layer → per-variable weighted softmax-NLL, with the backward pass
    accumulating into the buffer's gradient views.  MADE masks are applied
    at forward time (weights stay raw in the buffer) and to the weight
    gradients, so masked-out entries never train.

    Over a frozen buffer this is the inference runtime of a fitted MADE:
    the masks are applied to the weights once, and :meth:`conditional_probs`
    / :meth:`sample` run the shared forward over fixed row tiles.  Only the
    output columns of the variable being sampled are computed: each
    variable's head is split out of the output layer once and cached.
    """

    def __init__(self, made: ResidualMADE, buffer: ParameterBuffer):
        self.dtype = buffer.dtype
        self.frozen = buffer.frozen
        self.num_variables = made.num_variables
        self.context_dim = made.context_dim
        # Variable i's logits are columns logit_offsets[i]:logit_offsets[i+1];
        # the same offsets index the concatenated embedding vocabulary (code
        # c of variable i is row logit_offsets[i] + c), since both spaces
        # are K_i wide per variable.
        self.logit_offsets = made._logit_offsets.astype(np.int64)
        self.embeddings = [buffer.view(e.weight) for e in made.embeddings]
        self.d_embeddings = [buffer.grad_view(e.weight) for e in made.embeddings]
        self.embed_dim = made.embed_dim
        self.feature_dim = self.context_dim + self.num_variables * self.embed_dim
        self._head_kernel = None if self.frozen else kernels.MultiheadNLLKernel(
            self.logit_offsets, dtype=self.dtype
        )
        # Fast path: the buffer lays the per-variable embedding tables out
        # back to back, so one gather/scatter over the concatenated
        # vocabulary serves every variable at once.
        self._stacked = buffer.stacked_views([e.weight for e in made.embeddings])

        def dense(layer):
            weight = buffer.view(layer.weight)
            mask = np.ascontiguousarray(layer.mask, dtype=self.dtype)
            if self.frozen:
                # Frozen weights never train: mask them once, for good.
                weight *= mask
                mask = None
            return (
                weight,
                buffer.grad_view(layer.weight),
                None if layer.bias is None else buffer.view(layer.bias),
                None if layer.bias is None else buffer.grad_view(layer.bias),
                mask,
            )

        self.input_layer = dense(made.input_layer)
        self.residual_layers = [dense(layer) for layer in made.residual_layers]
        self.output_layer = dense(made.output_layer)
        self._heads: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}

    # -- forward helpers -------------------------------------------------
    def _features(self, x: np.ndarray, context: Optional[np.ndarray]) -> np.ndarray:
        x = np.asarray(x)
        features = np.empty((len(x), self.feature_dim), dtype=self.dtype)
        if self.context_dim:
            if context is None:
                raise ValueError("model was built with context_dim > 0; pass context")
            features[:, : self.context_dim] = context
        if self._stacked is not None:
            stacked, _grad = self._stacked
            flat_codes = (x + self.logit_offsets[None, :-1]).ravel()
            features[:, self.context_dim:] = stacked[flat_codes].reshape(
                len(x), -1
            )
            return features
        for i, emb in enumerate(self.embeddings):
            lo = self._embed_start(i)
            features[:, lo:lo + self.embed_dim] = emb[x[:, i]]
        return features

    def _embed_start(self, variable: int) -> int:
        """First feature column of ``variable``'s embedding."""
        return self.context_dim + variable * self.embed_dim

    def _masked_weights(self):
        """The effective (mask-applied) weights of every dense layer.

        Computed once per step and shared between the forward and backward
        passes — weights change every optimizer step, masks never do.  A
        frozen model's weights are stored masked and pass straight through.
        """
        def masked(layer):
            weight, mask = layer[0], layer[4]
            return weight if mask is None else weight * mask

        return (
            masked(self.input_layer),
            [masked(layer) for layer in self.residual_layers],
            masked(self.output_layer),
        )

    def _hidden_states(self, features: np.ndarray, wm_in, wm_res):
        """Forward through the residual stack.

        Returns ``hs`` — the input of every residual layer, then the final
        state — and each residual branch's post-ReLU output.  Backward
        reads the ReLU masks off those (an output is positive exactly when
        its pre-activation was).
        """
        h = kernels.dense(features, wm_in, self.input_layer[2], relu=True)
        hs = [h]
        branches = []
        for layer, wm in zip(self.residual_layers, wm_res):
            branch = kernels.dense(h, wm, layer[2], relu=True)
            h = h + branch
            hs.append(h)
            branches.append(branch)
        return hs, branches

    def forward_logits(
        self, x: np.ndarray, context: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All per-variable logits ``(batch, sum(K_i))`` — forward only."""
        features = self._features(x, context)
        wm_in, wm_res, wm_out = self._masked_weights()
        hs, _branches = self._hidden_states(features, wm_in, wm_res)
        return kernels.dense(hs[-1], wm_out, self.output_layer[2])

    def _weight_matrix(
        self,
        batch_size: int,
        variable_weights: Optional[Dict[int, np.ndarray]],
    ) -> np.ndarray:
        """Pre-normalized ``(batch, num_variables)`` per-head loss weights."""
        wmat = np.empty((batch_size, self.num_variables))
        for i in range(self.num_variables):
            weights = None
            if variable_weights is not None and i in variable_weights:
                weights = variable_weights[i]
            if weights is None:
                wmat[:, i] = 1.0 / max(batch_size, 1)
            else:
                weights = np.asarray(weights, dtype=np.float64)
                total = float(weights.sum())
                if total <= 0:
                    raise ValueError(
                        f"variable {i} training weights must have positive sum"
                    )
                wmat[:, i] = weights / total
        return wmat

    # -- training step ----------------------------------------------------
    def loss_and_grad(
        self,
        x: np.ndarray,
        context: Optional[np.ndarray],
        variable_weights: Optional[Dict[int, np.ndarray]] = None,
        weight_matrix: Optional[np.ndarray] = None,
    ) -> Tuple[float, Optional[np.ndarray]]:
        """Fused forward+backward of the weighted NLL over one mini-batch.

        Accumulates parameter gradients into the buffer and returns
        ``(loss, d_context)`` — the context gradient feeds the tree-encoder
        backward for SSAR models (``None`` for context-free models).
        Loss weights come either from ``variable_weights`` (per-variable
        batch vectors, normalized here) or a pre-normalized
        ``weight_matrix`` (the stepper's fast path).
        """
        x = np.asarray(x)
        features = self._features(x, context)
        wm_in, wm_res, wm_out = self._masked_weights()
        hs, branches = self._hidden_states(features, wm_in, wm_res)
        _w_out, dw_out, b_out, db_out, mask_out = self.output_layer
        logits = kernels.dense(hs[-1], wm_out, b_out)

        if weight_matrix is None:
            weight_matrix = self._weight_matrix(len(x), variable_weights)
        loss, d_logits = self._head_kernel(logits, x, weight_matrix)

        # Backward through the output layer.
        dw_out += (hs[-1].T @ d_logits) * mask_out
        if db_out is not None:
            db_out += d_logits.sum(axis=0)
        dh = d_logits @ wm_out.T

        # Residual blocks, in reverse:  h_{k+1} = h_k + relu(h_k @ Wm_k + b_k)
        for k in range(len(self.residual_layers) - 1, -1, -1):
            _w, dw, _b, db, mask = self.residual_layers[k]
            dz = dh * (branches[k] > 0)
            dw += (hs[k].T @ dz) * mask
            if db is not None:
                db += dz.sum(axis=0)
            dh = dh + dz @ wm_res[k].T

        # Input layer.
        _w_in, dw_in, _b_in, db_in, mask_in = self.input_layer
        dz0 = dh * (hs[0] > 0)
        dw_in += (features.T @ dz0) * mask_in
        if db_in is not None:
            db_in += dz0.sum(axis=0)
        d_features = dz0 @ wm_in.T

        # Split the feature gradient: context block + one dense embedding
        # scatter over the concatenated vocabulary space (bincount columns
        # instead of one np.add.at per variable).
        d_context = d_features[:, : self.context_dim] if self.context_dim else None
        flat_codes = (x + self.logit_offsets[None, :-1]).ravel()
        d_embedded = d_features[:, self.context_dim:].reshape(-1, self.embed_dim)
        d_stacked = kernels.dense_scatter(
            flat_codes, d_embedded, int(self.logit_offsets[-1])
        )
        if self._stacked is not None:
            _params, stacked_grad = self._stacked
            stacked_grad += d_stacked
        else:
            for i, d_emb in enumerate(self.d_embeddings):
                lo = int(self.logit_offsets[i])
                d_emb += d_stacked[lo:lo + d_emb.shape[0]]
        return loss, d_context

    # -- evaluation --------------------------------------------------------
    def per_example_nll(
        self,
        x: np.ndarray,
        context: Optional[np.ndarray] = None,
        variables: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Per-row NLL on the buffer's current parameters (no gradients)."""
        x = np.asarray(x)
        logits = self.forward_logits(x, context)
        selected = range(self.num_variables) if variables is None else variables
        total = np.zeros(len(x))
        for i in selected:
            start = int(self.logit_offsets[i])
            stop = int(self.logit_offsets[i + 1])
            total += kernels.nll_rows(logits[:, start:stop], x[:, i])
        return total

    # -- inference ---------------------------------------------------------
    def _head(self, variable: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One variable's output columns as a contiguous (weight, bias)."""
        head = self._heads.get(variable)
        if head is None:
            start = int(self.logit_offsets[variable])
            stop = int(self.logit_offsets[variable + 1])
            wm_out = self._masked_weights()[2]
            bias = self.output_layer[2]
            head = (
                np.ascontiguousarray(wm_out[:, start:stop]),
                None if bias is None else bias[start:stop].copy(),
            )
            if self.frozen:
                self._heads[variable] = head
        return head

    def _tile_logits(self, variable: int):
        """Tile-stack logits of one variable: hidden stack, then its head."""
        wm_in, wm_res, _wm_out = self._masked_weights()
        weight, bias = self._head(variable)

        def fn(tile: np.ndarray) -> np.ndarray:
            hs, _branches = self._hidden_states(tile, wm_in, wm_res)
            return kernels.dense(hs[-1], weight, bias)

        return fn

    def _refine(
        self, groups: np.ndarray, num_groups: int, codes: np.ndarray,
        variable: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``groups`` by the rows' ``codes`` of ``variable``."""
        vocab = int(self.logit_offsets[variable + 1] - self.logit_offsets[variable])
        return _dense_rank(groups * vocab + codes, num_groups * vocab)

    def _prefix_groups(
        self, x: np.ndarray, stop: int, context: Optional[np.ndarray],
        context_ids: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Group rows by (context, ``x[:, :stop]``): ``(groups, rows)``.

        ``groups[i]`` is row i's group, ``rows[g]`` one row of group g.
        Rows with equal ``context_ids`` must have bitwise-equal contexts;
        a context without ids puts every row in its own group.
        """
        n = len(x)
        if context is None:
            groups = np.zeros(n, dtype=np.int64)
            rows = np.zeros(min(n, 1), dtype=np.int64)
        elif context_ids is None or n == 0:
            return np.arange(n), np.arange(n)
        else:
            ids = np.asarray(context_ids, dtype=np.int64)
            low = ids.min()
            groups, rows = _dense_rank(ids - low, int(ids.max() - low) + 1)
        for column in range(stop):
            if len(rows) == n:
                break
            groups, rows = self._refine(groups, len(rows), x[:, column], column)
        return groups, rows

    def _distinct_features(
        self, x: np.ndarray, stop: int, context: Optional[np.ndarray],
        context_ids: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(groups, rows, features)``: the groups of :meth:`_prefix_groups`
        and one feature row per group, built from its representative."""
        groups, rows = self._prefix_groups(x, stop, context, context_ids)
        features = self._features(
            x[rows], None if context is None else context[rows]
        )
        return groups, rows, features

    def conditional_probs(
        self, x: np.ndarray, variable: int, context: Optional[np.ndarray] = None,
        context_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``P(x_variable | x_<variable>, context)`` as ``(batch, K)``.

        Forwards each distinct (context, prefix) row once, like
        :meth:`sample`, and gathers its probabilities for every row.
        """
        x = np.asarray(x)
        groups, rows, features = self._distinct_features(
            x, variable, context, context_ids
        )
        probs = kernels.softmax(
            kernels.tile_apply(features, self._tile_logits(variable))
        )
        _record_distinct(len(x), len(rows))
        return probs[groups]

    def sample(
        self,
        evidence: np.ndarray,
        start_variable: int,
        rng: Optional[np.random.Generator] = None,
        context: Optional[np.ndarray] = None,
        temperature: float = 1.0,
        stop_variable: Optional[int] = None,
        draws: Optional[np.ndarray] = None,
        context_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Iterative conditional sampling, one variable per forward.

        Variables ``start_variable .. stop_variable - 1`` of ``evidence``
        are overwritten with samples; earlier columns are the evidence.
        Randomness comes either from ``rng`` (one categorical draw per row
        per variable) or from precomputed ``draws`` of shape
        ``(batch, stop - start)`` — the chunk-invariant path used by the
        incompleteness join.

        MADE's masks make variable v's logits a function of the context
        and the codes before v alone, so rows that share both share them:
        each step forwards one row per distinct (context, prefix) group —
        features, hidden stack, head, softmax and CDF — and every row
        draws from its group's CDF with its own uniform.  Drawing v then
        splits the groups by the codes drawn.  ``context_ids`` tells
        contexts apart cheaply (the join passes each row's root row:
        SSAR contexts are a function of it).  A row's bits equal its solo
        run's: tiles make a forward row-local, and the masked weights are
        exact zeros, so a representative's later columns never count.
        """
        profiler = _profile.ACTIVE
        started = time.perf_counter_ns() if profiler is not None else 0
        stop = self.num_variables if stop_variable is None else stop_variable
        if not 0 <= start_variable <= stop <= self.num_variables:
            raise ValueError("sampling range out of bounds")
        x = np.array(evidence, dtype=np.int64, copy=True)
        n = len(x)
        if n == 0 or start_variable == stop:
            return x
        if draws is None and rng is None:
            raise ValueError("sample needs either rng or draws")
        groups, rows, features = self._distinct_features(
            x, start_variable, context, context_ids
        )
        forwarded = 0
        for step, variable in enumerate(range(start_variable, stop)):
            forwarded += len(rows)
            logits = kernels.tile_apply(features, self._tile_logits(variable))
            probs = kernels.softmax(logits)
            if temperature != 1.0:
                log_probs = np.log(np.maximum(probs, 1e-300)) / temperature
                probs = kernels.softmax(log_probs)
            u = draws[:, step] if draws is not None else rng.random(n)
            x[:, variable] = _rng.sample_categorical(probs, u, groups)
            if variable + 1 == stop:
                break
            if len(rows) < n:  # else every row is its own group already
                previous = groups
                groups, rows = self._refine(
                    groups, len(rows), x[:, variable], variable
                )
                features = features[previous[rows]]
            lo = self._embed_start(variable)
            emb = self.embeddings[variable]
            features[:, lo:lo + self.embed_dim] = emb[x[rows, variable]]
        if profiler is not None:
            profiler.record(
                "made.sample", time.perf_counter_ns() - started, rows=n
            )
        _record_distinct(n * (stop - start_variable), forwarded)
        return x


#: Presence-table cells per row :func:`_dense_rank` may allocate; beyond
#: that it sorts, so no table grows with a vocabulary alone.
_PRESENCE_CELLS_PER_ROW = 4


def _dense_rank(keys: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ranks of the non-negative ``keys`` (all below ``span``).

    Returns ``(ranks, rows)``: ``ranks[i]`` is the rank of ``keys[i]``
    among the distinct keys in key order, and ``rows[r]`` one index ``i``
    with rank ``r``.  A boolean presence table ranks in linear time while
    ``span`` stays within :data:`_PRESENCE_CELLS_PER_ROW` cells per key;
    wider spans are ranked by sorting.
    """
    n = len(keys)
    if span <= _PRESENCE_CELLS_PER_ROW * n:
        present = np.zeros(span, dtype=bool)
        present[keys] = True
        table = np.cumsum(present) - 1
        ranks = table[keys]
        count = int(table[-1]) + 1
    else:
        distinct, ranks = np.unique(keys, return_inverse=True)
        count = len(distinct)
    rows = np.empty(count, dtype=np.int64)
    rows[ranks] = np.arange(n)
    return ranks, rows


def _record_distinct(row_steps: int, forwarded: int) -> None:
    """Kernel-profile counts of MADE sampling forwards: ``made.row_steps``
    counts the rows asked for (per sampled variable), ``made.distinct``
    the distinct rows actually forwarded."""
    profiler = _profile.ACTIVE
    if profiler is not None:
        profiler.record("made.row_steps", 0, rows=row_steps)
        profiler.record("made.distinct", 0, rows=forwarded)


class _FusedNode:
    """Fused phi/rho deep-sets node mirroring :class:`_NodeEncoder`."""

    def __init__(self, encoder: _NodeEncoder, buffer: ParameterBuffer):
        self.name = encoder.spec.name
        self.dtype = buffer.dtype
        self.frozen = buffer.frozen
        self.num_columns = len(encoder.spec.vocab_sizes)
        self.embeddings = [buffer.view(e.weight) for e in encoder.embeddings]
        self.d_embeddings = [buffer.grad_view(e.weight) for e in encoder.embeddings]
        self.children = [_FusedNode(c, buffer) for c in encoder.child_encoders]
        self.w_phi = buffer.view(encoder.phi.weight)
        self.dw_phi = buffer.grad_view(encoder.phi.weight)
        self.b_phi = None if encoder.phi.bias is None else buffer.view(encoder.phi.bias)
        self.db_phi = (
            None if encoder.phi.bias is None else buffer.grad_view(encoder.phi.bias)
        )
        self.w_rho = buffer.view(encoder.rho.weight)
        self.dw_rho = buffer.grad_view(encoder.rho.weight)
        self.b_rho = None if encoder.rho.bias is None else buffer.view(encoder.rho.bias)
        self.db_rho = (
            None if encoder.rho.bias is None else buffer.grad_view(encoder.rho.bias)
        )
        self.out_dim = encoder.rho.out_features
        self._cache = None

    def _empty_batch(self) -> TreeNodeBatch:
        return TreeNodeBatch(
            values=np.zeros((0, self.num_columns), dtype=np.int64),
            parent_ids=np.zeros(0, dtype=np.int64),
        )

    def _phi(self, x: np.ndarray) -> np.ndarray:
        return kernels.dense(x, self.w_phi, self.b_phi, relu=True)

    def _rho(self, x: np.ndarray) -> np.ndarray:
        return kernels.dense(x, self.w_rho, self.b_rho, relu=True)

    def forward(self, batch: Optional[TreeNodeBatch], num_parents: int) -> np.ndarray:
        if batch is None:
            batch = self._empty_batch()
        parts: List[np.ndarray] = [
            emb[batch.values[:, i]] for i, emb in enumerate(self.embeddings)
        ]
        for child in self.children:
            parts.append(child.forward(batch.children.get(child.name), batch.num_rows))
        if parts:
            features = np.concatenate(parts, axis=-1).astype(self.dtype, copy=False)
        else:
            features = np.zeros((batch.num_rows, 1), dtype=self.dtype)

        # Inference runs each layer over fixed row tiles and keeps nothing;
        # training runs the whole batch and keeps what backward needs.
        run = kernels.tile_apply if self.frozen else (lambda x, layer: layer(x))
        z_phi = run(features, self._phi)
        pooled = kernels.segment_sum_forward(z_phi, batch.parent_ids, num_parents)
        z_rho = run(pooled, self._rho)
        if not self.frozen:
            self._cache = (batch, features, z_phi, pooled, z_rho)
        return z_rho

    def backward(self, d_out: np.ndarray) -> None:
        batch, features, z_phi, pooled, z_rho = self._cache
        dz_rho = d_out * (z_rho > 0)
        self.dw_rho += pooled.T @ dz_rho
        if self.db_rho is not None:
            self.db_rho += dz_rho.sum(axis=0)
        d_pooled = dz_rho @ self.w_rho.T
        d_encoded = kernels.segment_sum_backward(d_pooled, batch.parent_ids)
        dz_phi = d_encoded * (z_phi > 0)
        self.dw_phi += features.T @ dz_phi
        if self.db_phi is not None:
            self.db_phi += dz_phi.sum(axis=0)
        d_features = dz_phi @ self.w_phi.T
        col = 0
        for i, emb in enumerate(self.embeddings):
            width = emb.shape[1]
            kernels.embedding_backward(
                self.d_embeddings[i], batch.values[:, i],
                d_features[:, col:col + width],
            )
            col += width
        for child in self.children:
            child.backward(d_features[:, col:col + child.out_dim])
            col += child.out_dim


class FusedTreeEncoder:
    """Fused forward+backward for :class:`EvidenceTreeEncoder`.

    Over a live buffer :meth:`forward` is the training forward: whole
    batches, keeping what :meth:`backward` needs.  Over a frozen buffer it
    is the inference forward: every dense layer runs on fixed row tiles,
    so a row's context does not depend on the batch around it, and nothing
    is kept.
    """

    def __init__(self, encoder: EvidenceTreeEncoder, buffer: ParameterBuffer):
        self.nodes = [_FusedNode(e, buffer) for e in encoder.encoders]
        self.context_dim = encoder.context_dim

    def forward(
        self, batches: Dict[str, TreeNodeBatch], batch_size: int
    ) -> np.ndarray:
        """Contexts ``(batch_size, context_dim)`` as a plain array."""
        profiler = _profile.ACTIVE
        started = time.perf_counter_ns() if profiler is not None else 0
        parts = [
            node.forward(batches.get(node.name), batch_size) for node in self.nodes
        ]
        out = np.concatenate(parts, axis=-1)
        if profiler is not None:
            profiler.record(
                "tree.encode", time.perf_counter_ns() - started,
                rows=batch_size,
            )
        return out

    def backward(self, d_context: np.ndarray) -> None:
        col = 0
        for node in self.nodes:
            node.backward(d_context[:, col:col + node.out_dim])
            col += node.out_dim


class FusedTrainStepper(TrainStepper):
    """The training stepper of the completion models.

    Owns a :class:`ParameterBuffer` over the whole model (MADE plus, for
    SSAR, the tree encoder), the fused kernels, and an array-based Adam on
    the flat buffer.  The stepper lives only for the duration of one
    ``fit`` and writes its final parameters back into the module's float64
    parameters; the model's inference snapshot is rebuilt from those.
    """

    def __init__(
        self,
        model,
        matrix: np.ndarray,
        variable_weights: Dict[int, np.ndarray],
        config: TrainConfig,
        dtype=kernels.DTYPE,
    ):
        self.model = model
        self.matrix = matrix
        self.variable_weights = variable_weights
        self.grad_clip = config.grad_clip
        self.buffer = ParameterBuffer(model, dtype=dtype)
        self.made = FusedResidualMADE(model.made, self.buffer)
        tree = getattr(model, "tree_encoder", None)
        self.tree = None if tree is None else FusedTreeEncoder(tree, self.buffer)
        self.optimizer = AdamArrays(
            [self.buffer.flat],
            lr=config.lr, weight_decay=config.weight_decay,
        )
        # Full (rows, num_variables) weight table; each step slices its
        # batch and normalizes per column in two vectorized ops instead of
        # a per-variable python loop.
        self._weight_table = np.ones(
            (len(matrix), self.made.num_variables), dtype=np.float64
        )
        for variable, weights in variable_weights.items():
            self._weight_table[:, variable] = weights

    def _context(self, indices: np.ndarray) -> Optional[np.ndarray]:
        if self.tree is None:
            return None
        batches, batch_size = self.model._context_batches(indices)
        return self.tree.forward(batches, batch_size)

    def step(self, indices: np.ndarray) -> float:
        self.buffer.zero_grad()
        context = self._context(indices)
        weight_matrix = self._weight_table[indices]
        weight_matrix /= weight_matrix.sum(axis=0)
        loss, d_context = self.made.loss_and_grad(
            self.matrix[indices], context, weight_matrix=weight_matrix
        )
        if self.tree is not None:
            self.tree.backward(d_context)
        clip_grad_norm_arrays([self.buffer.grad], self.grad_clip)
        self.optimizer.step([self.buffer.flat], [self.buffer.grad])
        return loss

    def evaluate(self, indices: np.ndarray) -> float:
        context = self._context(indices)
        return float(
            self.made.per_example_nll(self.matrix[indices], context).mean()
        )

    def snapshot(self) -> np.ndarray:
        return self.buffer.snapshot()

    def restore(self, state: np.ndarray) -> None:
        self.buffer.restore(state)

    def finalize(self) -> None:
        self.buffer.write_back()
