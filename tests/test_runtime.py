"""Tests for the inference runtime: float32 forwards, join cache, chunking.

Covers the contract of :mod:`repro.runtime`:

* float32 inference (the fused networks over a frozen parameter buffer)
  matches the float64 test oracle within float32 tolerance,
* inference snapshots pickle to float32 arrays only and follow the model's
  weights,
* the incompleteness join builds no autograd graphs, and nothing under
  ``src/`` holds a second network implementation,
* chunked join execution reproduces the unchunked run exactly,
* the completion cache's memoized joins: LRU eviction, invalidation on
  re-fit, and statistics.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    ARCompletionModel,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    ReStore,
    ReStoreConfig,
    SSARCompletionModel,
    build_encoders,
)
from repro.core.forest import EvidenceForest
from repro.datasets import (
    HousingConfig,
    SyntheticConfig,
    generate_housing,
    generate_synthetic,
)
from repro.incomplete import RemovalSpec, make_incomplete
from repro.nn import (
    EvidenceTreeEncoder,
    Module,
    ResidualMADE,
    TrainConfig,
    TreeNodeBatch,
    TreeNodeSpec,
)
from repro.obs import profile_kernels
from repro.relational import CompletionPath, fan_out_relations
from repro.runtime import (
    FusedResidualMADE,
    FusedTreeEncoder,
    ParameterBuffer,
    PartialJoinCache,
    kernels,
)
from repro.runtime import rng as rt_rng

from oracle import OracleMADE, OracleTreeEncoder, Tensor
from oracle import tensor as tensor_mod

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)


@pytest.fixture(scope="module")
def fitted_setup():
    db = generate_synthetic(SyntheticConfig(num_parents=250, predictability=0.9,
                                            seed=0))
    dataset = make_incomplete(db, [RemovalSpec("tb", "b", 0.5, 0.4)],
                              tf_keep_rate=0.5, seed=1)
    encoders = build_encoders(dataset.incomplete, num_bins=8)
    layout = PathLayout(dataset.incomplete, dataset.annotation,
                        CompletionPath(("ta", "tb")), encoders)
    model = ARCompletionModel(layout, ModelConfig(hidden=(32, 32), train=FAST))
    model.fit()
    return db, dataset, encoders, layout, model


@pytest.fixture(scope="module")
def fitted_ssar(fitted_setup):
    db, dataset, encoders, layout, _ = fitted_setup
    walks = fan_out_relations(dataset.incomplete, dataset.annotation,
                              CompletionPath(("ta", "tb")))
    forest = EvidenceForest(dataset.incomplete, "ta", walks, encoders,
                            self_evidence_table="tb")
    model = SSARCompletionModel(layout, forest, ModelConfig(hidden=(32, 32),
                                                            train=FAST))
    model.fit()
    return model


# ----------------------------------------------------------------------
# Float32 inference vs the float64 oracle
# ----------------------------------------------------------------------

def _sampler(made):
    """The float32 inference runtime of a (possibly untrained) MADE."""
    return FusedResidualMADE(made, ParameterBuffer(made).freeze())


class TestInferenceOracle:
    """Oracle checks that need no training: they run on every CI leg."""

    def test_frozen_sampler_on_made(self):
        rng = np.random.default_rng(0)
        made = ResidualMADE([4, 5, 3], embed_dim=4, hidden=(16, 16), rng=rng)
        sampler = _sampler(made)
        x = np.zeros((7, 3), dtype=np.int64)
        oracle = OracleMADE(made)
        np.testing.assert_allclose(
            sampler.forward_logits(x), oracle.forward(x).numpy(),
            atol=1e-4, rtol=1e-3,
        )
        for variable in range(3):
            np.testing.assert_allclose(
                sampler.conditional_probs(x, variable),
                oracle.conditional_probs(x, variable), atol=1e-4, rtol=1e-3,
            )

    def test_sample_empty_range_needs_no_randomness(self):
        """Zero-column slots (link tables) sample nothing — no rng required."""
        rng = np.random.default_rng(0)
        made = ResidualMADE([4, 5], embed_dim=4, hidden=(8, 8), rng=rng)
        prefix = np.zeros((3, 2), dtype=np.int64)
        out = _sampler(made).sample(prefix, 1, stop_variable=1)
        np.testing.assert_array_equal(out, prefix)

    def test_sample_matches_oracle_with_shared_draws(self):
        """With shared uniforms, float32 and float64 walk the same CDFs."""
        rng = np.random.default_rng(3)
        made = ResidualMADE([4, 6, 3, 5], embed_dim=4, hidden=(16, 16), rng=rng)
        n = 300
        prefix = np.zeros((n, 4), dtype=np.int64)
        prefix[:, 0] = rng.integers(0, 4, size=n)
        draws = rng.random((n, 3))
        fast = _sampler(made).sample(prefix, 1, draws=draws)
        exact = OracleMADE(made).sample(prefix, 1, rng=None, draws=draws)
        assert (fast == exact).all(axis=1).mean() >= 0.99

    def test_freeze_copies_parameters_without_gradients(self):
        rng = np.random.default_rng(1)
        made = ResidualMADE([4, 5, 3], embed_dim=4, hidden=(8, 8), rng=rng)
        live = ParameterBuffer(made)
        frozen = live.freeze()
        assert frozen.frozen and not live.frozen
        assert frozen.flat is None and frozen.grad is None
        assert frozen.stacked_views([e.weight for e in made.embeddings]) is None
        for name in live.names:
            assert frozen.grad_view(name) is None
            assert frozen.view(name).dtype == np.float32
            np.testing.assert_array_equal(frozen.view(name), live.view(name))
            assert not np.shares_memory(frozen.view(name), live.flat)

        # The sampler masks its frozen weights in place, once; neither the
        # live buffer nor the float64 module may see that.
        live_before = live.flat.copy()
        module_before = {n: p.data.copy() for n, p in made.named_parameters()}
        FusedResidualMADE(made, frozen)
        np.testing.assert_array_equal(live.flat, live_before)
        for name, param in made.named_parameters():
            np.testing.assert_array_equal(param.data, module_before[name])
        layer = made.input_layer
        np.testing.assert_array_equal(
            frozen.view(layer.weight),
            (layer.weight.data * layer.mask).astype(np.float32),
        )

    def test_conditional_probs_are_batch_invariant(self):
        """A row's float32 conditionals do not depend on its batch."""
        rng = np.random.default_rng(2)
        made = ResidualMADE([4, 6, 3], embed_dim=4, hidden=(64, 64), rng=rng,
                            context_dim=5)
        sampler = _sampler(made)
        n = 300  # several inference tiles, cut at non-multiples below
        x = np.stack([rng.integers(0, k, size=n) for k in (4, 6, 3)], axis=1)
        context = rng.normal(size=(n, 5)).astype(np.float32)
        for variable in range(3):
            full = sampler.conditional_probs(x, variable, context=context)
            for size in (1, 37):
                pieces = [
                    sampler.conditional_probs(x[i:i + size], variable,
                                              context=context[i:i + size])
                    for i in range(0, n, size)
                ]
                np.testing.assert_array_equal(np.concatenate(pieces), full)

    def test_stop_variable_samples_only_its_range(self):
        """``stop_variable`` ends the walk early: later columns keep their
        evidence, and the sampled ones equal a full walk's on the same
        draws (an autoregressive prefix never looks ahead)."""
        rng = np.random.default_rng(4)
        made = ResidualMADE([4, 6, 3, 5], embed_dim=4, hidden=(16, 16), rng=rng)
        sampler = _sampler(made)
        n = 200
        prefix = np.stack([rng.integers(0, k, size=n) for k in (4, 6, 3, 5)],
                          axis=1)
        draws = rng.random((n, 3))
        full = sampler.sample(prefix, 1, draws=draws)
        part = sampler.sample(prefix, 1, stop_variable=3, draws=draws[:, :2])
        np.testing.assert_array_equal(part[:, [0, 3]], prefix[:, [0, 3]])
        np.testing.assert_array_equal(part[:, 1:3], full[:, 1:3])
        assert (full[:, 3] != prefix[:, 3]).any()  # the full walk did move it

    def test_temperature_matches_oracle(self):
        rng = np.random.default_rng(5)
        made = ResidualMADE([4, 6, 3, 5], embed_dim=4, hidden=(16, 16), rng=rng)
        sampler = _sampler(made)
        n = 300
        prefix = np.zeros((n, 4), dtype=np.int64)
        prefix[:, 0] = rng.integers(0, 4, size=n)
        draws = rng.random((n, 3))
        fast = sampler.sample(prefix, 1, draws=draws, temperature=0.5)
        exact = OracleMADE(made).sample(prefix, 1, rng=None, draws=draws,
                                        temperature=0.5)
        assert (fast == exact).all(axis=1).mean() >= 0.99
        # Near zero temperature a draw takes the mode of its conditional.
        cold = sampler.sample(prefix, 1, stop_variable=2, draws=draws[:, :1],
                              temperature=1e-6)
        np.testing.assert_array_equal(
            cold[:, 1], sampler.conditional_probs(prefix, 1).argmax(axis=1)
        )

    def test_sample_rejects_bad_arguments(self):
        rng = np.random.default_rng(6)
        made = ResidualMADE([4, 5, 3], embed_dim=4, hidden=(8, 8), rng=rng,
                            context_dim=2)
        sampler = _sampler(made)
        prefix = np.zeros((5, 3), dtype=np.int64)
        context = np.zeros((5, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="rng or draws"):
            sampler.sample(prefix, 1, context=context)
        with pytest.raises(ValueError, match="out of bounds"):
            sampler.sample(prefix, 2, rng=rng, context=context, stop_variable=1)
        with pytest.raises(ValueError, match="out of bounds"):
            sampler.sample(prefix, 0, rng=rng, context=context, stop_variable=4)
        with pytest.raises(ValueError, match="pass context"):
            sampler.conditional_probs(prefix, 1)

    def test_tree_encoder_matches_oracle(self):
        rng = np.random.default_rng(7)
        tree = _tree_encoder(rng)
        for _name, param in tree.named_parameters():  # biases start at zero
            param.data[...] = rng.normal(scale=0.3, size=param.data.shape)
        batches = _tree_batches(rng, tree, num_roots=60)
        fast = FusedTreeEncoder(tree, ParameterBuffer(tree).freeze())
        np.testing.assert_allclose(
            fast.forward(batches, 60), OracleTreeEncoder(tree)(batches, 60).numpy(),
            atol=1e-4, rtol=1e-3,
        )

    def test_tree_contexts_are_batch_invariant(self):
        """A root's float32 context does not depend on the other roots in
        its batch — the property the chunked SSAR join relies on."""
        rng = np.random.default_rng(8)
        tree = _tree_encoder(rng)
        fast = FusedTreeEncoder(tree, ParameterBuffer(tree).freeze())
        num_roots = 300
        batches = _tree_batches(rng, tree, num_roots)
        full = fast.forward(batches, num_roots)
        for keep in (1, 37, 129, 256):
            prefix = {
                name: _first_parents(batch, keep)
                for name, batch in batches.items()
            }
            np.testing.assert_array_equal(fast.forward(prefix, keep),
                                          full[:keep])


def _tree_encoder(rng) -> EvidenceTreeEncoder:
    specs = [
        TreeNodeSpec("child", [5, 3], children=[TreeNodeSpec("grand", [4])]),
        TreeNodeSpec("other", [6]),
    ]
    return EvidenceTreeEncoder(specs, embed_dim=16, node_dim=64, rng=rng)


def _tree_batches(rng, tree, num_roots):
    """Random fan-out trees, more rows per level than one inference tile."""
    def node(spec, num_parents):
        rows = 3 * kernels.TILE
        batch = TreeNodeBatch(
            values=np.stack(
                [rng.integers(0, k, size=rows) for k in spec.vocab_sizes], axis=1
            ),
            parent_ids=np.sort(rng.integers(0, num_parents, size=rows)),
        )
        for child in spec.children:
            batch.children[child.name] = node(child, rows)
        return batch

    return {spec.name: node(spec, num_roots) for spec in tree.specs}


def _first_parents(batch: TreeNodeBatch, keep: int) -> TreeNodeBatch:
    """The sub-tree hanging off the first ``keep`` parents (ids are sorted)."""
    rows = int(np.searchsorted(batch.parent_ids, keep))
    return TreeNodeBatch(
        values=batch.values[:rows],
        parent_ids=batch.parent_ids[:rows],
        children={
            name: _first_parents(child, rows)
            for name, child in batch.children.items()
        },
    )


def _tile_apply_reference(x, fn):
    """The per-tile loop :func:`kernels.tile_apply` replaced: ``fn`` on one
    ``(TILE, width)`` tile at a time, the last one zero-padded."""
    tile = kernels.TILE
    if len(x) == 0:
        probe = fn(np.zeros((tile, x.shape[1]), dtype=x.dtype))
        return np.zeros((0, probe.shape[1]), dtype=probe.dtype)
    pieces = []
    for start in range(0, len(x), tile):
        block = x[start:start + tile]
        if len(block) < tile:
            padded = np.zeros((tile, x.shape[1]), dtype=x.dtype)
            padded[:len(block)] = block
            pieces.append(fn(padded)[:len(block)])
        else:
            pieces.append(fn(block))
    return np.concatenate(pieces, axis=0)


def _assert_bitwise(a, b, what=""):
    assert a.shape == b.shape and a.dtype == b.dtype, what
    assert a.tobytes() == b.tobytes(), what


class TestTileApply:
    """Stacked tiles against the per-tile loop, bitwise, on the real
    networks: one fixed-shape GEMM per tile however many tiles a call
    stacks, so neither the stack size nor a row's tile position changes a
    bit."""

    TILE = kernels.TILE
    SIZES = (0, 1, TILE - 1, TILE, TILE + 1, 16 * TILE, 40 * TILE + 3)

    @staticmethod
    def _layer_fns(rng):
        """(name, fn, input width) of every dense stack inference tiles."""
        made = ResidualMADE([4, 6, 3], embed_dim=4, hidden=(64, 64), rng=rng,
                            context_dim=5)
        sampler = _sampler(made)
        fns = [(f"made.v{v}", sampler._tile_logits(v), sampler.feature_dim)
               for v in range(3)]
        tree = _tree_encoder(rng)
        for _name, param in tree.named_parameters():
            param.data[...] = rng.normal(scale=0.3, size=param.data.shape)
        nodes = list(FusedTreeEncoder(tree, ParameterBuffer(tree).freeze()).nodes)
        nodes += [child for node in nodes for child in node.children]
        for node in nodes:
            fns.append((f"{node.name}.phi", node._phi, node.w_phi.shape[0]))
            fns.append((f"{node.name}.rho", node._rho, node.w_rho.shape[0]))
        return fns

    def test_matches_per_tile_loop(self):
        rng = np.random.default_rng(21)
        for name, fn, width in self._layer_fns(rng):
            base = rng.normal(size=(max(self.SIZES) + 2 * self.TILE + 5, width))
            base = base.astype(np.float32)
            for n in self.SIZES:
                # Shifted offsets move every row to another tile position.
                for offset in (0, 1, self.TILE + 5):
                    x = base[offset:offset + n]
                    _assert_bitwise(kernels.tile_apply(x, fn),
                                    _tile_apply_reference(x, fn),
                                    f"{name} n={n} offset={offset}")
            full = kernels.tile_apply(base, fn)
            for offset in (1, self.TILE + 5, 17 * self.TILE):
                n = 40 * self.TILE + 3
                _assert_bitwise(kernels.tile_apply(base[offset:offset + n], fn),
                                full[offset:offset + n], f"{name} offset={offset}")

    def test_dense_counts_rows_not_stacks(self):
        rng = np.random.default_rng(22)
        made = ResidualMADE([4, 6, 3], embed_dim=4, hidden=(64, 64), rng=rng)
        sampler = _sampler(made)
        n = 40 * self.TILE + 3
        x = rng.normal(size=(n, sampler.feature_dim)).astype(np.float32)
        with profile_kernels() as prof:
            kernels.tile_apply(x, sampler._tile_logits(2))
        dense = prof.snapshot()["dense"]
        # Input, residual and head layers over 41 padded tiles, stacked 16
        # at a time: 16 + 16 + 8 full tiles, then the partial one.
        layers = 2 + len(sampler.residual_layers)
        assert dense["rows"] == layers * 41 * self.TILE
        assert dense["calls"] == layers * 4

    def test_float64_partial_tile_is_not_rounded(self):
        """A float64 network computes its last, partial tile in float64: a
        row's conditionals are the same in a partial and in a full tile."""
        rng = np.random.default_rng(23)
        made = ResidualMADE([4, 6, 3], embed_dim=4, hidden=(32, 32), rng=rng)
        sampler = FusedResidualMADE(
            made, ParameterBuffer(made, dtype=np.float64).freeze()
        )
        n = 2 * self.TILE
        x = np.stack([rng.integers(0, k, size=n) for k in (4, 6, 3)], axis=1)
        for variable in range(3):
            full = sampler.conditional_probs(x, variable)
            assert full.dtype == np.float64
            partial = sampler.conditional_probs(x[:self.TILE + 5], variable)
            _assert_bitwise(partial, full[:self.TILE + 5])


# ----------------------------------------------------------------------
# Distinct-row sampling: one forward per (context, prefix) group
# ----------------------------------------------------------------------

VOCABS = (4, 6, 3, 5, 7)
CONTEXT_DIM = 3


def _siblings(rng, vocabs, start, parents=40, most=8):
    """``np.repeat`` siblings of random parent prefixes, with random codes
    in every column from ``start`` on (a representative's own later
    columns must not reach its group's draws)."""
    prefix = np.stack([rng.integers(0, k, size=parents) for k in vocabs], axis=1)
    x = np.repeat(prefix, rng.integers(1, most + 1, size=parents), axis=0)
    later = np.stack([rng.integers(0, k, size=len(x)) for k in vocabs], axis=1)
    x[:, start:] = later[:, start:]
    return x


def _contexts(rng, x, num_roots=7):
    """Context ids and their (float32) contexts, a function of the id."""
    ids = rng.integers(0, num_roots, size=len(x)) * 1000 + 12
    table = rng.normal(size=(ids.max() + 1, CONTEXT_DIM)).astype(np.float32)
    return ids, table[ids]


def _solo_samples(sampler, x, start, draws, context=None, context_ids=None,
                  **kwargs):
    """Each row sampled alone: the bitwise reference of a batch, since
    tiles make a row's bits independent of its batch."""
    rows = [
        sampler.sample(
            x[i:i + 1], start, draws=draws[i:i + 1],
            context=None if context is None else context[i:i + 1],
            context_ids=None if context_ids is None else context_ids[i:i + 1],
            **kwargs,
        )[0]
        for i in range(len(x))
    ]
    return np.stack(rows)


def _solo_probs(sampler, x, variable, context=None):
    return np.concatenate([
        sampler.conditional_probs(
            x[i:i + 1], variable,
            context=None if context is None else context[i:i + 1],
        )
        for i in range(len(x))
    ])


class TestDistinctRowSampling:
    """``sample`` and ``conditional_probs`` forward each distinct
    (context, prefix) row once; every row keeps its solo bits."""

    @staticmethod
    def _made(context_dim=0, vocabs=VOCABS, seed=11):
        rng = np.random.default_rng(seed)
        made = ResidualMADE(list(vocabs), embed_dim=4, hidden=(32, 32),
                            rng=rng, context_dim=context_dim)
        for _name, param in made.named_parameters():  # biases start at zero
            param.data[...] += rng.normal(scale=0.3, size=param.data.shape)
        return _sampler(made)

    @pytest.mark.parametrize("start", [0, 1, 3])
    def test_ar_siblings_match_solo_rows(self, start):
        rng = np.random.default_rng(start)
        sampler = self._made()
        x = _siblings(rng, VOCABS, start)
        draws = rng.random((len(x), len(VOCABS) - start))
        batch = sampler.sample(x, start, draws=draws)
        _assert_bitwise(batch, _solo_samples(sampler, x, start, draws))
        assert (batch[:, :start] == x[:, :start]).all()

    def test_ssar_contexts_with_and_without_ids(self):
        rng = np.random.default_rng(12)
        sampler = self._made(context_dim=CONTEXT_DIM)
        x = _siblings(rng, VOCABS, 2)
        ids, context = _contexts(rng, x)
        draws = rng.random((len(x), 3))
        solo = _solo_samples(sampler, x, 2, draws, context=context)
        with_ids = sampler.sample(x, 2, draws=draws, context=context,
                                  context_ids=ids)
        without = sampler.sample(x, 2, draws=draws, context=context)
        _assert_bitwise(with_ids, solo)
        _assert_bitwise(without, solo)

    def test_temperature_matches_solo_rows(self):
        rng = np.random.default_rng(13)
        sampler = self._made(context_dim=CONTEXT_DIM)
        x = _siblings(rng, VOCABS, 1)
        ids, context = _contexts(rng, x)
        draws = rng.random((len(x), 4))
        batch = sampler.sample(x, 1, draws=draws, context=context,
                               context_ids=ids, temperature=0.5)
        _assert_bitwise(batch, _solo_samples(sampler, x, 1, draws,
                                             context=context, temperature=0.5))

    def test_rng_path_takes_one_uniform_per_row_per_step(self):
        rng = np.random.default_rng(14)
        sampler = self._made()
        x = _siblings(rng, VOCABS, 1)
        drawn = sampler.sample(x, 1, rng=np.random.default_rng(99))
        uniforms = np.random.default_rng(99).random((4, len(x))).T
        _assert_bitwise(drawn, sampler.sample(x, 1, draws=uniforms))

    def test_sort_fallback_for_wide_vocabularies(self, monkeypatch):
        """A vocabulary too large for the presence table is ranked by a
        sort, with the same groups and the same bits."""
        import repro.runtime.training as training

        vocabs = (3, 2000, 4, 5)
        rng = np.random.default_rng(15)
        sampler = self._made(vocabs=vocabs)
        x = _siblings(rng, vocabs, 2, parents=30)
        assert 2000 > training._PRESENCE_CELLS_PER_ROW * len(x)
        draws = rng.random((len(x), 2))
        batch = sampler.sample(x, 2, draws=draws)
        _assert_bitwise(batch, _solo_samples(sampler, x, 2, draws))
        monkeypatch.setattr(training, "_PRESENCE_CELLS_PER_ROW", 0)
        _assert_bitwise(sampler.sample(x, 2, draws=draws), batch)

    def test_presence_table_and_sort_rank_alike(self, monkeypatch):
        import repro.runtime.training as training

        keys = np.random.default_rng(16).integers(0, 50, size=40)
        table_ranks, table_rows = training._dense_rank(keys, 50)
        monkeypatch.setattr(training, "_PRESENCE_CELLS_PER_ROW", 0)
        sort_ranks, sort_rows = training._dense_rank(keys, 50)
        np.testing.assert_array_equal(table_ranks, sort_ranks)
        np.testing.assert_array_equal(
            np.unique(keys, return_inverse=True)[1], table_ranks
        )
        for rows in (table_rows, sort_rows):  # each rank's row holds it
            np.testing.assert_array_equal(table_ranks[rows],
                                          np.arange(len(rows)))

    @pytest.mark.parametrize("context_dim", [0, CONTEXT_DIM])
    def test_conditional_probs_match_solo_rows(self, context_dim):
        rng = np.random.default_rng(17)
        sampler = self._made(context_dim=context_dim)
        x = _siblings(rng, VOCABS, 0)
        ids, context = _contexts(rng, x)
        if not context_dim:
            ids = context = None
        for variable in range(len(VOCABS)):
            solo = _solo_probs(sampler, x, variable, context)
            grouped = sampler.conditional_probs(x, variable, context=context,
                                                context_ids=ids)
            _assert_bitwise(grouped, solo)

    def test_empty_batches_and_ranges(self):
        sampler = self._made(context_dim=CONTEXT_DIM)
        empty = np.zeros((0, len(VOCABS)), dtype=np.int64)
        context = np.zeros((0, CONTEXT_DIM), dtype=np.float32)
        ids = np.zeros(0, dtype=np.int64)
        out = sampler.sample(empty, 1, context=context, context_ids=ids,
                             draws=np.zeros((0, 4)))
        assert out.shape == (0, len(VOCABS))
        probs = sampler.conditional_probs(empty, 2, context=context,
                                          context_ids=ids)
        assert probs.shape == (0, VOCABS[2])
        x = np.ones((3, len(VOCABS)), dtype=np.int64)
        same = sampler.sample(x, 2, stop_variable=2,
                              context=np.zeros((3, CONTEXT_DIM), np.float32))
        np.testing.assert_array_equal(same, x)

    def test_siblings_forward_one_row_at_the_first_variable(self):
        rng = np.random.default_rng(18)
        sampler = self._made()
        k = 37
        x = np.repeat(rng.integers(0, 3, size=(1, len(VOCABS))), k, axis=0)
        x[:, 2:] = rng.integers(0, 3, size=(k, len(VOCABS) - 2))
        with profile_kernels() as prof:
            sampler.sample(x, 2, stop_variable=3, draws=rng.random((k, 1)))
        counts = prof.snapshot()
        assert counts["made.distinct"]["rows"] == 1
        assert counts["made.row_steps"]["rows"] == k
        assert counts["made.sample"]["rows"] == k
        layers = 2 + len(sampler.residual_layers)
        assert counts["dense"]["rows"] == layers * kernels.TILE


@pytest.mark.slow
class TestCompiledParity:
    """The fitted models' float32 runtime against their float64 modules."""

    def test_conditional_probs_match_autograd(self, fitted_setup):
        *_, layout, model = fitted_setup
        rng = np.random.default_rng(0)
        x = np.stack([
            rng.integers(0, v.vocab_size, size=64) for v in layout.variables
        ], axis=1)
        for variable in range(layout.num_variables):
            fast = model.conditional_probs(x, variable)
            exact = OracleMADE(model.made).conditional_probs(x, variable)
            np.testing.assert_allclose(fast, exact, atol=1e-4, rtol=1e-3)

    def test_per_example_nll_matches_autograd(self, fitted_setup):
        *_, layout, model = fitted_setup
        sampler = model.inference_snapshot().made
        rng = np.random.default_rng(1)
        x = np.stack([
            rng.integers(0, v.vocab_size, size=48) for v in layout.variables
        ], axis=1)
        fast = sampler.per_example_nll(x)
        exact = OracleMADE(model.made).per_example_nll(x)
        np.testing.assert_allclose(fast, exact, atol=1e-3, rtol=1e-3)

    def test_ssar_context_and_probs_match(self, fitted_ssar):
        model = fitted_ssar
        roots = np.arange(20, dtype=np.int64)
        batches = model.forest.batch_for_roots(roots)
        fast_ctx = model.context_for_roots(roots)
        exact_ctx = OracleTreeEncoder(model.tree_encoder)(batches, len(roots)).numpy()
        np.testing.assert_allclose(fast_ctx, exact_ctx, atol=1e-4, rtol=1e-3)

        layout = model.layout
        rng = np.random.default_rng(2)
        x = np.stack([
            rng.integers(0, v.vocab_size, size=20) for v in layout.variables
        ], axis=1)
        fast = model.conditional_probs(x, 1, context=fast_ctx)
        exact = OracleMADE(model.made).conditional_probs(x, 1, context=Tensor(exact_ctx))
        np.testing.assert_allclose(fast, exact, atol=1e-4, rtol=1e-3)

    def test_sample_matches_autograd_draws(self, fitted_setup):
        """With shared uniforms, both runtimes walk the same CDFs."""
        *_, layout, model = fitted_setup
        sampler = model.inference_snapshot().made
        rng = np.random.default_rng(3)
        n = 128
        prefix = np.zeros((n, layout.num_variables), dtype=np.int64)
        prefix[:, 0] = rng.integers(
            0, layout.variables[0].vocab_size, size=n
        )
        draws = rng.random((n, layout.num_variables - 1))
        fast = sampler.sample(prefix, 1, draws=draws)
        exact = OracleMADE(model.made).sample(prefix, 1, rng=None, draws=draws)
        # float32 vs float64 CDFs may flip a draw that lands within ~1e-6 of
        # a bin boundary; identical for virtually every row.
        agree = (fast == exact).all(axis=1).mean()
        assert agree > 0.99

    def test_compiled_tiling_is_batch_invariant(self, fitted_setup):
        """A row's float32 conditionals do not depend on its batch."""
        *_, layout, model = fitted_setup
        sampler = model.inference_snapshot().made
        rng = np.random.default_rng(4)
        x = np.stack([
            rng.integers(0, v.vocab_size, size=300) for v in layout.variables
        ], axis=1)
        for variable in range(layout.num_variables):
            full = sampler.conditional_probs(x, variable)
            pieces = [
                sampler.conditional_probs(x[i:i + 37], variable)
                for i in range(0, 300, 37)
            ]
            np.testing.assert_array_equal(np.concatenate(pieces), full)


def _reachable(root):
    """Every object reachable from ``root`` through attributes/containers."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.slow
class TestInferenceSnapshot:
    @pytest.mark.parametrize("kind", ["ar", "ssar"])
    def test_unpickled_snapshot_holds_float32_arrays_only(
        self, fitted_setup, fitted_ssar, kind
    ):
        model = fitted_setup[-1] if kind == "ar" else fitted_ssar
        snapshot = pickle.loads(pickle.dumps(model.inference_snapshot()))
        leaked = [
            type(obj).__name__ for obj in _reachable(snapshot)
            if isinstance(obj, (Tensor, Module))
        ]
        assert leaked == []
        networks = [snapshot.made] + ([snapshot.tree] if kind == "ssar" else [])
        weights = [
            obj for obj in _reachable(networks)
            if isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
        ]
        assert weights
        assert {w.dtype for w in weights} == {np.dtype(np.float32)}

    def test_load_state_dict_drops_stale_snapshot(self, fitted_setup):
        """Loading other weights must not keep sampling the old ones."""
        *_, layout, _model = fitted_setup
        a, b = (
            ARCompletionModel(layout, ModelConfig(hidden=(32, 32), train=FAST,
                                                  seed=seed))
            for seed in (0, 5)
        )
        a.fit()
        b.fit()
        before = _canonical(IncompletenessJoin(a, seed=0).run())
        expected = _canonical(IncompletenessJoin(b, seed=0).run())
        assert not _same_rows(before, expected)
        a.load_state_dict(b.state_dict())
        assert _same_rows(_canonical(IncompletenessJoin(a, seed=0).run()), expected)


def _same_rows(a, b) -> bool:
    """Two canonicalized joins hold the same rows and weights."""
    (cols_a, w_a, _), (cols_b, w_b, _) = a, b
    return (
        cols_a.keys() == cols_b.keys()
        and all(np.array_equal(cols_a[k], cols_b[k]) for k in cols_a)
        and np.array_equal(w_a, w_b)
    )


# ----------------------------------------------------------------------
# No autograd graphs on the hot path
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestNoAutogradDuringJoin:
    def test_join_builds_no_graph_nodes(self, fitted_setup, monkeypatch):
        *_, model = fitted_setup
        tracked = []
        original = tensor_mod.Tensor._make

        def spy(data, parents, backward_fn):
            if any(p.requires_grad for p in parents):
                tracked.append(parents)
            return original(data, parents, backward_fn)

        monkeypatch.setattr(tensor_mod.Tensor, "_make", staticmethod(spy))
        IncompletenessJoin(model, seed=0).run()
        assert tracked == []

    def test_autograd_backend_does_build_graphs(self, fitted_setup, monkeypatch):
        """Sanity: the spy catches the graphs the float64 oracle builds."""
        *_, layout, model = fitted_setup
        tracked = []
        original = tensor_mod.Tensor._make

        def spy(data, parents, backward_fn):
            if any(p.requires_grad for p in parents):
                tracked.append(1)
            return original(data, parents, backward_fn)

        monkeypatch.setattr(tensor_mod.Tensor, "_make", staticmethod(spy))
        prefix = np.zeros((8, layout.num_variables), dtype=np.int64)
        OracleMADE(model.made).sample(prefix, 1, rng=np.random.default_rng(0))
        assert len(tracked) > 0


class TestOneNetworkImplementation:
    """The fused runtime is the only network code in ``src/``; the float64
    graph engine lives in the test oracle, which nothing in ``src/`` imports."""

    def test_nn_exports_no_graph_engine(self):
        import repro.nn

        retired = {
            "Tensor", "functional", "concat", "zeros", "ones", "Optimizer",
            "SGD", "Adam", "clip_grad_norm", "AutogradStepper",
            "TRAIN_BACKENDS", "MLP", "Sequential", "ReLU",
        }
        assert retired.isdisjoint(repro.nn.__all__)
        assert not any(hasattr(repro.nn, name) for name in retired)

    def test_no_training_backend_options(self):
        from dataclasses import fields

        assert "backend" not in {f.name for f in fields(TrainConfig)}
        assert "train_backend" not in {f.name for f in fields(ReStoreConfig)}

    def test_src_does_not_import_the_oracle(self):
        import ast
        from pathlib import Path

        import repro

        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] not in ("oracle", "tests"), (
                        f"{path} imports {name}"
                    )


# ----------------------------------------------------------------------
# Chunked execution
# ----------------------------------------------------------------------

def _canonical(completed):
    cols = completed.result.columns
    keys = sorted(k for k in cols if k.endswith(".id"))
    order = np.lexsort(tuple(np.asarray(cols[k]) for k in keys))
    return (
        {k: np.asarray(v)[order] for k, v in cols.items()},
        completed.result.effective_weights()[order],
        completed.target_synthesized()[order],
    )


@pytest.mark.slow
class TestChunkedJoin:
    @pytest.mark.parametrize("chunk_size", [3, 17, 1000000])
    def test_chunked_join_identical_to_unchunked(self, fitted_setup, chunk_size):
        *_, model = fitted_setup
        full = IncompletenessJoin(model, seed=7).run()
        chunked = IncompletenessJoin(model, seed=7, chunk_size=chunk_size).run()
        assert chunked.num_rows == full.num_rows
        assert chunked.num_synthesized == full.num_synthesized
        cols_a, w_a, syn_a = _canonical(full)
        cols_b, w_b, syn_b = _canonical(chunked)
        for name in cols_a:
            np.testing.assert_array_equal(cols_a[name], cols_b[name])
        np.testing.assert_array_equal(w_a, w_b)
        np.testing.assert_array_equal(syn_a, syn_b)

    def test_chunked_ssar_join_identical(self, fitted_ssar):
        full = IncompletenessJoin(fitted_ssar, seed=3).run()
        chunked = IncompletenessJoin(fitted_ssar, seed=3, chunk_size=13).run()
        cols_a, w_a, _ = _canonical(full)
        cols_b, w_b, _ = _canonical(chunked)
        for name in cols_a:
            np.testing.assert_array_equal(cols_a[name], cols_b[name])
        np.testing.assert_array_equal(w_a, w_b)

    @pytest.fixture(scope="class")
    def fitted_dangling(self):
        """A path whose n:1 hop has dangling FKs (removed landlords)."""
        db = generate_housing(HousingConfig(seed=0, num_neighborhoods=30,
                                            num_landlords=120,
                                            apartments_per_neighborhood=6.0))
        dataset = make_incomplete(
            db, [RemovalSpec("landlord", "landlord_response_rate", 0.5, 0.4)],
            drop_dangling_links=False,  # keep apartments pointing at removed
            seed=1,                     # landlords: dangling FK evidence
        )
        encoders = build_encoders(dataset.incomplete, num_bins=8)
        layout = PathLayout(dataset.incomplete, dataset.annotation,
                            CompletionPath(("apartment", "landlord")), encoders)
        model = ARCompletionModel(layout, ModelConfig(hidden=(32, 32), train=FAST))
        model.fit()
        return model

    def test_chunked_dangling_parents_identical(self, fitted_dangling):
        """Chunks that split a dangling key's children must still synthesize
        the same shared parent (regression: the parent used to be sampled
        from the chunk-local first child's prefix)."""
        full = IncompletenessJoin(fitted_dangling, seed=7).run()
        chunked = IncompletenessJoin(fitted_dangling, seed=7, chunk_size=3).run()
        assert full.num_synthesized.get("landlord", 0) > 0  # branch exercised
        assert chunked.num_synthesized == full.num_synthesized
        cols_a, w_a, syn_a = _canonical(full)
        cols_b, w_b, syn_b = _canonical(chunked)
        for name in cols_a:
            np.testing.assert_array_equal(cols_a[name], cols_b[name])
        np.testing.assert_array_equal(w_a, w_b)
        np.testing.assert_array_equal(syn_a, syn_b)

    def test_grouped_forwards_match_per_row_forwards(
        self, fitted_setup, fitted_ssar, fitted_dangling, monkeypatch
    ):
        """The join's distinct-row sampling gives the bits of forwarding
        every row on its own, on AR, SSAR and dangling-parent paths."""
        models = (fitted_setup[-1], fitted_ssar, fitted_dangling)
        grouped = []
        for model in models:
            with profile_kernels() as prof:
                grouped.append(IncompletenessJoin(model, seed=5).run())
            counts = prof.snapshot()
            assert counts["made.distinct"]["rows"] < counts["made.row_steps"]["rows"]
        monkeypatch.setattr(
            FusedResidualMADE, "_prefix_groups",
            lambda self, x, stop, context, context_ids: (
                np.arange(len(x)), np.arange(len(x))
            ),
        )
        for model, ours in zip(models, grouped):
            per_row = IncompletenessJoin(model, seed=5).run()
            cols_a, w_a, syn_a = _canonical(ours)
            cols_b, w_b, syn_b = _canonical(per_row)
            for name in cols_a:
                np.testing.assert_array_equal(cols_a[name], cols_b[name])
            _assert_bitwise(w_a, w_b)
            np.testing.assert_array_equal(syn_a, syn_b)

    def test_seed_still_changes_output(self, fitted_setup):
        *_, model = fitted_setup
        a = IncompletenessJoin(model, seed=1).run()
        b = IncompletenessJoin(model, seed=2).run()
        assert a.num_rows != b.num_rows or not np.array_equal(
            np.sort(np.asarray(a.result.resolve("tb.b"))),
            np.sort(np.asarray(b.result.resolve("tb.b"))),
        )

    def test_chunk_slices(self):
        assert list(rt_rng.chunk_slices(10, None)) == [slice(0, 10)]
        assert list(rt_rng.chunk_slices(10, 0)) == [slice(0, 10)]
        assert list(rt_rng.chunk_slices(10, 4)) == [
            slice(0, 4), slice(4, 8), slice(8, 10)
        ]
        assert list(rt_rng.chunk_slices(10, 100)) == [slice(0, 10)]


# ----------------------------------------------------------------------
# Counter-based random streams
# ----------------------------------------------------------------------

class TestRuntimeRng:
    def test_draw_advances_counters(self):
        seed = rt_rng.fold_seed(0)
        streams = rt_rng.root_streams(np.arange(5))
        counters = np.zeros(5, dtype=np.uint64)
        first = rt_rng.draw(seed, streams, counters, 2)
        assert counters.tolist() == [2] * 5
        second = rt_rng.draw(seed, streams, counters, 2)
        assert not np.array_equal(first, second)

    def test_uniforms_pure_function(self):
        seed = rt_rng.fold_seed(42)
        streams = rt_rng.root_streams(np.arange(8))
        counters = np.arange(8, dtype=np.uint64)
        a = rt_rng.uniforms(seed, streams, counters, 3)
        b = rt_rng.uniforms(seed, streams, counters, 3)
        np.testing.assert_array_equal(a, b)
        assert ((a >= 0) & (a < 1)).all()

    def test_derived_streams_distinct(self):
        parents = rt_rng.root_streams(np.arange(100))
        children = rt_rng.derive_streams(
            np.repeat(parents, 3), rt_rng.TAG_SYNTH, np.tile(np.arange(3), 100)
        )
        assert len(np.unique(children)) == 300
        siblings = rt_rng.derive_streams(parents, rt_rng.TAG_CHILD, np.arange(100))
        assert len(np.intersect1d(children, siblings)) == 0

    def test_key_streams_independent_of_position(self):
        keys = np.array([10, 20, 30])
        a = rt_rng.key_streams(rt_rng.TAG_KEY, keys)
        b = rt_rng.key_streams(rt_rng.TAG_KEY, keys[::-1])[::-1]
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# Memoized joins: the full-join entries of the one completion cache
# ----------------------------------------------------------------------

class TestJoinCache:
    def test_lru_eviction_order(self):
        cache = PartialJoinCache(capacity=2)
        cache.put_join("a", 1)
        cache.put_join("b", 2)
        assert cache.get_join("a") == 1     # refresh "a" → "b" is now LRU
        cache.put_join("c", 3)
        assert cache.has_join("a") and cache.has_join("c")
        assert not cache.has_join("b")
        assert cache.join_stats.evictions == 1
        assert cache.stats.evictions == 0   # no chunk was evicted

    def test_lru_is_shared_with_chunks(self):
        grid = ((0, 1),)
        cache = PartialJoinCache(capacity=2)
        cache.put("sig", grid, (0, 1), frozenset(), "chunk")
        cache.put_join("a", 1)
        cache.put_join("b", 2)              # the chunk is the LRU entry
        assert cache.lookup("sig", grid, (0, 1), frozenset()) is None
        assert cache.stats.evictions == 1 and cache.join_stats.evictions == 0
        cache.put("sig", grid, (0, 1), frozenset(), "chunk")  # evicts "a"
        assert not cache.has_join("a") and cache.has_join("b")
        assert cache.join_stats.evictions == 1

    def test_stats_counters(self):
        cache = PartialJoinCache(capacity=4)
        assert cache.get_join("missing") is None
        cache.put_join("x", 42)
        assert cache.get_join("x") == 42
        assert cache.join_stats.hits == 1
        assert cache.join_stats.misses == 1
        assert cache.join_stats.hit_rate == 0.5
        assert cache.join_stats.requests == 2
        assert set(cache.join_stats.as_dict()) == {
            "hits", "misses", "evictions", "invalidations", "hit_rate"
        }
        # memo traffic never shows up in the chunk counters
        assert cache.stats.requests == 0

    def test_contains_is_pure_probe(self):
        cache = PartialJoinCache(capacity=2)
        cache.put_join("a", 1)
        cache.put_join("b", 2)
        before = (cache.join_stats.hits, cache.join_stats.misses)
        assert cache.has_join("a")
        assert not cache.has_join("c")
        assert (cache.join_stats.hits, cache.join_stats.misses) == before
        cache.put_join("d", 4)              # probing "a" did not refresh it
        assert not cache.has_join("a") and cache.has_join("b")

    def test_invalidate_clears_entries(self):
        cache = PartialJoinCache(capacity=2)
        cache.put_join("a", 1)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.join_stats.invalidations == 1
        assert cache.stats.invalidations == 0   # no chunk was cached
        cache.invalidate()  # empty → not counted again
        assert cache.join_stats.invalidations == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PartialJoinCache(capacity=0)

    def test_put_updates_existing_key(self):
        cache = PartialJoinCache(capacity=2)
        cache.put_join("a", 1)
        cache.put_join("a", 9)
        assert cache.get_join("a") == 9
        assert len(cache) == 1

    def test_threads_share_one_bound(self):
        """Chunks and memos from many threads under one lock: the bound
        holds, no request goes uncounted, the chunk index matches the
        chunk entries exactly, and every stale mark has its entry."""
        capacity, n_threads, per_thread = 6, 8, 1000
        grid = tuple((i, i + 1) for i in range(4))
        cache = PartialJoinCache(capacity=capacity)
        barrier = threading.Barrier(n_threads)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                sig = ("sig", (worker + i) % 3)
                task = grid[i % len(grid)]
                cache.put(sig, grid, task, frozenset(), (worker, i))
                cache.put_join(sig, (worker, i))
                cache.get_join(("sig", i % 3))
                cache.lookup(sig, grid, task, frozenset())
                if i % 50 == 0:
                    cache.mark_stale(sig, [task[0]])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert len(cache) <= capacity
        assert cache.join_stats.requests == n_threads * per_thread
        assert cache.stats.requests == n_threads * per_thread
        chunk_keys = {key for key in cache._entries if key[1] is not None}
        indexed = {(base, fps) for base, fp_sets in cache._by_base.items()
                   for fps in fp_sets}
        assert chunk_keys == indexed
        assert {(base, frozenset()) for base in cache._stale} <= chunk_keys


@pytest.mark.slow
class TestEngineCache:
    @pytest.fixture(scope="class")
    def engine_dataset(self):
        db = generate_synthetic(SyntheticConfig(num_parents=200,
                                                predictability=0.9, seed=0))
        dataset = make_incomplete(db, [RemovalSpec("tb", "b", 0.5, 0.4)],
                                  tf_keep_rate=0.5, seed=1)
        config = ReStoreConfig(model=ModelConfig(hidden=(32, 32), train=FAST))
        engine = ReStore.from_dataset(dataset, config).fit()
        return engine, dataset

    def test_completed_join_cached_with_stats(self, engine_dataset):
        engine, _ = engine_dataset
        engine.clear_cache()
        model = engine.candidates("tb")[0].model
        first = engine.completed_join(model)
        again = engine.completed_join(model)
        assert again.result is first.result
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.misses == 1

    def test_refit_invalidates_join_cache(self, engine_dataset):
        engine, _ = engine_dataset
        model = engine.candidates("tb")[0].model
        engine.completed_join(model)
        assert engine.join_cached(model)
        engine.fit(targets=["tb"])
        assert len(engine.partial_cache) == 0
        assert engine.cache_stats.invalidations >= 1

    def test_cache_key_includes_seed(self, engine_dataset):
        engine, _ = engine_dataset
        engine.clear_cache()
        model = engine.candidates("tb")[0].model
        engine.completed_join(model)
        key = engine.join_signature(model)
        assert key[2] == engine.config.seed
        assert key[3] == engine.config.approximate_replacement

    def test_chunked_engine_matches_unchunked(self, engine_dataset):
        engine, dataset = engine_dataset
        engine.clear_cache()
        model = engine.candidates("tb")[0].model
        unchunked = engine.completed_join(model)
        chunked_config = ReStoreConfig(
            model=ModelConfig(hidden=(32, 32), train=FAST),
            chunk_size=7,
        )
        chunked_engine = ReStore.from_dataset(dataset, chunked_config)
        chunked = IncompletenessJoin(
            model, seed=chunked_engine.config.seed,
            chunk_size=chunked_engine.config.chunk_size,
        ).run()
        cols_a, w_a, _ = _canonical(unchunked)
        cols_b, w_b, _ = _canonical(chunked)
        for name in cols_a:
            np.testing.assert_array_equal(cols_a[name], cols_b[name])
        np.testing.assert_array_equal(w_a, w_b)
