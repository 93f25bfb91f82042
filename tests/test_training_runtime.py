"""Tests for the fused training runtime (:mod:`repro.runtime.training`).

The contract under test, per layer:

* **Gradcheck parity** — the hand-derived fused forward+backward matches
  the float64 test oracle (``tests/oracle``) to machine precision (and
  within 1e-4 relative error when run in float32) across randomized
  layouts: varying vocabulary sizes, wide tuple-factor heads, context
  dimensions, residual depths and per-variable loss weights.  Finite
  differences provide a third, engine-independent opinion.
* **Training-loop semantics** — remainder mini-batches fold into their
  predecessor (every row trains each epoch) and :class:`TrainResult`
  records per-epoch wall times.
* **Equivalence at the engine level** — fused-trained engines rank the
  same candidates as an oracle-trained twin (the oracle stepper swapped
  in for the one ``fit`` builds) and their snapshots stay picklable for
  the process executors.
"""

import pickle

import numpy as np
import pytest

from repro.core import ModelConfig, ReStore, ReStoreConfig
from repro.core.models import _CompletionModelBase
from repro.core.path_data import TrainingData
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig, TrainStepper, batch_bounds, train
from repro.nn.deepsets import EvidenceTreeEncoder, TreeNodeBatch, TreeNodeSpec
from repro.nn.made import ResidualMADE
from repro.runtime import kernels
from repro.runtime.training import (
    FusedResidualMADE,
    FusedTreeEncoder,
    ParameterBuffer,
)

from helpers import numeric_grad_arrays, relative_grad_error
from oracle import (
    OracleMADE,
    OracleTreeEncoder,
    Tensor,
    functional as F,
    holder,
    oracle_training,
    parameters,
)

#: The acceptance tolerance of the parity suite (ISSUE 5): fused gradients
#: must match the autograd oracle within 1e-4 relative error.
PARITY_TOL = 1e-4


# ----------------------------------------------------------------------
# Random layout generators
# ----------------------------------------------------------------------

def random_made(rng, context_dim: int = 0) -> ResidualMADE:
    """A MADE with randomized vocabularies, width, depth and embeddings."""
    num_vars = int(rng.integers(2, 6))
    vocab = [int(rng.integers(2, 10)) for _ in range(num_vars)]
    if rng.random() < 0.5:
        # A wide tuple-factor-style head.
        vocab[int(rng.integers(0, num_vars))] = int(rng.integers(20, 45))
    width = int(rng.integers(12, 25))
    depth = int(rng.integers(2, 4))
    return ResidualMADE(
        vocab,
        embed_dim=int(rng.integers(3, 8)),
        hidden=(width,) * depth,
        rng=rng,
        context_dim=context_dim,
    )


def random_batch(rng, made: ResidualMADE):
    """Random codes + positive per-variable weights for one mini-batch."""
    batch = int(rng.integers(3, 18))
    x = np.stack(
        [rng.integers(0, k, size=batch) for k in made.vocab_sizes], axis=1
    )
    weights = {
        i: rng.uniform(0.2, 3.0, size=batch)
        for i in range(made.num_variables)
        if rng.random() < 0.8
    }
    return x, weights


def autograd_reference(made, x, weights, context=None):
    """Loss and named parameter grads (plus context grad) from the oracle."""
    params = parameters(made)
    ctx_t = None
    if context is not None:
        ctx_t = Tensor(context, requires_grad=True)
    loss = OracleMADE(made, params).nll(
        x, context=ctx_t, variable_weights=weights or None
    )
    loss.backward()
    grads = {name: t.grad.copy() for name, t in params.items()}
    d_context = None if ctx_t is None else ctx_t.grad.copy()
    return loss.item(), grads, d_context


# ----------------------------------------------------------------------
# Gradcheck parity: fused vs the autograd oracle vs finite differences
# ----------------------------------------------------------------------

class TestGradcheckMADE:
    @pytest.mark.parametrize("seed", range(10))
    def test_fused_matches_autograd_float64(self, seed):
        rng = np.random.default_rng(seed)
        made = random_made(rng)
        x, weights = random_batch(rng, made)
        ref_loss, ref_grads, _ = autograd_reference(made, x, weights)

        buffer = ParameterBuffer(made, dtype=np.float64)
        fused = FusedResidualMADE(made, buffer)
        loss, _ = fused.loss_and_grad(x, None, weights or None)

        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name in buffer.names:
            err = relative_grad_error(buffer.grad_view(name), ref_grads[name])
            assert err < 1e-10, f"layout {seed}, parameter {name}: {err}"

    @pytest.mark.parametrize("seed", range(10))
    def test_fused_float32_within_parity_tolerance(self, seed):
        """The production dtype stays within the 1e-4 acceptance band."""
        rng = np.random.default_rng(100 + seed)
        made = random_made(rng)
        x, weights = random_batch(rng, made)
        ref_loss, ref_grads, _ = autograd_reference(made, x, weights)

        buffer = ParameterBuffer(made, dtype=np.float32)
        fused = FusedResidualMADE(made, buffer)
        loss, _ = fused.loss_and_grad(x, None, weights or None)

        assert loss == pytest.approx(ref_loss, rel=1e-4)
        for name in buffer.names:
            err = relative_grad_error(buffer.grad_view(name), ref_grads[name])
            assert err < PARITY_TOL, f"layout {seed}, parameter {name}: {err}"

    @pytest.mark.parametrize("seed", range(6))
    def test_context_gradient_matches_autograd(self, seed):
        rng = np.random.default_rng(200 + seed)
        context_dim = int(rng.integers(2, 9))
        made = random_made(rng, context_dim=context_dim)
        x, weights = random_batch(rng, made)
        context = rng.normal(size=(len(x), context_dim))
        ref_loss, ref_grads, ref_dctx = autograd_reference(
            made, x, weights, context
        )

        buffer = ParameterBuffer(made, dtype=np.float64)
        fused = FusedResidualMADE(made, buffer)
        loss, d_context = fused.loss_and_grad(x, context, weights or None)

        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert relative_grad_error(d_context, ref_dctx) < 1e-10
        for name in buffer.names:
            assert relative_grad_error(
                buffer.grad_view(name), ref_grads[name]
            ) < 1e-10, name

    def test_fused_matches_finite_differences(self):
        """Engine-independent oracle: central differences on the buffer."""
        rng = np.random.default_rng(7)
        made = ResidualMADE([3, 4], embed_dim=3, hidden=(8, 8), rng=rng)
        x = np.stack([rng.integers(0, 3, size=5), rng.integers(0, 4, size=5)],
                     axis=1)
        weights = {0: rng.uniform(0.5, 2.0, size=5),
                   1: rng.uniform(0.5, 2.0, size=5)}
        buffer = ParameterBuffer(made, dtype=np.float64)
        fused = FusedResidualMADE(made, buffer)

        def loss_only():
            return fused.loss_and_grad(x, None, weights)[0]

        probe = [
            buffer.view("embeddings.0.weight"),
            buffer.view("input_layer.bias"),
            buffer.view("output_layer.weight"),
        ]
        fd_grads = numeric_grad_arrays(loss_only, probe)

        buffer.zero_grad()
        fused.loss_and_grad(x, None, weights)
        analytic = [
            buffer.grad_view("embeddings.0.weight"),
            buffer.grad_view("input_layer.bias"),
            buffer.grad_view("output_layer.weight"),
        ]
        for got, expected in zip(analytic, fd_grads):
            assert relative_grad_error(got, expected) < 1e-6


class TestGradcheckTreeEncoder:
    def _random_tree(self, rng):
        specs = [TreeNodeSpec("child", [int(rng.integers(2, 7)),
                                        int(rng.integers(2, 7))],
                              children=[TreeNodeSpec("grand",
                                                     [int(rng.integers(2, 8))])])]
        if rng.random() < 0.5:
            specs.append(TreeNodeSpec("other", [int(rng.integers(2, 9))]))
        return EvidenceTreeEncoder(
            specs, embed_dim=int(rng.integers(2, 6)),
            node_dim=int(rng.integers(3, 7)), rng=rng,
        )

    def _random_batches(self, rng, tree, batch):
        batches = {}
        for spec in tree.specs:
            rows = int(rng.integers(0, 14))
            node = TreeNodeBatch(
                values=np.stack(
                    [rng.integers(0, k, size=rows) for k in spec.vocab_sizes],
                    axis=1,
                ) if rows else np.zeros((0, len(spec.vocab_sizes)), dtype=np.int64),
                parent_ids=np.sort(rng.integers(0, batch, size=rows)),
            )
            for child in spec.children:
                crows = int(rng.integers(0, 10))
                node.children[child.name] = TreeNodeBatch(
                    values=np.stack(
                        [rng.integers(0, k, size=crows)
                         for k in child.vocab_sizes], axis=1,
                    ) if crows else np.zeros((0, len(child.vocab_sizes)),
                                             dtype=np.int64),
                    parent_ids=np.sort(rng.integers(0, max(rows, 1), size=crows)),
                )
            batches[spec.name] = node
        return batches

    @pytest.mark.parametrize("seed", range(6))
    def test_ssar_stack_grads_match_autograd(self, seed):
        """Full SSAR training stack: tree encoder context into MADE NLL."""
        rng = np.random.default_rng(300 + seed)
        tree = self._random_tree(rng)
        made = random_made(rng, context_dim=tree.context_dim)
        x, weights = random_batch(rng, made)
        batches = self._random_batches(rng, tree, len(x))

        # One module over both networks, as a completion model holds them.
        module = holder(made=made, tree_encoder=tree)
        params = parameters(module)
        ctx = OracleTreeEncoder(tree, params, "tree_encoder.")(batches, len(x))
        loss = OracleMADE(made, params, "made.").nll(
            x, context=ctx, variable_weights=weights or None
        )
        loss.backward()

        # One buffer over both modules, as the stepper builds it.
        combined = ParameterBuffer(module, dtype=np.float64)
        fused_made = FusedResidualMADE(made, combined)
        fused_tree = FusedTreeEncoder(tree, combined)
        fctx = fused_tree.forward(batches, len(x))
        floss, d_context = fused_made.loss_and_grad(x, fctx, weights or None)
        fused_tree.backward(d_context)

        assert floss == pytest.approx(loss.item(), rel=1e-12)
        for name, tensor in params.items():
            err = relative_grad_error(combined.grad_view(name), tensor.grad)
            assert err < 1e-10, f"layout {seed}, parameter {name}: {err}"


class TestMultiheadKernel:
    def test_matches_per_head_kernel(self):
        rng = np.random.default_rng(5)
        offsets = np.array([0, 4, 6, 13])
        logits = rng.normal(size=(9, 13))
        targets = np.stack([
            rng.integers(0, 4, size=9),
            rng.integers(0, 2, size=9),
            rng.integers(0, 7, size=9),
        ], axis=1)
        weights = rng.uniform(0.2, 2.0, size=(9, 3))
        normalized = weights / weights.sum(axis=0)

        expected_loss = 0.0
        expected_grad = np.empty_like(logits)
        for i in range(3):
            start, stop = offsets[i], offsets[i + 1]
            term, d_slice = kernels.softmax_nll_grad(
                logits[:, start:stop].copy(), targets[:, i], weights[:, i]
            )
            expected_loss += term
            expected_grad[:, start:stop] = d_slice

        loss, d_logits = kernels.multihead_softmax_nll_grad(
            logits.copy(), offsets, targets, normalized
        )
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        np.testing.assert_allclose(d_logits, expected_grad, atol=1e-12)

    def test_single_head_matches_cross_entropy(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(7, 5))
        targets = rng.integers(0, 5, size=7)
        weights = rng.uniform(0.1, 2.0, size=7)
        logits_t = Tensor(logits, requires_grad=True)
        loss_t = F.cross_entropy(logits_t, targets, weights)
        loss_t.backward()
        loss, d_logits = kernels.softmax_nll_grad(
            logits.copy(), targets, weights
        )
        assert loss == pytest.approx(loss_t.item(), rel=1e-12)
        np.testing.assert_allclose(d_logits, logits_t.grad, atol=1e-12)


# ----------------------------------------------------------------------
# Training-loop semantics
# ----------------------------------------------------------------------

class TestBatchBounds:
    def test_plain_split(self):
        assert batch_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_one_row_remainder_folds_into_previous(self):
        assert batch_bounds(9, 4) == [(0, 4), (4, 9)]

    def test_single_short_batch_survives(self):
        assert batch_bounds(1, 4) == [(0, 1)]

    def test_exact_multiple(self):
        assert batch_bounds(8, 4) == [(0, 4), (4, 8)]

    @pytest.mark.parametrize("n,batch", [(7, 3), (257, 64), (13, 12), (2, 8)])
    def test_covers_every_row_exactly_once(self, n, batch):
        bounds = batch_bounds(n, batch)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a, b), (c, d) in zip(bounds[:-1], bounds[1:]):
            assert b == c and b - a >= 2
        assert sum(stop - start for start, stop in bounds) == n

    def test_every_training_row_contributes_each_epoch(self):
        """Regression: a 1-row remainder used to be dropped silently."""
        # 116 examples, 10% validation → 105 training rows; batch 26 leaves
        # a 1-row remainder (105 = 4*26 + 1).
        num_examples = 116

        class CountingStepper(TrainStepper):
            """Counts the rows each epoch trains on; evaluation marks the
            epoch boundary."""

            def __init__(self):
                self.seen = 0
                self.seen_per_epoch = []

            def step(self, indices):
                self.seen += len(indices)
                return 1.0

            def evaluate(self, indices):
                self.seen_per_epoch.append(self.seen)
                return 1.0

            def snapshot(self):
                return None

            def restore(self, state):
                pass

        stepper = CountingStepper()
        config = TrainConfig(epochs=3, batch_size=26, seed=0, patience=10)
        train(stepper, num_examples, config)
        num_train = num_examples - max(1, int(num_examples * 0.1))
        assert num_train % 26 == 1  # the regression-triggering shape
        totals = np.diff([0] + stepper.seen_per_epoch)
        assert list(totals) == [num_train] * len(totals)


# ----------------------------------------------------------------------
# Incremental debias weights
# ----------------------------------------------------------------------

class TestDebiasWeights:
    def _naive_reference(self, tables, variables, row_positions):
        """The pre-refactor O(slots · n log n) stacked-unique algorithm."""
        weights = {}
        stacked = []
        slot_weight = {}
        for slot, table in enumerate(tables):
            stacked.append(row_positions[table])
            combo = np.stack(stacked, axis=1)
            _, inverse, counts = np.unique(
                combo, axis=0, return_inverse=True, return_counts=True
            )
            slot_weight[slot] = 1.0 / counts[inverse]
        for var_idx, spec in enumerate(variables):
            if spec.is_tuple_factor:
                weights[var_idx] = slot_weight[spec.slot - 1]
            else:
                weights[var_idx] = slot_weight[spec.slot]
        return weights

    @pytest.mark.parametrize("seed", range(5))
    def test_incremental_matches_stacked_unique(self, seed):
        from types import SimpleNamespace

        rng = np.random.default_rng(seed)
        tables = ("ta", "tb", "tc")
        rows = int(rng.integers(10, 400))
        row_positions = {
            t: rng.integers(0, rng.integers(2, 40), size=rows).astype(np.int64)
            for t in tables
        }
        variables = []
        for slot in range(3):
            if slot > 0 and rng.random() < 0.7:
                variables.append(SimpleNamespace(
                    is_tuple_factor=True, slot=slot))
            variables.append(SimpleNamespace(is_tuple_factor=False, slot=slot))
        fake_model = SimpleNamespace(layout=SimpleNamespace(
            path=SimpleNamespace(tables=tables), variables=variables,
        ))
        data = TrainingData(
            matrix=np.zeros((rows, len(variables)), dtype=np.int64),
            row_positions=row_positions,
        )
        got = _CompletionModelBase._debias_weights(fake_model, data)
        expected = self._naive_reference(tables, variables, row_positions)
        assert set(got) == set(expected)
        for var in expected:
            np.testing.assert_allclose(got[var], expected[var])


# ----------------------------------------------------------------------
# Engine-level equivalence with an oracle-trained twin
# ----------------------------------------------------------------------

FAST = TrainConfig(epochs=4, batch_size=128, lr=1e-2, patience=3)


def _engine(**kwargs) -> ReStore:
    dataset = make_scenario_dataset(
        "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
    )
    config = ReStoreConfig(model=ModelConfig(train=FAST), seed=3, **kwargs)
    return ReStore.from_dataset(dataset, config).fit()


def _oracle_twin() -> ReStore:
    """The same engine, every model trained on the float64 oracle."""
    with oracle_training():
        return _engine()


@pytest.fixture(scope="module")
def twins():
    return _engine(), _oracle_twin()


class TestOracleTrainedTwin:
    def test_fit_records_epoch_wall_times(self):
        engine = _engine()
        for model in engine.fitted_models().values():
            assert (
                len(model.train_result.epoch_wall_times_s)
                == model.train_result.epochs_run
            )
            assert all(t > 0 for t in model.train_result.epoch_wall_times_s)

    def test_state_dict_names_match_oracle_twin(self, twins):
        fused, oracle = twins
        differs = False
        for key, model in fused.fitted_models().items():
            other = oracle.fitted_models()[key].state_dict()
            assert list(model.state_dict()) == list(other)
            differs |= any(
                not np.array_equal(value, other[name])
                for name, value in model.state_dict().items()
            )
        assert differs, "the twin did not train on the oracle"

    def test_model_selection_agrees_with_oracle_twin(self, twins):
        fused, oracle = twins
        for target in ("tb",):
            ranked_fused = [
                (c.model.kind, c.path.tables) for c in fused.candidates(target)
            ]
            ranked_oracle = [
                (c.model.kind, c.path.tables)
                for c in oracle.candidates(target)
            ]
            assert ranked_fused == ranked_oracle
            for cf, co in zip(fused.candidates(target),
                              oracle.candidates(target)):
                assert cf.target_loss == pytest.approx(co.target_loss, abs=0.05)

    def test_fused_loss_tracks_oracle_twin(self, twins):
        fused, oracle = twins
        for key, model in fused.fitted_models().items():
            other = oracle.fitted_models()[key]
            assert model.train_result.final_train_loss == pytest.approx(
                other.train_result.final_train_loss, abs=0.05
            )

    def test_fused_snapshot_stays_picklable(self):
        engine = _engine()
        for model in engine.fitted_models().values():
            snapshot = model.inference_snapshot()
            blob = pickle.dumps(snapshot)
            assert pickle.loads(blob).kind == model.kind

    def test_fused_fit_under_process_executor_matches_serial(self):
        serial = _engine()
        parallel = _engine(n_workers=2, parallel_backend="process")
        for key, model in serial.fitted_models().items():
            other = parallel.fitted_models()[key]
            for name, value in model.state_dict().items():
                assert np.array_equal(other.state_dict()[name], value), name

    def test_training_loss_decreases_under_fused(self):
        engine = _engine()
        for model in engine.fitted_models().values():
            losses = model.train_result.train_losses
            assert losses[-1] < losses[0]


# ----------------------------------------------------------------------
# Warm-start fine-tuning (incremental re-training)
# ----------------------------------------------------------------------


def _mutate_root(engine):
    """Overwrite one non-key root column so the database digest moves.

    Deterministic: twin engines built from the same dataset at the same
    seed receive the identical mutation.
    """
    from repro.relational import ColumnKind

    root = engine._default_model().layout.path.tables[0]
    table = engine.db.table(root)
    pk = table.primary_key
    column = next(
        c for c in table.column_names
        if c != pk and table.meta(c).kind != ColumnKind.KEY
    )
    return engine.apply_mutations(
        updates={root: [{pk: int(table[pk][0]), column: table[column][1]}]}
    )


class TestWarmStartFineTune:
    def test_fine_tune_on_unchanged_database_is_exact_noop(self):
        """The digest gate makes the no-op *exact*, not just approximate:
        parameters stay bitwise identical and the stamped TrainResult is
        the very same object."""
        engine = _engine()
        before = {
            key: {n: v.copy() for n, v in model.state_dict().items()}
            for key, model in engine.fitted_models().items()
        }
        results = {
            key: model.train_result
            for key, model in engine.fitted_models().items()
        }
        outcome = engine.fine_tune()
        assert outcome["skipped"] is True
        assert outcome["models_tuned"] == 0
        for key, model in engine.fitted_models().items():
            assert model.train_result is results[key]
            assert model.train_result.warm_start is False
            for name, value in model.state_dict().items():
                assert np.array_equal(value, before[key][name]), (key, name)

    def test_fine_tune_after_mutation_resumes_from_fitted_weights(self):
        """Warm start means training continues, not restarts: the first
        fine-tune epoch already sits below the cold fit's first epoch
        (which began at random init + bias re-initialization)."""
        engine = _engine()
        cold_first = {
            key: model.train_result.train_losses[0]
            for key, model in engine.fitted_models().items()
        }
        _mutate_root(engine)
        outcome = engine.fine_tune()
        assert outcome["skipped"] is False
        assert outcome["models_tuned"] == len(engine.fitted_models())
        for key, model in engine.fitted_models().items():
            assert model.train_result.warm_start is True
            assert model.train_result.train_losses[0] < cold_first[key], key

    def test_warm_start_parity_with_oracle_twin(self):
        """Fused and oracle fine-tunes of identically mutated twins land on
        the same losses, mirroring the cold-fit parity suite."""
        fused = _engine()
        _mutate_root(fused)
        assert fused.fine_tune()["skipped"] is False
        with oracle_training():
            oracle = _engine()
            _mutate_root(oracle)
            assert oracle.fine_tune()["skipped"] is False
        for key, model in fused.fitted_models().items():
            other = oracle.fitted_models()[key]
            assert model.train_result.warm_start is True
            assert other.train_result.warm_start is True
            assert model.train_result.final_train_loss == pytest.approx(
                other.train_result.final_train_loss, abs=0.05
            )

    def test_warm_started_parameters_stay_within_gradcheck_bounds(self):
        """The gradcheck contract holds at *trained* parameters too: after
        a warm-start fine-tune, fused gradients at the tuned weights still
        match the autograd oracle within the acceptance band."""
        engine = _engine()
        _mutate_root(engine)
        engine.fine_tune()
        model = next(
            m for m in engine.fitted_models().values()
            if m.made.context_dim == 0
        )
        made = model.made
        x = model.training_data.matrix[:16]
        ref_loss, ref_grads, _ = autograd_reference(made, x, None)
        buffer = ParameterBuffer(made, dtype=np.float64)
        fused = FusedResidualMADE(made, buffer)
        loss, _ = fused.loss_and_grad(x, None, None)
        assert loss == pytest.approx(ref_loss, rel=1e-9)
        for name in buffer.names:
            err = relative_grad_error(buffer.grad_view(name), ref_grads[name])
            assert err < PARITY_TOL, name

    def test_warm_start_flag_survives_artifact_round_trip(self, tmp_path):
        engine = _engine()
        _mutate_root(engine)
        engine.fine_tune()
        path = tmp_path / "artifact"
        engine.save_artifact(path, scenario="synthetic/biased")
        reloaded = ReStore.load(path)
        assert reloaded.fitted_models(), "artifact restored no models"
        for key, model in reloaded.fitted_models().items():
            assert model.train_result is not None, key
            assert model.train_result.warm_start is True, key
