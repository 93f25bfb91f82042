"""Tests for the ResidualMADE autoregressive model.

The crucial invariant is the autoregressive property: output ``i`` must be
invariant to inputs ``j >= i`` (and sensitive, in general, to ``j < i``).
We verify it empirically by perturbing inputs, check that training recovers
simple known conditionals, and exercise conditional sampling.  The module's
masks and parameters are driven through the float64 test oracle, which
reads them by name.
"""

import numpy as np
import pytest

from repro.nn import ResidualMADE, TrainConfig, train
from repro.runtime.rng import _sample_rows

from oracle import OracleMADE, OracleStepper, Tensor, holder


def make_model(vocab_sizes, context_dim=0, seed=0, hidden=(32, 32)):
    return ResidualMADE(
        vocab_sizes, embed_dim=4, hidden=hidden,
        rng=np.random.default_rng(seed), context_dim=context_dim,
    )


def fit(model, data, config):
    """Train ``model`` on the code matrix ``data`` through the oracle."""
    stepper = OracleStepper(holder(made=model), data, {}, config)
    return train(stepper, len(data), config)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_model([])

    def test_rejects_zero_vocab(self):
        with pytest.raises(ValueError):
            make_model([3, 0])

    def test_rejects_unequal_hidden(self):
        with pytest.raises(ValueError):
            ResidualMADE([2, 2], 4, hidden=(16, 32), rng=np.random.default_rng(0))

    def test_output_width(self):
        model = OracleMADE(make_model([3, 5, 2]))
        out = model.forward(np.zeros((4, 3), dtype=int))
        assert out.shape == (4, 10)

    def test_bad_input_shape(self):
        model = OracleMADE(make_model([3, 5]))
        with pytest.raises(ValueError):
            model.forward(np.zeros((4, 3), dtype=int))

    def test_context_required_when_configured(self):
        model = OracleMADE(make_model([3, 3], context_dim=2))
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 2), dtype=int))


class TestAutoregressiveProperty:
    def test_outputs_ignore_later_inputs(self):
        made = make_model([4, 4, 4], seed=1)
        model = OracleMADE(made)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, size=(8, 3))
        base = model.forward(x).numpy()
        for var in range(3):
            perturbed = np.array(x, copy=True)
            perturbed[:, var] = (perturbed[:, var] + 1) % 4
            out = model.forward(perturbed).numpy()
            # Logits of variables <= var must be identical.
            stop = int(made._logit_offsets[var + 1])
            np.testing.assert_allclose(out[:, :stop], base[:, :stop], atol=1e-12)

    def test_outputs_depend_on_earlier_inputs(self):
        model = OracleMADE(make_model([4, 4], seed=2))
        x = np.zeros((4, 2), dtype=int)
        base = model.conditional_probs(x, variable=1)
        shifted = np.array(x)
        shifted[:, 0] = 1
        changed = model.conditional_probs(shifted, variable=1)
        assert not np.allclose(base, changed)

    def test_context_reaches_all_outputs(self):
        model = OracleMADE(make_model([3, 3], context_dim=4, seed=3))
        x = np.zeros((2, 2), dtype=int)
        ctx0 = Tensor(np.zeros((2, 4)))
        ctx1 = Tensor(np.ones((2, 4)))
        out0 = model.forward(x, ctx0).numpy()
        out1 = model.forward(x, ctx1).numpy()
        # Even the first variable's logits must shift with context.
        assert not np.allclose(out0[:, :3], out1[:, :3])


class TestLikelihoodTraining:
    def test_nll_decreases(self):
        rng = np.random.default_rng(0)
        # x1 uniform over 3 values; x2 = x1 deterministically.
        x1 = rng.integers(0, 3, size=600)
        data = np.stack([x1, x1], axis=1)
        made = make_model([3, 3], seed=4)
        model = OracleMADE(made)
        initial = model.per_example_nll(data).mean()
        result = fit(made, data, TrainConfig(epochs=15, batch_size=128, lr=5e-3, seed=0))
        final = model.per_example_nll(data).mean()
        assert final < initial
        assert result.best_val_loss < initial

    def test_learns_deterministic_conditional(self):
        rng = np.random.default_rng(1)
        x1 = rng.integers(0, 3, size=800)
        data = np.stack([x1, (x1 + 1) % 3], axis=1)
        made = make_model([3, 3], seed=5)
        fit(made, data, TrainConfig(epochs=25, batch_size=128, lr=1e-2, seed=0, patience=10))
        model = OracleMADE(made)
        probe = np.stack([np.arange(3), np.zeros(3, dtype=int)], axis=1)
        probs = model.conditional_probs(probe, variable=1)
        predicted = probs.argmax(axis=1)
        np.testing.assert_array_equal(predicted, (np.arange(3) + 1) % 3)
        assert probs.max(axis=1).min() > 0.8

    def test_nll_variable_subset(self):
        model = OracleMADE(make_model([3, 3], seed=6))
        data = np.zeros((16, 2), dtype=int)
        full = model.nll(data).item()
        only_second = model.nll(data, variables=[1]).item()
        assert only_second <= full + 1e-9

    def test_nll_empty_subset_raises(self):
        model = OracleMADE(make_model([3, 3]))
        with pytest.raises(ValueError):
            model.nll(np.zeros((4, 2), dtype=int), variables=[])


class TestSampling:
    def test_sample_preserves_evidence(self):
        model = OracleMADE(make_model([5, 5, 5], seed=7))
        evidence = np.zeros((10, 3), dtype=int)
        evidence[:, 0] = np.arange(10) % 5
        out = model.sample(evidence, start_variable=1, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out[:, 0], evidence[:, 0])
        assert out[:, 1:].min() >= 0 and out[:, 1:].max() < 5

    def test_sample_start_bounds(self):
        model = OracleMADE(make_model([3, 3]))
        with pytest.raises(ValueError):
            model.sample(np.zeros((1, 2), dtype=int), start_variable=5,
                         rng=np.random.default_rng(0))

    def test_sampling_matches_learned_conditional(self):
        rng = np.random.default_rng(2)
        x1 = rng.integers(0, 2, size=1000)
        data = np.stack([x1, x1], axis=1)
        made = make_model([2, 2], seed=8)
        fit(made, data, TrainConfig(epochs=20, batch_size=256, lr=1e-2, seed=0, patience=10))
        model = OracleMADE(made)
        evidence = np.zeros((400, 2), dtype=int)
        evidence[:200, 0] = 1
        samples = model.sample(evidence, 1, rng=np.random.default_rng(3))
        agree = (samples[:, 1] == samples[:, 0]).mean()
        assert agree > 0.9

    def test_deterministic_given_rng(self):
        model = OracleMADE(make_model([4, 4], seed=9))
        ev = np.zeros((6, 2), dtype=int)
        a = model.sample(ev, 1, rng=np.random.default_rng(42))
        b = model.sample(ev, 1, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_temperature_zero_like_behaviour(self):
        model = OracleMADE(make_model([4, 4], seed=10))
        ev = np.zeros((50, 2), dtype=int)
        cold = model.sample(ev, 1, rng=np.random.default_rng(0), temperature=1e-4)
        # Near-zero temperature collapses to the argmax of the conditional.
        probs = model.conditional_probs(ev, 1)
        np.testing.assert_array_equal(cold[:, 1], probs.argmax(axis=1))


class TestSampleRows:
    def test_respects_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.tile(np.array([[0.8, 0.2]]), (5000, 1))
        draws = _sample_rows(probs, rng)
        assert abs(draws.mean() - 0.2) < 0.03

    def test_degenerate_distribution(self):
        probs = np.tile(np.array([[0.0, 1.0, 0.0]]), (10, 1))
        draws = _sample_rows(probs, np.random.default_rng(0))
        np.testing.assert_array_equal(draws, np.ones(10, dtype=int))


class TestStateDict:
    def test_roundtrip(self):
        model = make_model([3, 3], seed=11)
        state = model.state_dict()
        x = np.zeros((2, 2), dtype=int)
        before = OracleMADE(model).forward(x).numpy().copy()
        for _name, p in model.named_parameters():
            p.data += 1.0
        assert not np.allclose(OracleMADE(model).forward(x).numpy(), before)
        model.load_state_dict(state)
        np.testing.assert_allclose(OracleMADE(model).forward(x).numpy(), before)

    def test_names_are_stable_attribute_paths(self):
        """Two same-architecture builds produce identical parameter names —
        the identity that serialized artifacts key weights on."""
        a = make_model([3, 3], seed=11)
        b = make_model([3, 3], seed=99)
        names_a = [name for name, _p in a.named_parameters()]
        names_b = [name for name, _p in b.named_parameters()]
        assert names_a == names_b
        assert len(set(names_a)) == len(names_a)  # unique
        assert any(name.startswith("embeddings.0.") for name in names_a)

    def test_cross_instance_load_by_name(self):
        source = make_model([3, 3], seed=11)
        target = make_model([3, 3], seed=99)
        x = np.zeros((2, 2), dtype=int)
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(
            OracleMADE(target).forward(x).numpy(),
            OracleMADE(source).forward(x).numpy(),
        )

    def test_legacy_order_based_state_dict_still_loads(self):
        source = make_model([3, 3], seed=11)
        legacy = {
            f"param_{i}": np.array(p.data, copy=True)
            for i, (_name, p) in enumerate(source.named_parameters())
        }
        target = make_model([3, 3], seed=99)
        target.load_state_dict(legacy)
        x = np.zeros((2, 2), dtype=int)
        np.testing.assert_array_equal(
            OracleMADE(target).forward(x).numpy(),
            OracleMADE(source).forward(x).numpy(),
        )

    def test_mismatched_names_raise(self):
        model = make_model([3, 3], seed=11)
        state = model.state_dict()
        state["not_a_parameter"] = state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="not_a_parameter"):
            model.load_state_dict(state)

    def test_mismatched_shape_names_parameter(self):
        model = make_model([3, 3], seed=11)
        state = model.state_dict()
        first = next(iter(state))
        state[first] = np.zeros((1, 1))
        with pytest.raises(ValueError, match=first.split(".")[0]):
            model.load_state_dict(state)
