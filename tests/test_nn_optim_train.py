"""Tests for the Adam update, gradient clipping and the generic training loop.

The update and the clipping are the production array functions
(``AdamArrays``, ``clip_grad_norm_arrays``), driven here through the test
oracle's tensor wrappers; the loop runs the production fused stepper.
"""

import numpy as np
import pytest

from repro.nn import ResidualMADE, TrainConfig, train
from repro.runtime import FusedTrainStepper

from oracle import Adam, Tensor, clip_grad_norm, holder


class TestAdam:
    def test_converges_on_quadratic(self):
        x = Tensor([3.0], requires_grad=True)
        opt = Adam([x], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            (x * x).backward()
            opt.step()
        assert abs(x.item()) < 1e-2

    def test_skips_gradless_params(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        opt = Adam([x, y], lr=0.1)
        opt.zero_grad()
        (x * x).backward()
        opt.step()
        assert y.item() == 1.0
        assert x.item() != 1.0

    def test_weight_decay_shrinks(self):
        x = Tensor([1.0], requires_grad=True)
        opt = Adam([x], lr=0.01, weight_decay=1.0)
        opt.zero_grad()
        # Zero loss gradient; only decay acts.
        (x * 0.0).backward()
        opt.step()
        assert x.item() < 1.0


class TestGradClip:
    def test_clips_large_norm(self):
        x = Tensor([1.0], requires_grad=True)
        x.grad = np.array([100.0])
        norm = clip_grad_norm([x], max_norm=1.0)
        assert norm == pytest.approx(100.0)
        np.testing.assert_allclose(x.grad, [1.0])

    def test_leaves_small_norm(self):
        x = Tensor([1.0], requires_grad=True)
        x.grad = np.array([0.5])
        clip_grad_norm([x], max_norm=1.0)
        np.testing.assert_allclose(x.grad, [0.5])


class TestTrainLoop:
    def _problem(self, seed=0):
        """x2 = (x1 >= 2) with 10% label noise, learned by a small MADE."""
        rng = np.random.default_rng(seed)
        x1 = rng.integers(0, 4, size=300)
        x2 = np.where(rng.random(300) < 0.1, 1 - (x1 >= 2), x1 >= 2)
        data = np.stack([x1, x2.astype(np.int64)], axis=1)
        made = ResidualMADE([4, 2], embed_dim=4, hidden=(16, 16),
                            rng=np.random.default_rng(seed + 1))
        return data, made

    def _train(self, data, made, config):
        stepper = FusedTrainStepper(holder(made=made), data, {}, config)
        return stepper, train(stepper, len(data), config)

    def test_loss_decreases(self):
        data, made = self._problem()
        _stepper, result = self._train(
            data, made, TrainConfig(epochs=10, batch_size=64, lr=1e-2, seed=0)
        )
        assert result.train_losses[-1] < result.train_losses[0]
        assert result.epochs_run >= 3

    def test_early_stopping_restores_best(self):
        data, made = self._problem(seed=1)
        stepper, result = self._train(
            data, made, TrainConfig(epochs=40, batch_size=64, lr=5e-2, seed=0,
                                    patience=2)
        )
        # Final model must score (close to) the best recorded val loss.
        rng = np.random.default_rng(0)
        order = rng.permutation(len(data))
        val_idx = order[:max(1, int(len(data) * 0.1))]
        np.testing.assert_allclose(
            stepper.evaluate(val_idx), result.best_val_loss, atol=1e-9
        )

    def test_needs_two_examples(self):
        data, made = self._problem()
        stepper = FusedTrainStepper(holder(made=made), data, {}, TrainConfig())
        with pytest.raises(ValueError):
            train(stepper, 1)

    def test_deterministic_given_seed(self):
        res = []
        for _ in range(2):
            data, made = self._problem(seed=7)
            _stepper, r = self._train(
                data, made, TrainConfig(epochs=3, batch_size=64, seed=11)
            )
            res.append(r.train_losses)
        np.testing.assert_allclose(res[0], res[1])

    def test_records_wall_time(self):
        data, made = self._problem(seed=2)
        _stepper, result = self._train(
            data, made, TrainConfig(epochs=2, batch_size=128)
        )
        assert result.wall_time_s > 0
