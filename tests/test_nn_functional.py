"""Tests for the oracle's differentiable ops (embedding, segment_sum, CE)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Tensor
from oracle import functional as F

from helpers import numeric_grad


class TestEmbedding:
    def test_forward_gather(self):
        w = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = F.embedding(w, np.array([2, 0]))
        np.testing.assert_allclose(out.numpy(), [[4.0, 5.0], [0.0, 1.0]])

    def test_grad_scatter_adds_duplicates(self):
        w = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = F.embedding(w, np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_allclose(w.grad, [[0, 0], [2, 2], [1, 1]])

    def test_2d_indices(self):
        w = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = F.embedding(w, np.array([[0, 1], [2, 0]]))
        assert out.shape == (2, 2, 2)
        out.sum().backward()
        np.testing.assert_allclose(w.grad, [[2, 2], [1, 1], [1, 1]])

    def test_finite_difference(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(4, 3))
        idx = np.array([0, 3, 3, 1])

        def loss(arr):
            return (F.embedding(Tensor(arr), idx) ** 2.0).sum()

        w = Tensor(np.array(w0, copy=True), requires_grad=True)
        (F.embedding(w, idx) ** 2.0).sum().backward()
        expected = numeric_grad(lambda a: loss(a).item(), np.array(w0, copy=True))
        np.testing.assert_allclose(w.grad, expected, atol=1e-5)


class TestSegmentSum:
    def test_forward(self):
        vals = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = F.segment_sum(vals, np.array([0, 0, 2]), num_segments=3)
        np.testing.assert_allclose(out.numpy(), [[3.0], [0.0], [3.0]])

    def test_empty_segments_are_zero(self):
        vals = Tensor(np.zeros((0, 4)))
        out = F.segment_sum(vals, np.zeros(0, dtype=int), num_segments=2)
        np.testing.assert_allclose(out.numpy(), np.zeros((2, 4)))

    def test_grad_routes_to_rows(self):
        vals = Tensor(np.ones((3, 2)), requires_grad=True)
        out = F.segment_sum(vals, np.array([1, 1, 0]), num_segments=2)
        (out * np.array([[1.0, 1.0], [5.0, 5.0]])).sum().backward()
        np.testing.assert_allclose(vals.grad, [[5, 5], [5, 5], [1, 1]])

    def test_misaligned_ids_raise(self):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.ones((3, 1))), np.array([0, 1]), 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 5))
    def test_total_mass_preserved(self, rows, segments):
        rng = np.random.default_rng(rows * 31 + segments)
        vals = rng.normal(size=(rows, 3))
        ids = rng.integers(0, segments, size=rows)
        out = F.segment_sum(Tensor(vals), ids, segments)
        np.testing.assert_allclose(out.numpy().sum(axis=0), vals.sum(axis=0), atol=1e-9)


class TestLogSoftmaxCrossEntropy:
    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 4))
        out = F.log_softmax(Tensor(logits))
        np.testing.assert_allclose(np.exp(out.numpy()).sum(axis=1), np.ones(5), atol=1e-9)

    def test_log_softmax_stability(self):
        out = F.log_softmax(Tensor(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(out.numpy(), [[np.log(0.5)] * 2], atol=1e-9)

    def test_log_softmax_grad(self):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(3, 4))

        def loss(arr):
            return (F.log_softmax(Tensor(arr)) * np.arange(12.0).reshape(3, 4)).sum()

        t = Tensor(np.array(x0, copy=True), requires_grad=True)
        (F.log_softmax(t) * np.arange(12.0).reshape(3, 4)).sum().backward()
        expected = numeric_grad(lambda a: loss(a).item(), np.array(x0, copy=True))
        np.testing.assert_allclose(t.grad, expected, atol=1e-5)

    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        targets = np.array([0, 0])
        loss = F.cross_entropy(Tensor(logits), targets)
        manual = -(np.log(np.exp(2) / (np.exp(2) + 1)) + np.log(1 / (1 + np.exp(2)))) / 2
        np.testing.assert_allclose(loss.item(), manual, atol=1e-9)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(4, 3))
        targets = np.array([0, 1, 2, 1])

        t = Tensor(np.array(x0, copy=True), requires_grad=True)
        F.cross_entropy(t, targets).backward()
        expected = numeric_grad(
            lambda a: F.cross_entropy(Tensor(a), targets).item(), np.array(x0, copy=True)
        )
        np.testing.assert_allclose(t.grad, expected, atol=1e-5)

    def test_weighted_cross_entropy(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        targets = np.array([0, 1])
        heavy_first = F.cross_entropy(Tensor(logits), targets, np.array([10.0, 0.1]))
        heavy_second = F.cross_entropy(Tensor(logits), targets, np.array([0.1, 10.0]))
        # class 0 has the larger logit, so weighting the correct row less
        # increases the loss.
        assert heavy_first.item() < heavy_second.item()

    def test_zero_weight_sum_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 1]), np.zeros(2))

    def test_nll_from_logits_matches_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, size=6)
        per_row = F.nll_from_logits(logits, targets)
        ce = F.cross_entropy(Tensor(logits), targets).item()
        np.testing.assert_allclose(per_row.mean(), ce, atol=1e-9)
