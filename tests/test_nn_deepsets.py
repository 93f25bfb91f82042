"""Tests for the deep-sets evidence tree encoder (SSAR substrate).

The encoder's parameters are driven through the float64 test oracle, which
reads them by name.
"""

import numpy as np
import pytest

from repro.nn import EvidenceTreeEncoder, TreeNodeBatch, TreeNodeSpec

from oracle import OracleTreeEncoder, parameters


def flat_spec(name="children", vocabs=(4,)):
    return TreeNodeSpec(name=name, vocab_sizes=list(vocabs))


def make_encoder(specs, seed=0, embed_dim=4, node_dim=6):
    return EvidenceTreeEncoder(specs, embed_dim=embed_dim, node_dim=node_dim,
                               rng=np.random.default_rng(seed))


class TestTreeNodeBatch:
    def test_validates_alignment(self):
        with pytest.raises(ValueError):
            TreeNodeBatch(values=np.zeros((3, 2)), parent_ids=np.zeros(2, dtype=int))

    def test_validates_rank(self):
        with pytest.raises(ValueError):
            TreeNodeBatch(values=np.zeros(3), parent_ids=np.zeros(3, dtype=int))

    def test_spec_all_names(self):
        spec = TreeNodeSpec("a", [2], children=[TreeNodeSpec("b", [3])])
        assert spec.all_names() == ["a", "b"]


class TestEncoderBasics:
    def test_output_shape(self):
        enc = make_encoder([flat_spec()])
        batch = TreeNodeBatch(values=np.array([[0], [1], [2]]),
                              parent_ids=np.array([0, 0, 1]))
        out = OracleTreeEncoder(enc)({"children": batch}, batch_size=3)
        assert out.shape == (3, enc.context_dim)

    def test_missing_relation_treated_as_empty(self):
        enc = make_encoder([flat_spec()])
        out = OracleTreeEncoder(enc)({}, batch_size=2)
        assert out.shape == (2, enc.context_dim)
        # Both rows identical (the learned "no children" encoding).
        np.testing.assert_allclose(out.numpy()[0], out.numpy()[1])

    def test_empty_and_nonempty_differ(self):
        enc = make_encoder([flat_spec()])
        batch = TreeNodeBatch(values=np.array([[1], [2]]), parent_ids=np.array([0, 0]))
        out = OracleTreeEncoder(enc)({"children": batch}, batch_size=2).numpy()
        assert not np.allclose(out[0], out[1])

    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(ValueError):
            make_encoder([flat_spec("x"), flat_spec("x")])

    def test_no_specs_rejected(self):
        with pytest.raises(ValueError):
            make_encoder([])


class TestPermutationInvariance:
    def test_child_order_does_not_matter(self):
        enc = OracleTreeEncoder(make_encoder([flat_spec(vocabs=(5, 3))], seed=1))
        values = np.array([[0, 1], [2, 2], [4, 0]])
        parents = np.array([0, 0, 0])
        out1 = enc({"children": TreeNodeBatch(values, parents)}, 1).numpy()
        perm = np.array([2, 0, 1])
        out2 = enc({"children": TreeNodeBatch(values[perm], parents)}, 1).numpy()
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_multiset_sensitivity(self):
        # Duplicated children must change the encoding (sum, not mean/max).
        enc = OracleTreeEncoder(make_encoder([flat_spec()], seed=2))
        single = TreeNodeBatch(np.array([[1]]), np.array([0]))
        double = TreeNodeBatch(np.array([[1], [1]]), np.array([0, 0]))
        out1 = enc({"children": single}, 1).numpy()
        out2 = enc({"children": double}, 1).numpy()
        assert not np.allclose(out1, out2)


class TestRecursiveTrees:
    def nested_spec(self):
        return TreeNodeSpec("school", [3], children=[TreeNodeSpec("teacher", [4])])

    def test_grandchildren_affect_output(self):
        enc = OracleTreeEncoder(make_encoder([self.nested_spec()], seed=3))
        school = TreeNodeBatch(np.array([[1]]), np.array([0]))
        school_with_teacher = TreeNodeBatch(
            np.array([[1]]), np.array([0]),
            children={"teacher": TreeNodeBatch(np.array([[2]]), np.array([0]))},
        )
        out_plain = enc({"school": school}, 1).numpy()
        out_nested = enc({"school": school_with_teacher}, 1).numpy()
        assert not np.allclose(out_plain, out_nested)

    def test_grandchild_alignment(self):
        # Two schools; teacher attached to the second school only.
        enc = OracleTreeEncoder(make_encoder([self.nested_spec()], seed=4))
        teacher = TreeNodeBatch(np.array([[1]]), np.array([1]))
        schools = TreeNodeBatch(
            np.array([[0], [0]]), np.array([0, 1]),
            children={"teacher": teacher},
        )
        out = enc({"school": schools}, 2).numpy()
        assert not np.allclose(out[0], out[1])


class TestGradients:
    def test_all_parameters_receive_gradients(self):
        spec = TreeNodeSpec("school", [3], children=[TreeNodeSpec("teacher", [4])])
        enc = make_encoder([spec], seed=5)
        params = parameters(enc)
        batch = TreeNodeBatch(
            np.array([[1], [2]]), np.array([0, 1]),
            children={"teacher": TreeNodeBatch(np.array([[0], [3]]), np.array([0, 1]))},
        )
        out = OracleTreeEncoder(enc, params)({"school": batch}, 2)
        (out * out).sum().backward()
        grads = [p.grad for p in params.values()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_multiple_relations_concat(self):
        enc = make_encoder([flat_spec("a", (2,)), flat_spec("b", (2,))], seed=6)
        out = OracleTreeEncoder(enc)({}, batch_size=3)
        assert out.shape == (3, 2 * enc.node_dim)
