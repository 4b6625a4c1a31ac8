"""Tests for adjacency construction and the graph convolution layers.

The single-sentence builder and layers in ``reference`` are the oracle the
batched ones are compared against; the tests here check them too.
"""

import numpy as np
import pytest

import reference
from syntag import autodiff as ad
from syntag import gcn
from syntag.errors import DimensionError
from syntag.training import random_tree_heads


class TestAdjacency:
    def test_single_token(self):
        adj = reference.build_adjacency([0])
        np.testing.assert_array_equal(adj.a, [[1.0]])
        np.testing.assert_array_equal(adj.degrees, [1.0])

    def test_one_edge(self):
        adj = reference.build_adjacency([2, 0])
        np.testing.assert_array_equal(adj.a, [[1, 1], [1, 1]])

    def test_three_token_fan(self):
        adj = reference.build_adjacency([0, 1, 1])
        np.testing.assert_array_equal(adj.a, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        np.testing.assert_array_equal(adj.degrees, [3, 2, 2])
        # independent row-sum check
        np.testing.assert_array_equal(adj.a.sum(axis=1), adj.degrees)

    def test_symmetry_and_diagonal_random_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            # random parent pointers toward earlier tokens always form a tree
            heads = [0] + [int(rng.integers(0, i) + 1) for i in range(1, n)]
            adj = reference.build_adjacency(heads)
            np.testing.assert_array_equal(adj.a, adj.a.T)
            np.testing.assert_array_equal(np.diag(adj.a), 1.0)
            assert adj.degrees.min() >= 1

    def test_batch_matches_reference_bitwise(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            heads_list = [random_tree_heads(int(rng.integers(1, 12)), rng)
                          for _ in range(int(rng.integers(1, 5)))]
            n_max = max(map(len, heads_list)) + int(rng.integers(0, 3))
            want = np.zeros((len(heads_list), n_max, n_max))
            want[:] = np.eye(n_max)
            for b, heads in enumerate(heads_list):
                n = len(heads)
                want[b, :n, :n] = reference.build_adjacency(heads).normalized()
            got = gcn.batch_normalized_adjacency(heads_list, n_max)
            assert got.tobytes() == want.tobytes()

    def test_padded_batch_has_self_loops(self):
        stack = gcn.batch_normalized_adjacency([[0], [2, 0]], n_max=3)
        assert stack.shape == (2, 3, 3)
        np.testing.assert_array_equal(stack[0, 1], [0, 1, 0])
        np.testing.assert_array_equal(stack[0, 2], [0, 0, 1])
        np.testing.assert_allclose(stack.sum(axis=2), 1.0)


class TestGcnLayer:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(1)
        adj = reference.build_adjacency([0, 1, 1])
        w = ad.Tensor(np.zeros((4, 3)), requires_grad=True)
        b = ad.Tensor(np.zeros(3), requires_grad=True)
        out = reference.gcn_layer(ad.constant(rng.normal(size=(3, 4))), adj, w, b)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_single_node_identity_weight_is_relu(self):
        adj = reference.build_adjacency([0])
        w = ad.constant(np.eye(2))
        b = ad.constant(np.zeros(2))
        out = reference.gcn_layer(ad.constant([[-1.0, 2.0]]), adj, w, b)
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(2)
        heads = [0, 1, 1]
        adj = reference.build_adjacency(heads)
        g_prev = rng.uniform(-1, 1, (3, 4))
        w = rng.uniform(-1, 1, (4, 2))
        b = rng.uniform(-1, 1, 2)
        out = reference.gcn_layer(ad.constant(g_prev), adj,
                                  ad.constant(w), ad.constant(b)).data
        # scalar transcription: per node, average transformed neighbors
        for t in range(3):
            acc = np.zeros(2)
            for j in range(3):
                if adj.a[t, j]:
                    acc += g_prev[j] @ w
            ref = np.maximum(acc / adj.degrees[t] + b, 0.0)
            np.testing.assert_allclose(out[t], ref, atol=1e-12)

    def test_dimension_mismatch(self):
        adj = reference.build_adjacency([0])
        with pytest.raises(DimensionError):
            reference.gcn_layer(ad.constant(np.ones((1, 3))), adj,
                                ad.constant(np.ones((4, 2))),
                                ad.constant(np.zeros(2)))

    def test_self_only_reading_ignores_neighbors(self):
        rng = np.random.default_rng(3)
        adj = reference.build_adjacency([0, 1, 1])
        g_prev = ad.constant(rng.uniform(-1, 1, (3, 4)))
        w = ad.constant(rng.uniform(-1, 1, (4, 2)))
        b = ad.constant(rng.uniform(-1, 1, 2))
        out = reference.gcn_layer(g_prev, adj, w, b, self_only=True).data
        ref = np.maximum(g_prev.data @ w.data + b.data, 0.0)
        np.testing.assert_allclose(out, ref, atol=1e-14)


class TestEncodeProperties:
    def _params(self, rng, d_in, hidden, layers):
        p = gcn.GcnParams(d_in, hidden, layers, rng)
        # keep most activations alive so structural zeros are meaningful
        for b in p.biases:
            b.data[...] = 0.5
        return p

    def test_one_layer_encode_equals_layer_call(self):
        rng = np.random.default_rng(4)
        adj = reference.build_adjacency([0, 1])
        params = gcn.GcnParams(3, 2, 1, rng)
        g0 = ad.constant(rng.uniform(-1, 1, (2, 3)))
        enc = reference.encode(g0, adj, params).data
        lay = reference.gcn_layer(g0, adj, params.weights[0], params.biases[0]).data
        np.testing.assert_array_equal(enc, lay)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            heads = [0] + [int(rng.integers(0, i) + 1) for i in range(1, n)]
            adj = reference.build_adjacency(heads)
            params = self._params(rng, 4, 3, 2)
            g0 = rng.uniform(-1, 1, (n, 4))
            out = reference.encode(ad.constant(g0), adj, params).data
            perm = rng.permutation(n)
            adj_p = reference.AdjacencyMatrix(
                n=n, a=adj.a[np.ix_(perm, perm)],
                degrees=adj.degrees[perm])
            out_p = reference.encode(ad.constant(g0[perm]), adj_p, params).data
            assert np.max(np.abs(out_p - out[perm])) < 1e-12

    def test_receptive_field_on_chain(self):
        rng = np.random.default_rng(6)
        heads = [0, 1, 2]  # chain 1 - 2 - 3
        adj = reference.build_adjacency(heads)
        g0 = rng.uniform(-1, 1, (3, 4))
        bump = np.zeros((3, 4))
        bump[0, 1] = 0.25

        for layers, expect_reach in ((1, False), (2, True)):
            params = self._params(rng, 4, 3, layers)
            base = reference.encode(ad.constant(g0), adj, params).data
            moved = reference.encode(ad.constant(g0 + bump), adj, params).data
            delta_far = np.abs(moved[2] - base[2]).max()
            if expect_reach:
                assert delta_far > 1e-6
            else:
                assert delta_far == 0.0

    def test_degree_normalization_exactness(self):
        adj = reference.build_adjacency([0, 1, 1, 2])
        n = 4
        w = ad.constant(np.eye(n))
        b = ad.constant(np.zeros(n))
        ones = ad.constant(np.ones((n, n)))
        # identity weights on all-ones input: aggregation averages ones
        out = reference.gcn_layer(ones, adj, w, b).data
        np.testing.assert_array_equal(out, 1.0)

    def test_batch_encode_matches_single(self):
        rng = np.random.default_rng(7)
        params = self._params(rng, 4, 3, 2)
        heads_list = [[0, 1], [0, 1, 1, 2]]
        n_max = 4
        g0s = [rng.uniform(-1, 1, (len(h), 4)) for h in heads_list]
        flat = np.zeros((2 * n_max, 4))
        flat[:2] = g0s[0]
        flat[n_max: n_max + 4] = g0s[1]
        adj3 = gcn.batch_normalized_adjacency(heads_list, n_max)
        out = gcn.encode_batch(ad.constant(flat), adj3, params).data
        for b, heads in enumerate(heads_list):
            single = reference.encode(ad.constant(g0s[b]),
                                      reference.build_adjacency(heads),
                                      params).data
            np.testing.assert_allclose(
                out[b * n_max: b * n_max + len(heads)], single, atol=1e-12)

    def test_gradients_flow_through_encode(self):
        from syntag.gradcheck import check_gradients
        rng = np.random.default_rng(8)
        adj = reference.build_adjacency([0, 1, 1])
        params = gcn.GcnParams(3, 2, 2, rng)
        g0 = ad.constant(rng.uniform(-1, 1, (3, 3)))

        def loss():
            return reference.total(reference.encode(g0, adj, params))

        report = check_gradients(loss, params.parameters(), step=1e-6, floor=1e-3)
        assert report.max_rel_err < 1e-6, report.per_param
