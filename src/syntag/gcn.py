"""Graph convolution over dependency trees.

The tree is viewed as an undirected graph with self-loops: the adjacency has
a 1 for each head-dependent pair in both directions and on the diagonal.
A layer aggregates transformed neighbor features, normalizes by the degree
(neighbor count including self) and applies ReLU:

    out_t = relu( sum_j a[t, j] * (g_prev[j] @ w) / degree_t + b )

A config switch (`self_only`) changes the feature term to use only the
node's own row, in which case the neighbor sum collapses and the layer is
relu(g_prev @ w + b) exactly; the default is the aggregation above.
"""

from __future__ import annotations

import numpy as np

from .autodiff import bmm_const, matmul, relu
from .errors import DimensionError
from .initializers import glorot, zeros


def batch_normalized_adjacency(heads_list, n_max):
    """Stack row-normalized adjacencies padded to n_max: (B, n_max, n_max).

    Every row starts with its self-loop, each head-dependent pair adds a 1
    in both directions, and rows are divided by their degree. Padded
    positions keep a bare self-loop, so their degree is 1; their output
    rows are never consumed downstream.
    """
    a = np.tile(np.eye(n_max), (len(heads_list), 1, 1))
    for b, heads in enumerate(heads_list):
        dep = np.flatnonzero(heads)
        head = np.asarray(heads)[dep] - 1
        a[b, dep, head] = a[b, head, dep] = 1.0
    a /= a.sum(axis=2, keepdims=True)
    return a


class GcnParams:
    """Per-layer weight and bias; the first layer maps input_dim -> hidden."""

    def __init__(self, input_dim, hidden, layers, rng):
        if layers < 1:
            raise DimensionError(f"need at least one layer, got {layers}")
        self.weights = []
        self.biases = []
        for l in range(layers):
            d_in = input_dim if l == 0 else hidden
            self.weights.append(glorot(rng, d_in, hidden))
            self.biases.append(zeros(hidden))

    def parameters(self):
        out = {}
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{l}.w"] = w
            out[f"{l}.b"] = b
        return out


def encode_batch(g0_flat, adj_norm, params, self_only=False):
    """L layers over a padded batch.

    g0_flat is (B * n_max, D); adj_norm is the (B, n_max, n_max) stack from
    batch_normalized_adjacency. Returns (B * n_max, H).
    """
    g = g0_flat
    for w, b in zip(params.weights, params.biases):
        msg = matmul(g, w)
        if not self_only:
            msg = bmm_const(adj_norm, msg)
        g = relu(msg + b)
    return g
