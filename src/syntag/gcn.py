"""Graph convolution over dependency trees.

The tree is viewed as an undirected graph with self-loops: the adjacency has
a 1 for each head-dependent pair in both directions and on the diagonal.
A layer aggregates transformed neighbor features, normalizes by the degree
(neighbor count including self) and applies ReLU:

    out_t = relu( sum_j a[t, j] * (g_prev[j] @ w) / degree_t + b )

A config switch (`self_only`) changes the feature term to use only the
node's own row, in which case the neighbor sum collapses and the layer is
relu(g_prev @ w + b) exactly; the default is the aggregation above. A batch
is aggregated sentence by sentence, each with its own (n, n) block, on its
real rows only.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record, recording
from .errors import DimensionError
from .initializers import glorot, zeros


def batch_normalized_adjacency(heads_list, n_max):
    """Each sentence's row-normalized adjacency, and where its rows sit.

    Returns ``(real, blocks)``: ``real`` is a bool mask over the B * n_max
    rows of a padded batch, true at each sentence's real positions, and
    ``blocks[b]`` is sentence b's own (n, n) adjacency. Every row starts
    with its self-loop, each head-dependent pair adds a 1 in both
    directions, and rows are divided by their degree.
    """
    blocks = []
    for heads in heads_list:
        a = np.eye(len(heads))
        dep = np.flatnonzero(heads)
        head = np.asarray(heads)[dep] - 1
        a[dep, head] = a[head, dep] = 1.0
        blocks.append(a / a.sum(axis=1, keepdims=True))
    lengths = np.array([len(a) for a in blocks])
    return (np.arange(n_max) < lengths[:, None]).ravel(), blocks


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


def encode_batch(g0, adj, params, self_only=False):
    """L layers over a batch, recorded as one tape node.

    ``adj`` is ``(real, blocks)`` from batch_normalized_adjacency. g0 holds
    the real rows, sentence-major, or all B * n_max padded rows (other row
    counts raise DimensionError); the output, (rows, H), and g0's gradient
    come back in its layout, zero at padded rows. A layer is a weight GEMM
    over the real rows and a block product per sentence. The node's inputs
    are g0 and each layer's weight and bias. Its backward keeps each layer's
    input and a mask of its positive pre-activations; per layer in reverse
    it masks the gradient (so relu has derivative 0 at exactly 0), sums it
    into the bias, aggregates it back with the transposed blocks, and forms
    the weight's and the input's gradients.
    """
    real, blocks = adj
    ends = np.cumsum([len(a) for a in blocks]).tolist()
    shape = g0.data.shape
    if len(shape) != 2 or shape[0] not in (ends[-1], len(real)):
        raise DimensionError(f"gcn: g0 has shape {shape}, expected {ends[-1]} real "
                             f"rows or {len(real)} padded rows")
    padded = shape[0] != ends[-1]

    def aggregate(m, transpose):
        out = np.empty_like(m)
        for a, stop in zip(blocks, ends):
            at = slice(stop - len(a), stop)
            np.matmul(a.T if transpose else a, m[at], out=out[at])
        return out

    def layout(m):  # m's rows where g0's real rows are
        if not padded:
            return m
        full = np.zeros((shape[0], m.shape[1]))
        full[real] = m
        return full

    layers = list(zip(params.weights, params.biases))
    inputs = (g0, *(t for layer in layers for t in layer))
    tracked = recording(inputs)
    g, kept = g0.data[real] if padded else g0.data, []
    for w, b in layers:
        msg = g @ w.data
        if not self_only:
            msg = aggregate(msg, False)
        z = msg + b.data
        if tracked:
            kept.append((g, w.data, z > 0.0))
        g = np.maximum(z, 0.0)
    if not tracked:
        return Tensor(layout(g))

    def bk(grad):
        if padded:
            grad = grad[real]
        grads = []
        for g_in, w, positive in reversed(kept):
            d = grad * positive
            db = d.sum(axis=0)
            if not self_only:
                d = aggregate(d, True)
            grads[:0] = [g_in.T @ d, db]
            grad = d @ w.T
        return (layout(grad), *grads)

    return record(Tensor(layout(g)), inputs, bk)
