"""Single-sentence references for the batched GCN and CRF paths, and a
scheme-specific span decoder.

The package only runs padded batches. These one-sentence versions build the
adjacency with an explicit loop and run one layer at a time, so the tests
can hold ``gcn.encode_batch`` and ``gcn.batch_normalized_adjacency`` against
a second construction, and read the CRF's batched scores through a plain
(lattice, transitions, labels) call.

``decode_spans_lenient`` scans BIO and BIOES with a separate hand-written
rule for each scheme, so the tests can hold ``data.decode_label_spans``,
which reads the shared ``data.tag_may_follow`` grammar, against it.
"""

from dataclasses import dataclass

import numpy as np

from syntag import crf
from syntag.autodiff import constant, matmul, relu, reshape
from syntag.errors import DimensionError


@dataclass
class AdjacencyMatrix:
    n: int
    a: np.ndarray
    degrees: np.ndarray

    def normalized(self):
        return self.a / self.degrees[:, None]


def build_adjacency(heads):
    """Symmetric 0/1 adjacency with self-loops from a validated head list."""
    n = len(heads)
    a = np.eye(n)
    for i, h in enumerate(heads):
        if h != 0:
            a[i, h - 1] = 1.0
            a[h - 1, i] = 1.0
    return AdjacencyMatrix(n=n, a=a, degrees=a.sum(axis=1))


def gcn_layer(g_prev, adj, w, b, self_only=False):
    """One layer over a single sentence: (n, D) -> (n, H)."""
    if g_prev.data.shape[1] != w.data.shape[0]:
        raise DimensionError(
            f"gcn_layer: input dim {g_prev.data.shape} does not match "
            f"weight {w.data.shape}"
        )
    msg = matmul(g_prev, w)
    if self_only:
        return relu(msg + b)
    agg = matmul(constant(adj.normalized()), msg)
    return relu(agg + b)


def encode(g0, adj, params, self_only=False):
    """Full L-layer encoding of one sentence."""
    g = g0
    for w, b in zip(params.weights, params.biases):
        g = gcn_layer(g, adj, w, b, self_only=self_only)
    return g


def score_sequence(lattice, trans, y):
    """Score of one label sequence on a single-sentence lattice."""
    return reshape(
        crf.score_batch(lattice.emissions, [lattice.n], trans, [y]), ())


def log_partition(lattice, trans):
    return reshape(
        crf.log_partition_batch(lattice.emissions, [lattice.n], trans), ())


def nll(lattice, trans, gold):
    """Negative log likelihood of the gold sequence; non-negative."""
    return crf.nll_batch(lattice.emissions, [lattice.n], trans, [gold])


def decode_spans_lenient(labels, scheme):
    """(start, end, type) spans of arbitrary tags, dropping broken chunks.

    bio: a span is a B followed by every I of its type. bioes: an S alone,
    or a B, the I's of its type and an E of its type; a B without that E
    is dropped and the scan resumes after it. Malformed tags are skipped.
    """
    spans = []
    n = len(labels)
    i = 0
    while i < n:
        tag = labels[i]
        if not (len(tag) > 2 and tag[1] == "-" and tag[0] in "BIES"):
            i += 1
            continue
        kind, etype = tag[0], tag[2:]
        if scheme == "bio":
            if kind == "B":
                j = i + 1
                while j < n and labels[j] == f"I-{etype}":
                    j += 1
                spans.append((i, j - 1, etype))
                i = j
            else:
                i += 1
        elif kind == "S":
            spans.append((i, i, etype))
            i += 1
        elif kind == "B":
            j = i + 1
            while j < n and labels[j] == f"I-{etype}":
                j += 1
            if j < n and labels[j] == f"E-{etype}":
                spans.append((i, j, etype))
                i = j + 1
            else:
                i += 1
        else:
            i += 1
    return spans
