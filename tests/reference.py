"""References the tests hold the package against, and what each one checks.

The package runs packed or padded batches through fused kernels; these do
the same jobs one sentence or one step at a time, from loops and tape ops.

* ``build_adjacency``, ``gcn_layer``, ``encode``: the GCN over one sentence,
  one layer at a time from ``matmul``, ``+`` and ``relu`` tape ops; check
  ``gcn.batch_normalized_adjacency`` and the outputs and gradients of
  ``gcn.encode_batch``, one fused tape node over a padded batch.
* ``log_partition_batch``, ``log_partition``, ``nll``: the CRF forward
  algorithm as a tape op, and the loss, read through a plain (lattice,
  transitions, labels) call.
* ``log_space_partition``: the forward algorithm in log space, a
  log-sum-exp per step, with its adjoint from each step's softmax; checks
  the log Z and adjoint of ``crf.log_partition_batch``, which runs in
  scaled probability space.
* ``enumerate_scores``, ``score_sequence``, ``transition_counts``,
  ``brute_force``: every label sequence of a small lattice; logZ, scores,
  argmax, marginals and expected transition counts from it check the
  forward algorithm, the loss and its gradient, and ``viterbi_batch``.
* ``total``, ``sigmoid``, ``tanh``, ``relu``: tape ops on
  ``autodiff.record``, checked by finite differences; ``total`` makes the
  tests' scalar losses, ``sigmoid`` and ``tanh`` feed the cell below, and
  ``relu`` the GCN layers above.
* ``step``, ``zero_state``, ``LstmState``: one step of the graph-gated cell,
  or of the plain one when ``p.graph_dim`` is None, reading each gate's
  weight block through a column-slice op. A chain of steps checks the
  outputs, gates and gradients of ``recurrent.bidirectional``; a scalar
  transcription in ``test_recurrent.py`` checks ``step``.
* ``expand_cell_state``: c_t as a weighted sum of candidates, never running
  the recurrence for c; checks ``cell_states``, a chain of ``step``.
* ``decode_spans_lenient``: a hand-written rule per scheme; checks
  ``data.decode_label_spans``, which reads ``data.tag_may_follow``.
* ``config_text``: writes the ``key = value`` form that
  ``ModelConfig.from_file`` reads.
* ``validate_tree``: walks from every token to the root afresh; checks that
  ``data.validate_tree``, which walks each token once, raises the same
  errors.
* ``build_vocab``: counts words and numbers characters one token and one
  character at a time; checks the maps of ``data.build_vocab``, which
  counts in bulk and takes characters from the distinct forms.
"""

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from syntag import crf
from syntag import recurrent as rc
from syntag.autodiff import Tensor, constant, matmul, record, rows
from syntag.data import PAD, UNK
from syntag.errors import ContractError, DimensionError, TreeValidationError


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


def total(a):
    """The sum of every element of ``a`` as a scalar tape op."""
    shape = a.data.shape
    return record(Tensor(a.data.sum()), (a,), lambda g: (np.full(shape, g),))


def log_partition_batch(emissions_flat, lengths, trans):
    """(B,) logZ of a padded batch as a tape op over ``crf.log_partition_batch``.

    Its backward is that function's adjoint, the one ``nll_batch`` runs.
    """
    shape = emissions_flat.data.shape
    log_z, adjoint = crf.log_partition_batch(
        emissions_flat.data.reshape(len(lengths), -1, shape[1]), lengths,
        trans.data)

    def bk(g):
        d_em, d_trans = adjoint(g)
        return d_em.reshape(shape), d_trans

    return record(Tensor(log_z), (emissions_flat, trans), bk)


def _logsumexp(x):
    """Stable log-sum-exp over axis 1 and the softmax weights along it.

    -inf entries are absent terms; an all -inf slice gives -inf, weights 0.
    """
    m = np.max(x, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - m)
    s = np.sum(e, axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(s) + m
    return np.squeeze(out, axis=1), e / np.where(s > 0.0, s, 1.0)


def log_space_partition(em, lengths, t):
    """``crf.log_partition_batch`` in log space: ((B,) log Z, adjoint).

    alpha is carried unchanged past each sentence's length. ``adjoint(g)``
    walks the steps in reverse through each step's softmax over the
    previous label.
    """
    batch, n_max, L = em.shape
    live = np.arange(n_max) < np.asarray(lengths)[:, None]
    alpha = em[:, 0] + t[L, :L]
    weights = np.zeros((batch, n_max, L, L))  # P(y[s-1] = i | y[s] = j)
    for s in range(1, n_max):
        lse, weights[:, s] = _logsumexp(alpha[:, :, None] + t[:L, :L])
        alpha = np.where(live[:, s, None], lse + em[:, s], alpha)
    log_z, stop_weights = _logsumexp(alpha + t[:L, L + 1])

    def adjoint(g):
        d_trans = np.zeros((L + 2, L + 2))
        d_alpha = g[:, None] * stop_weights
        d_trans[:L, L + 1] = d_alpha.sum(axis=0)
        d_em = np.zeros((batch, n_max, L))
        for s in range(n_max - 1, 0, -1):
            d_em[:, s] = np.where(live[:, s, None], d_alpha, 0.0)
            d_alpha = np.where(live[:, s, None], 0.0, d_alpha) + np.matmul(
                weights[:, s], d_em[:, s, :, None])[:, :, 0]
        d_em[:, 0] = d_alpha
        d_trans[L, :L] = d_alpha.sum(axis=0)
        d_trans[:L, :L] = np.einsum("bsij,bsj->ij", weights, d_em)
        return d_em, d_trans

    return log_z, adjoint


def log_partition(lattice, trans):
    """logZ of one sentence as a scalar tensor."""
    return total(log_partition_batch(lattice.emissions, [lattice.n], trans))


def nll(lattice, trans, gold):
    """Negative log likelihood of the gold sequence; non-negative."""
    return crf.nll_batch(lattice.emissions, [lattice.n], trans, [gold])


def _arrays(lattice, trans):
    """The lattice's (n, L) emissions and the transitions as plain arrays."""
    t = trans.data if isinstance(trans, Tensor) else np.asarray(trans)
    return lattice.emissions.data, t


def enumerate_scores(lattice, trans, size_guard=10 ** 6):
    """(scores, seqs): every label sequence, in lexicographic order, and its score."""
    em, t = _arrays(lattice, trans)
    n, L = em.shape
    if L ** n > size_guard:
        raise ContractError(f"brute force refuses {L}^{n} sequences")
    seqs = np.array(list(itertools.product(range(L), repeat=n)), dtype=np.intp)
    scores = t[L, seqs[:, 0]] + em[0, seqs[:, 0]]
    for s in range(1, n):
        scores = scores + t[seqs[:, s - 1], seqs[:, s]] + em[s, seqs[:, s]]
    return scores + t[seqs[:, -1], L + 1], seqs


def score_sequence(lattice, trans, y):
    """Score of one label sequence, looked up in ``enumerate_scores``."""
    scores, _ = enumerate_scores(lattice, trans)
    n, L = lattice.emissions.data.shape
    return scores[np.ravel_multi_index(y, (L,) * n)]


def transition_counts(seq, L):
    """(L+2, L+2) counts of one sequence's bigrams, START and STOP included."""
    counts = np.zeros((L + 2, L + 2))
    np.add.at(counts, ([L, *seq], [*seq, L + 1]), 1.0)
    return counts


def brute_force(lattice, trans):
    """(logZ, lexicographically-first argmax, (n, L) marginals P(y_t = j))."""
    scores, seqs = enumerate_scores(lattice, trans)
    m = scores.max()
    w = np.exp(scores - m)
    L = lattice.emissions.data.shape[1]
    marginals = np.stack([np.bincount(labels, weights=w, minlength=L)
                          for labels in seqs.T]) / w.sum()
    best = [int(v) for v in seqs[np.argmax(scores)]]
    return float(np.log(w.sum()) + m), best, marginals


def sigmoid(a):
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out[~pos] = ex / (1.0 + ex)
    return record(Tensor(out), (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(a.data)
    return record(Tensor(out), (a,), lambda g: (g * (1.0 - out * out),))


def relu(a):
    """max(a, 0); its derivative at exactly 0 is 0. Keeps only a bool mask."""
    positive = a.data > 0.0
    return record(Tensor(np.maximum(a.data, 0.0)), (a,), lambda g: (g * positive,))


@dataclass
class LstmState:
    h: Tensor
    c: Tensor


def zero_state(batch, hidden):
    zeros = constant(np.zeros((batch, hidden)))
    return LstmState(zeros, zeros)


def _block(p, stream, gate):
    """One gate's block of a stacked tensor as a differentiable (rows, H) view."""
    t = p.stacked(stream)
    cols = p.columns(stream, gate)

    def bk(g):
        d = np.zeros_like(t.data)
        d[..., cols] = g
        return (d,)

    return record(Tensor(t.data[..., cols]), (t,), bk)


def _activations(p, x, g, h):
    """Each gate's activation and each candidate (c, s) for one step's rows."""
    streams = {"x": x, "h": h}
    if p.graph_dim is not None:
        streams["g"] = g
    out = {}
    for gate in p.gates:
        pre = sum((matmul(v, _block(p, stream, gate))
                   for stream, v in streams.items() if gate in p.feeds(stream)),
                  _block(p, "b", gate))
        out[gate] = tanh(pre) if gate in "cs" else sigmoid(pre)
    return out


def step(x, g, state, p, trace=None):
    """One cell step over a batch of rows; g is ignored by a plain cell.

    When ``trace`` is a dict, the gate activations (f, i, o, and m for the
    graph-gated cell) are stored into it as plain arrays.
    """
    rc._check_step_dims(x, p.input_dim, "token input")
    if p.graph_dim is not None:
        rc._check_step_dims(g, p.graph_dim, "graph input")
    a = _activations(p, x, g, state.h)
    c = a["f"] * state.c + a["i"] * a["c"]
    if "m" in a:
        c = c + a["m"] * a["s"]
    if trace is not None:
        trace.update({gate: a[gate].data.copy() for gate in rc.GATE_NAMES if gate in a})
    return LstmState(a["o"] * tanh(c), c)


def cell_states(x_seq, g_seq, params):
    """Each position's (H,) cell state from a chain of graph-gated ``step``s."""
    state, cells = zero_state(1, params.hidden), []
    for t in range(x_seq.data.shape[0]):
        state = step(rows(x_seq, np.array([t])), rows(g_seq, np.array([t])),
                     state, params)
        cells.append(state.c.data[0])
    return cells


def expand_cell_state(x_seq, g_seq, params, t, return_weights=False):
    """Cell state c_t of the graph-gated cell via the closed-form expansion.

    Every c_j is rebuilt from scratch as

        c_j = sum_k a_k_j * cand_c_k  +  sum_k q_k_j * cand_s_k

    where a_k_j = i_k * prod(f_{k+1} .. f_j) and q_k_j likewise from m_k.
    Hidden states between positions still come from h_j = o_j * tanh(c_j),
    with c_j taken from the expansion, so the recurrence for c is never
    used.

    x_seq and g_seq are single-sentence (n, D) tensors; returns c_t as an
    (H,) array. With return_weights=True, also returns the lists of weight
    tensors (each (1, H)) for boundedness checks.
    """
    n = x_seq.data.shape[0]
    if not 0 <= t < n:
        raise ContractError(f"position {t} outside sequence of length {n}")
    h = constant(np.zeros((1, params.hidden)))
    a_weights, q_weights = [], []
    c_cands, s_cands = [], []
    for j in range(t + 1):
        a = _activations(params, rows(x_seq, np.array([j])),
                         rows(g_seq, np.array([j])), h)
        c_cands.append(a["c"])
        s_cands.append(a["s"])
        a_weights = [w * a["f"] for w in a_weights] + [a["i"]]
        q_weights = [w * a["f"] for w in q_weights] + [a["m"]]
        terms = [w * v for w, v in zip(a_weights + q_weights, c_cands + s_cands)]
        c_j = sum(terms[1:], terms[0])
        h = a["o"] * tanh(c_j)
    c_t = c_j.data[0]
    if return_weights:
        return c_t, a_weights, q_weights
    return c_t


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


def config_text(config):
    """``config`` as the ``key = value`` lines that ``ModelConfig.from_file`` reads."""
    lines = []
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        if v is None or isinstance(v, bool):
            v = str(v).lower()  # none, true, false
        lines.append(f"{f.name} = {v}\n")
    return "".join(lines)


def validate_tree(heads, sentence_index=None):
    """``data.validate_tree`` with a fresh walk to the root from every token."""
    n = len(heads)
    where = f" in sentence {sentence_index}" if sentence_index is not None else ""
    roots = [i for i, h in enumerate(heads) if h == 0]
    for i, h in enumerate(heads):
        if not 0 <= h <= n:
            raise TreeValidationError(
                f"head {h} of token {i + 1} out of range 0..{n}{where}"
            )
        if h == i + 1:
            raise TreeValidationError(f"token {i + 1} is its own head{where}")
    if len(roots) != 1:
        raise TreeValidationError(
            f"expected exactly one root, found {len(roots)}{where}"
        )
    for start in range(n):
        seen = set()
        node = start
        while heads[node] != 0:
            if node in seen:
                raise TreeValidationError(
                    f"cycle through token {start + 1}{where}"
                )
            seen.add(node)
            node = heads[node] - 1


def build_vocab(corpus, min_count=1):
    """``data.build_vocab(corpus, min_count).to_dict()``, token by token."""
    counts = {}
    word_order = []
    chars = {PAD: 0, UNK: 1}
    pos_tags = {PAD: 0, UNK: 1}
    deprels = {PAD: 0, UNK: 1}
    labels = {}
    for s in corpus:
        for tok in s.tokens:
            if tok not in counts:
                counts[tok] = 0
                word_order.append(tok)
            counts[tok] += 1
            for ch in tok:
                chars.setdefault(ch, len(chars))
        for tag in s.pos_tags:
            pos_tags.setdefault(tag, len(pos_tags))
        for rel in s.deprels:
            deprels.setdefault(rel, len(deprels))
        for lab in s.labels:
            labels.setdefault(lab, len(labels))
    words = {PAD: 0, UNK: 1}
    for tok in word_order:
        if counts[tok] >= min_count:
            words.setdefault(tok, len(words))
    return {"words": words, "chars": chars, "pos_tags": pos_tags,
            "deprels": deprels, "labels": labels}
