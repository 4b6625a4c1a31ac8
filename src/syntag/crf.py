"""Linear-chain CRF scoring, partition function and decoding.

The transition matrix is (L+2) x (L+2) over the L real labels plus virtual
START (id L) and STOP (id L+1). A sequence y of length n is scored as

    T[START, y_0] + sum_t T[y_t, y_{t+1}] + T[y_{n-1}, STOP] + sum_t E[t, y_t]

The learnable matrix is finite everywhere; structural impossibilities
(entering START, leaving STOP, optional scheme constraints) live in a
constant additive mask of 0 / -inf entries, so SGD and L2 never touch an
infinity. Viterbi runs in log space, log Z in scaled probability space;
in both a -inf score is an absent path: it has weight 0 in the forward
algorithm and gets an exact zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, constant, matmul, record
from .data import tag_may_follow
from .errors import ContractError, DimensionError
from .initializers import glorot, zeros


@dataclass
class TagLattice:
    n: int
    emissions: Tensor

    def __post_init__(self):
        if self.emissions.data.ndim != 2 or self.emissions.data.shape[0] != self.n:
            raise DimensionError(
                f"lattice emissions shape {self.emissions.data.shape} "
                f"does not match n={self.n}"
            )


class CrfParams:
    """Transitions plus the emission projection from the encoder output."""

    def __init__(self, num_labels, hidden_dim, rng, bioes_labels=None):
        if num_labels < 1:
            raise ContractError("need at least one label")
        self.num_labels = num_labels
        self.start = num_labels
        self.stop = num_labels + 1
        full = num_labels + 2
        self.transitions = glorot(rng, full, full)
        self.emit_w = glorot(rng, hidden_dim, num_labels)
        self.emit_b = zeros(num_labels)
        mask = np.zeros((full, full))
        mask[:, self.start] = -np.inf
        mask[self.stop, :] = -np.inf
        if bioes_labels is not None:  # label names: mask what BIOES forbids
            mask = np.minimum(mask, scheme_constraint_mask(bioes_labels))
        self.structural_mask = mask

    def effective_transitions(self):
        """Learnable transitions plus the structural -inf mask."""
        return self.transitions + constant(self.structural_mask)

    def parameters(self):
        return {
            "transitions": self.transitions,
            "emit_w": self.emit_w,
            "emit_b": self.emit_b,
        }


def scheme_constraint_mask(label_names):
    """-inf mask for the label bigrams ``data.tag_may_follow`` forbids in BIOES."""
    L = len(label_names)
    full = L + 2
    mask = np.zeros((full, full))
    for i, a in enumerate(label_names):
        for j, b in enumerate(label_names):
            if not tag_may_follow(a, b, "bioes"):
                mask[i, j] = -np.inf
        if not tag_may_follow(None, a, "bioes"):
            mask[L, i] = -np.inf  # START -> a
        if not tag_may_follow(a, None, "bioes"):
            mask[i, L + 1] = -np.inf  # a -> STOP
    return mask


def emissions_from_hidden(h, crf):
    """Project encoder output rows to per-label scores: (N, 2H) -> (N, L)."""
    return matmul(h, crf.emit_w) + crf.emit_b


def _checked_lengths(lengths, shape):
    """``lengths`` as an array; DimensionError unless it is (B,) and each
    length is in [1, n_max], for emissions of shape (B, n_max, L)."""
    lengths = np.asarray(lengths)
    if lengths.shape != shape[:1] or not lengths.size or lengths.min() < 1 \
            or lengths.max() > shape[1]:
        raise DimensionError(
            f"lengths {lengths.tolist()} do not fit emissions {shape}")
    return lengths


def log_partition_batch(em, lengths, t):
    """Forward algorithm on (B, n_max, L) emissions: ((B,) log Z, adjoint).

    Scaled forward-backward (Rabiner 1989, section V) on exp(t - max finite
    t) and exp(em - each position's max), each step divided by its sum;
    padded steps are masked out at the end. ``adjoint(g)`` maps d/d log Z to
    g times the label marginals and the expected transition counts, START
    row and STOP column included. No allowed path gives log Z = -inf and
    zero gradients; so does a step whose weights all underflow float64,
    about 745 below the largest transition net of emissions.
    """
    batch, n_max, L = em.shape
    last = (np.arange(batch), np.asarray(lengths) - 1)
    live = np.arange(n_max) <= last[1][:, None]
    m = np.max(t, where=np.isfinite(t), initial=-np.inf)
    w = np.exp(t - m)  # a -inf transition is an exact 0
    inner, stop = w[:L, :L], w[:L, L + 1]
    top = em.max(axis=2)
    p = np.exp(em - top[:, :, None])
    alpha, sums = np.empty_like(p), np.empty((batch, n_max))
    arrive, tiny = w[L, :L], np.finfo(float).tiny
    for s in range(n_max):  # alpha[:, s] is P(y_s | em[:, :s + 1])
        a = arrive * p[:, s]
        sums[:, s] = a.sum(axis=1, initial=tiny)  # never 0, even with no path
        alpha[:, s] = a / sums[:, s, None]
        arrive = alpha[:, s] @ inner
    stop_sum = alpha[last] @ stop
    with np.errstate(divide="ignore"):  # no allowed path: log 0
        log_z = (last[1] + 2) * m + np.log(stop_sum) + np.where(
            live, top + np.log(sums), 0.0).sum(axis=1)
    stop_sum[stop_sum == 0.0] = np.inf  # no allowed path: a zero backward
    p /= sums[:, :, None]  # each step's weights over its sum, for the backward

    def adjoint(g):
        beta = np.zeros((batch, n_max, L))  # g times the scaled backward
        beta[last] = (g / stop_sum)[:, None] * stop
        for s in range(n_max - 1, 0, -1):
            beta[:, s - 1] += (p[:, s] * beta[:, s]) @ inner.T
        d_em = alpha * beta
        d_trans = np.zeros((L + 2, L + 2))
        d_trans[L, :L] = d_em[:, 0].sum(axis=0)
        d_trans[:L, L + 1] = d_em[last].sum(axis=0)
        d_trans[:L, :L] = inner * (alpha[:, :-1].reshape(-1, L).T
                                   @ (p[:, 1:] * beta[:, 1:]).reshape(-1, L))
        return d_em, d_trans

    return log_z, adjoint


def nll_batch(emissions_flat, lengths, trans, gold_ids):
    """Mean negative log likelihood per sentence, as one tape node.

    emissions_flat is (B * n_max, L) with sentence-major rows; gold_ids is
    an integer (B, n_max) array whose entries beyond each length are
    ignored, and each of the B lengths lies in [1, n_max]. The loss is the
    mean of log Z minus the gold-path score. Its backward scales by g / B:
    the label marginals minus the gold one-hot for the emissions, the
    expected minus the gold transition counts for ``trans``.
    """
    gold_ids = np.asarray(gold_ids)
    flat = emissions_flat.data
    if gold_ids.ndim != 2 or gold_ids.size * flat.shape[1] != flat.size:
        raise DimensionError(
            f"gold ids shape {gold_ids.shape} does not fit emissions {flat.shape}")
    em = flat.reshape(gold_ids.shape + flat.shape[1:])
    batch, n_max, L = em.shape
    lengths = _checked_lengths(lengths, em.shape)
    live = np.arange(n_max) < lengths[:, None]
    bad = np.flatnonzero((live & ((gold_ids < 0) | (gold_ids >= L))).any(axis=1))
    if bad.size:
        raise ContractError(f"label id out of range in sentence {bad[0]}")
    log_z, adjoint = log_partition_batch(em, lengths, trans.data)
    # The gold path in sentence-major order: y_s at each live position, and
    # the bigrams of START, y_0 .. y_{n-1}, STOP .. STOP that leave no STOP.
    em_at = np.nonzero(live) + (gold_ids[live],)
    path = np.full((batch, n_max + 2), L + 1)
    path[:, 0] = L
    path[:, 1:-1][live] = gold_ids[live]
    pairs = path[:, :-1] != L + 1
    tr_at = (path[:, :-1][pairs], path[:, 1:][pairs])
    gold = em[em_at].sum() + trans.data[tr_at].sum()
    loss = (log_z.sum() - gold) * (1.0 / batch)

    def bk(g):
        scale = g * (1.0 / batch)
        d_em, d_trans = adjoint(np.full(batch, scale))
        d_em[em_at] -= scale
        np.add.at(d_trans, tr_at, -scale)  # repeated bigrams add up
        return d_em.reshape(batch * n_max, L), d_trans

    return record(Tensor(loss), (emissions_flat, trans), bk)


def viterbi_batch(em, lengths, trans):
    """Max-score sequences of a padded batch: (id list per sentence, scores).

    em is (B, n_max, L); positions at or beyond a sentence's length are
    ignored. Ties are broken toward the lexicographically smallest label-id
    sequence: suffix-best scores are computed right to left, then labels are
    chosen greedily left to right taking the smallest id that attains the
    stepwise maximum. A sentence's path and score do not depend on the
    others in its batch.
    """
    em = np.asarray(em)
    t = trans.data if isinstance(trans, Tensor) else np.asarray(trans)
    lengths = _checked_lengths(lengths, em.shape)
    batch, n_max, L = em.shape
    inner = t[:L, :L]
    stop_col = t[:L, L + 1]
    beta = np.empty((batch, n_max, L))
    beta[:, n_max - 1] = stop_col
    for s in range(n_max - 2, -1, -1):
        new = np.max(inner + em[:, s + 1, None] + beta[:, s + 1, None], axis=2)
        beta[:, s] = np.where((s < lengths - 1)[:, None], new, stop_col)
    ar = np.arange(batch)
    path = np.zeros((batch, n_max), dtype=np.intp)
    prefix = np.zeros(batch)
    prev = np.full(batch, L)  # START: row L of t is the first arrival
    for s in range(n_max):
        arrival = t[prev, :L]
        v = prefix[:, None] + arrival + em[:, s] + beta[:, s]
        j = np.argmax(v == v.max(axis=1, keepdims=True), axis=1)
        path[:, s] = j
        live = s < lengths
        prefix = np.where(live, prefix + arrival[ar, j] + em[ar, s, j], prefix)
        prev = np.where(live, j, prev)
    paths = [path[b, :n].tolist() for b, n in enumerate(lengths)]
    return paths, prefix + stop_col[prev]


def viterbi(lattice, trans):
    """``viterbi_batch`` on one sentence: (label ids, score)."""
    paths, scores = viterbi_batch(lattice.emissions.data[None], [lattice.n], trans)
    return paths[0], float(scores[0])


__all__ = [
    "TagLattice",
    "CrfParams",
    "scheme_constraint_mask",
    "emissions_from_hidden",
    "log_partition_batch",
    "nll_batch",
    "viterbi",
    "viterbi_batch",
]
