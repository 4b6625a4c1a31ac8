"""Finite-difference gradient checking.

The core utility perturbs every parameter element with a central difference
and compares against the analytic gradient from one backward pass. On top of
that sits a model-level suite that builds small random tagging instances for
each model variant and checks the full loss end to end. Both run with
fixed settings, so the tests and ``syntag gradcheck`` check the same thing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward, clear_grads
from .data import Sentence, build_vocab
from .model import ModelConfig, SequenceTagger
from .training import random_tree_heads

__all__ = [
    "relative_errors",
    "check_gradients",
    "GradCheckReport",
    "random_instances",
    "check_model_variant",
]


def relative_errors(analytic, numeric, floor):
    """Elementwise |a - n| / max(|a|, |n|, floor).

    ``floor`` keeps finite-difference noise on near-zero gradients from
    registering as a large relative error. Pick it well below the gradient
    magnitudes the check is supposed to protect.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


@dataclass
class GradCheckReport:
    """Worst relative error per parameter, plus the overall maximum."""

    per_param: dict = field(default_factory=dict)
    max_rel_err: float = 0.0
    seconds: float = 0.0

    def worst_param(self):
        if not self.per_param:
            return None
        return max(self.per_param, key=self.per_param.get)


STEP, FLOOR = 1e-5, 1e-3


def check_gradients(loss_fn, params):
    """Compare analytic gradients of ``loss_fn`` against central differences.

    loss_fn: () -> Tensor scalar. It must be deterministic and must read the
        current values of ``params`` each call (they are perturbed in place).
    params: dict name -> Tensor with requires_grad=True.

    Returns a GradCheckReport. The analytic pass runs once; the numeric pass
    runs 2 * total_parameter_count forward evaluations with no tape active,
    each a step of ``STEP``; a gradient smaller than ``FLOOR`` is compared
    by its absolute error.
    """
    t0 = time.time()
    clear_grads(params)
    with Tape():
        loss = loss_fn()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.ravel()
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            up = loss_fn().item()
            flat[i] = orig - STEP
            down = loss_fn().item()
            flat[i] = orig
            numeric[i] = (up - down) / (2.0 * STEP)
        err = relative_errors(analytic[name].ravel(), numeric, FLOOR)
        report.per_param[name] = float(err.max()) if err.size else 0.0
    report.max_rel_err = max(report.per_param.values()) if report.per_param else 0.0
    report.seconds = time.time() - t0
    clear_grads(params)
    return report


def random_instances(count, length, num_labels, seed):
    """Build small random annotated sentences for model-level checks.

    Tokens (12 words), POS tags and deprels are drawn from tiny closed
    inventories; heads form a random rooted tree; labels are sampled from a
    BIOES inventory with ``num_labels`` types (single-token spans only,
    which is always valid). ``length`` is one length or one per sentence.
    """
    rng = np.random.default_rng(seed)
    words = [f"w{w}" for w in range(12)]
    pos_tags = ["NN", "VB", "JJ"]
    rels = ["nsubj", "obj", "nmod"]
    types = [f"T{k}" for k in range(max(1, num_labels))]
    sentences = []
    for n in np.broadcast_to(length, count).tolist():
        toks = [words[rng.integers(len(words))] for _ in range(n)]
        pos = [pos_tags[rng.integers(len(pos_tags))] for _ in range(n)]
        dep = [rels[rng.integers(len(rels))] for _ in range(n)]
        heads = random_tree_heads(n, rng)
        labels = []
        for _ in range(n):
            if rng.random() < 0.5:
                labels.append("O")
            else:
                labels.append("S-" + types[rng.integers(len(types))])
        sentences.append(Sentence(toks, pos, heads, dep, labels))
    return sentences


def check_model_variant(variant, seed=0):
    """Gradient-check the full training loss of one model variant.

    Builds five random sentences of 3, 1, 2, 3 and 1 tokens (a padded
    batch), a tiny model (hidden size 8, small embedding tables), and runs
    check_gradients on the mean negative log likelihood over the batch with
    dropout disabled.
    """
    lengths = [3, 1, 2, 3, 1]
    sentences = random_instances(len(lengths), lengths, num_labels=2, seed=seed)
    vocab = build_vocab(sentences, min_count=1)
    config = ModelConfig(
        variant=variant,
        hidden=8,
        gcn_layers=2,
        word_dim=5,
        char_dim=3,
        char_hidden=2,
        deprel_dim=3,
        pos_dim=3,
        dropout=0.0,
        seed=seed,
    )
    model = SequenceTagger(config, vocab, rng=np.random.default_rng(seed))

    def loss_fn():
        return model.loss_batch(sentences, train=False)

    return check_gradients(loss_fn, model.parameters())
