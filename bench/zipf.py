"""Seeded Zipf-vocabulary corpus generator for the benchmark.

The package's synthetic corpus has 19 word forms, which would flatter any
per-form cache, so the paper-shape workloads tag text drawn from a large
Zipf-distributed vocabulary instead:

- word forms are random letter strings; token ranks follow p(r) ~ r^-EXPONENT;
- sentence lengths are long-tailed (log-normal, capped). Each block of
  ``block`` consecutive sentences is a seeded permutation of the same length
  quantiles, so every seed yields the same length multiset and every block
  holds one sentence at the cap. Padding waste is therefore high, as in real
  text, but it does not vary from seed to seed;
- trees come from ``random_tree_heads`` and pass ``validate_tree``;
- labels are valid BIOES: an entity-bearing form opens a span of one to
  three tokens of its type.
"""

from __future__ import annotations

import statistics

import numpy as np

from syntag.data import Sentence, validate_labels, validate_tree
from syntag.training import random_tree_heads

ENTITY_TYPES = ("PER", "ORG", "LOC", "MISC")
POS_TAGS = ("NN", "NNP", "VB", "JJ", "DT", "IN", "RB", "PRP", "CD", "CC")
DEPRELS = ("nsubj", "obj", "amod", "det", "case", "nmod", "advmod", "conj",
           "cc", "nummod", "compound", "obl")
LETTERS = "abcdefghijklmnopqrstuvwxyz"
TYPES = 20000          # vocabulary size
EXPONENT = 1.05        # Zipf exponent of the rank distribution
ENTITY_SHARE = 0.08    # share of forms that open an entity span
LENGTH_MEDIAN = 12.0   # log-normal sentence length: median,
LENGTH_SIGMA = 0.8     # log-space sigma,
LENGTH_CAP = 50        # cap
LENGTH_FLOOR = 2       # and floor


def block_lengths(block):
    """Sentence lengths at the ``block`` mid-quantiles of the capped log-normal."""
    normal = statistics.NormalDist()
    out = []
    for i in range(block):
        z = normal.inv_cdf((i + 0.5) / block)
        n = round(LENGTH_MEDIAN * np.exp(LENGTH_SIGMA * z))
        out.append(int(min(LENGTH_CAP, max(LENGTH_FLOOR, n))))
    return out


def _lexicon(rng):
    forms, pos, etype = [], [], []
    seen = set()
    while len(forms) < TYPES:
        size = int(rng.integers(2, 13))
        form = "".join(LETTERS[i] for i in rng.integers(0, 26, size=size))
        is_entity = rng.random() < ENTITY_SHARE
        if is_entity:
            form = form.capitalize()
        if form in seen:
            continue
        seen.add(form)
        forms.append(form)
        pos.append("NNP" if is_entity else POS_TAGS[int(rng.integers(0, len(POS_TAGS)))])
        etype.append(ENTITY_TYPES[int(rng.integers(0, len(ENTITY_TYPES)))]
                     if is_entity else None)
    return forms, pos, etype


def _labels(ranks, etype, rng):
    n = len(ranks)
    labels = ["O"] * n
    t = 0
    while t < n:
        kind = etype[ranks[t]]
        if kind is None:
            t += 1
            continue
        span = min(n - t, int(rng.integers(1, 4)))
        if span == 1:
            labels[t] = f"S-{kind}"
        else:
            labels[t] = f"B-{kind}"
            for k in range(t + 1, t + span - 1):
                labels[k] = f"I-{kind}"
            labels[t + span - 1] = f"E-{kind}"
        t += span
    return labels


def generate_zipf_corpus(count, seed, block=32):
    """``count`` sentences from one seeded stream; same seed, same corpus."""
    rng = np.random.default_rng(seed)
    forms, pos, etype = _lexicon(rng)
    weights = 1.0 / np.arange(1, TYPES + 1) ** EXPONENT
    weights /= weights.sum()
    lengths = block_lengths(block)
    corpus = []
    while len(corpus) < count:
        for n in rng.permutation(lengths):
            if len(corpus) == count:
                break
            ranks = rng.choice(TYPES, size=int(n), p=weights)
            heads = random_tree_heads(int(n), rng)
            validate_tree(heads, sentence_index=len(corpus))
            labels = _labels(ranks, etype, rng)
            validate_labels(labels, "bioes")
            rels = [DEPRELS[i] for i in rng.integers(0, len(DEPRELS), size=int(n))]
            corpus.append(Sentence([forms[r] for r in ranks],
                                   [pos[r] for r in ranks], heads, rels, labels))
    return corpus


def corpus_stats(corpus, batch_size):
    """Tokens, types, length quantiles and pad waste at ``batch_size``."""
    lengths = [len(s) for s in corpus]
    padded = 0
    for lo in range(0, len(lengths), batch_size):
        chunk = lengths[lo: lo + batch_size]
        padded += len(chunk) * max(chunk)
    q = np.quantile(lengths, [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
    return {
        "sentences": len(corpus),
        "tokens": sum(lengths),
        "types": len({tok for s in corpus for tok in s.tokens}),
        "length_quantiles": {k: float(v) for k, v in
                             zip(("min", "p25", "p50", "p75", "p90", "max"), q)},
        "pad_waste": 1.0 - sum(lengths) / padded,
        "batch_size": batch_size,
    }
