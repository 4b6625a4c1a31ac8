"""Synthetic corpus where the label signal travels along the tree.

Each sentence contains one PIVOT token whose entity type (RED or BLU) is
revealed only by a CUE token sitting exactly two tree hops away, through a
BRIDGE node: pivot <- bridge <- cue in the dependency graph. A DISTRACTOR
cue of the opposite color is attached at least three hops from the pivot,
and both cue surfaces appear in every sentence at uniformly random linear
positions. A sequence model therefore sees the same bag of evidence for
both colors and cannot beat chance on pivots, while a two-hop graph
neighborhood pins down the answer exactly.

Each sentence also carries one surface-determined EZ entity (length one to
three) so that every BIOES tag occurs and part of the task is learnable by
any variant. POS tags, relation labels, and filler words are uniform noise.
"""

from __future__ import annotations

import numpy as np

from .data import Sentence
from .errors import ContractError
from .model import ModelConfig
from .training import orient, random_tree

FILLERS = tuple(f"fill{i}" for i in range(12))
POS_TAGS = ("N", "V", "A")
RELATIONS = ("mod", "conj", "obl", "nmod")
PIVOT_WORD = "pivot"
CUE_WORDS = {"RED": "redcue", "BLU": "blucue"}
EZ_WORDS = {1: ("ezsolo",), 2: ("ezhead", "eztail"),
            3: ("ezhead", "ezmid", "eztail")}

MIN_LENGTH = 8
MAX_LENGTH = 20


def generate_sentence(rng):
    """One sentence; see the module docstring for the construction."""
    n_total = int(rng.integers(MIN_LENGTH, MAX_LENGTH + 1))
    easy_len = int(rng.integers(1, min(3, n_total - 7) + 1))
    m = n_total - easy_len - 4  # fillers, at least 3
    color = "RED" if rng.random() < 0.5 else "BLU"
    other = "BLU" if color == "RED" else "RED"

    backbone = random_tree(m, rng)
    leaves = [v for v in range(m) if len(backbone[v]) == 1]
    bridge_parent = int(leaves[rng.integers(len(leaves))])
    # the distractor's anchor: any node two or more hops from bridge_parent
    anchors = [v for v in range(m)
               if v != bridge_parent and v not in backbone[bridge_parent]]
    anchor = int(anchors[rng.integers(len(anchors))])
    root = int(rng.integers(m))

    # slots: 0..m-1 fillers, then bridge, pivot, cue, distractor, easy tokens
    bridge = m
    pivot = m + 1
    cue = m + 2
    distractor = m + 3
    easy = list(range(m + 4, m + 4 + easy_len))

    parent = {bridge: bridge_parent, pivot: bridge, cue: bridge,
              distractor: anchor}
    for slot in easy:
        parent[slot] = int(rng.integers(m))
    parent.update(enumerate(orient(backbone, root)))  # root's -1 is unread

    words = {slot: FILLERS[rng.integers(len(FILLERS))] for slot in range(m)}
    words[bridge] = FILLERS[int(rng.integers(len(FILLERS)))]
    words[pivot] = PIVOT_WORD
    words[cue] = CUE_WORDS[color]
    words[distractor] = CUE_WORDS[other]
    for slot, surface in zip(easy, EZ_WORDS[easy_len]):
        words[slot] = surface

    labels = {slot: "O" for slot in range(n_total)}
    labels[pivot] = f"S-{color}"
    if easy_len == 1:
        labels[easy[0]] = "S-EZ"
    else:
        labels[easy[0]] = "B-EZ"
        for slot in easy[1:-1]:
            labels[slot] = "I-EZ"
        labels[easy[-1]] = "E-EZ"

    # the EZ span must be contiguous in surface order; everything else is
    # shuffled into the remaining positions
    start = int(rng.integers(0, n_total - easy_len + 1))
    easy_positions = list(range(start, start + easy_len))
    rest_positions = [p for p in range(n_total) if p not in easy_positions]
    shuffled = rng.permutation(m + 4)
    position = [0] * n_total
    for k, slot in enumerate(shuffled):
        position[slot] = rest_positions[k]
    for slot, pos in zip(easy, easy_positions):
        position[slot] = pos
    slot_at = [0] * n_total
    for slot, pos in enumerate(position):
        slot_at[pos] = slot

    tokens, pos_tags, heads, deprels, out_labels = [], [], [], [], []
    for pos in range(n_total):
        slot = slot_at[pos]
        tokens.append(words[slot])
        pos_tags.append(POS_TAGS[int(rng.integers(len(POS_TAGS)))])
        deprels.append(RELATIONS[int(rng.integers(len(RELATIONS)))])
        if slot == root:
            heads.append(0)
        else:
            heads.append(int(position[parent[slot]]) + 1)
        out_labels.append(labels[slot])
    return Sentence(tokens, pos_tags, heads, deprels, out_labels)


def generate_corpus(count, seed):
    """``count`` independent sentences from one seeded stream."""
    if count < 1:
        raise ContractError("corpus size must be positive")
    rng = np.random.default_rng(seed)
    return [generate_sentence(rng) for _ in range(count)]


def generate_splits(train=200, dev=50, test=50, seed=0):
    """Disjoint train/dev/test draws from independent substreams."""
    train_ss, dev_ss, test_ss = np.random.SeedSequence(seed).spawn(3)
    rng_train = np.random.default_rng(train_ss)
    rng_dev = np.random.default_rng(dev_ss)
    rng_test = np.random.default_rng(test_ss)
    return ([generate_sentence(rng_train) for _ in range(train)],
            [generate_sentence(rng_dev) for _ in range(dev)],
            [generate_sentence(rng_test) for _ in range(test)])


def experiment_config(variant="syn-lstm-crf", seed=0, **overrides):
    """A model configuration sized for the synthetic task."""
    base = dict(variant=variant, hidden=32, gcn_layers=2, word_dim=16,
                char_dim=8, char_hidden=8, deprel_dim=8, pos_dim=8,
                dropout=0.1, lr=0.2, decay=0.05, l2=1e-8, batch_size=16,
                epochs=30, seed=seed, clip_norm=5.0)
    base.update(overrides)
    return ModelConfig(**base)
