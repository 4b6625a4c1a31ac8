"""Structural guarantees of the synthetic benchmark generator."""

import hashlib
from collections import Counter, deque

import numpy as np
import pytest

from syntag.data import serialize_corpus, validate_labels, validate_tree
from syntag.errors import ContractError
from syntag.synthetic import (CUE_WORDS, MAX_LENGTH, MIN_LENGTH, PIVOT_WORD,
                              generate_corpus, generate_splits)


def tree_distance(heads, a, b):
    n = len(heads)
    adjacent = [[] for _ in range(n)]
    for i, h in enumerate(heads):
        if h > 0:
            adjacent[i].append(h - 1)
            adjacent[h - 1].append(i)
    dist = [-1] * n
    dist[a] = 0
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        for nxt in adjacent[cur]:
            if dist[nxt] < 0:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist[b]


def special_positions(sentence):
    pivot = sentence.tokens.index(PIVOT_WORD)
    color = sentence.labels[pivot][2:]
    other = "BLU" if color == "RED" else "RED"
    cue = sentence.tokens.index(CUE_WORDS[color])
    distractor = sentence.tokens.index(CUE_WORDS[other])
    return pivot, cue, distractor, color


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(250, seed=13)


class TestStructure:

    def test_valid_trees_and_labels(self, corpus):
        for s in corpus:
            validate_tree(s.heads, 0)
            validate_labels(s.labels, "bioes")

    def test_lengths_in_range(self, corpus):
        lengths = {len(s) for s in corpus}
        assert min(lengths) >= MIN_LENGTH
        assert max(lengths) <= MAX_LENGTH
        # the generator should actually use the whole range
        assert MIN_LENGTH in lengths and MAX_LENGTH in lengths

    def test_cue_two_hops_from_pivot(self, corpus):
        for s in corpus:
            pivot, cue, _, _ = special_positions(s)
            assert tree_distance(s.heads, pivot, cue) == 2

    def test_distractor_at_least_three_hops(self, corpus):
        for s in corpus:
            pivot, _, distractor, _ = special_positions(s)
            assert tree_distance(s.heads, pivot, distractor) >= 3

    def test_both_cue_surfaces_always_present(self, corpus):
        for s in corpus:
            assert CUE_WORDS["RED"] in s.tokens
            assert CUE_WORDS["BLU"] in s.tokens

    def test_colors_balanced(self, corpus):
        counts = Counter(special_positions(s)[3] for s in corpus)
        assert set(counts) == {"RED", "BLU"}
        assert min(counts.values()) > 0.35 * len(corpus)

    def test_all_bioes_tags_occur(self, corpus):
        seen = {lab for s in corpus for lab in s.labels}
        assert {"O", "S-RED", "S-BLU", "S-EZ", "B-EZ", "I-EZ", "E-EZ"} <= seen

    def test_one_pivot_one_entity_per_sentence(self, corpus):
        for s in corpus:
            assert s.tokens.count(PIVOT_WORD) == 1
            starts = sum(lab[0] in "BS" for lab in s.labels)
            assert starts == 2  # the pivot and the EZ entity

    def test_cue_positions_vary_linearly(self, corpus):
        # the informative cue must not live at a fixed linear offset
        offsets = {special_positions(s)[1] - special_positions(s)[0]
                   for s in corpus}
        assert len(offsets) > 10


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate_corpus(25, seed=3)
        b = generate_corpus(25, seed=3)
        assert [s.tokens for s in a] == [s.tokens for s in b]
        assert [s.heads for s in a] == [s.heads for s in b]
        assert [s.labels for s in a] == [s.labels for s in b]

    def test_different_seed_differs(self):
        a = generate_corpus(25, seed=3)
        b = generate_corpus(25, seed=4)
        assert [s.tokens for s in a] != [s.tokens for s in b]

    def test_splits_are_disjoint_streams(self):
        train, dev, test = generate_splits(30, 10, 10, seed=0)
        assert len(train) == 30 and len(dev) == 10 and len(test) == 10
        first = lambda c: [tuple(s.tokens) for s in c]
        assert first(train)[:10] != first(dev)
        assert first(dev) != first(test)

    def test_stream_is_pinned(self):
        # The acceptance grid trains on this stream; a change to the draws,
        # even one that keeps every structural property, shows here.
        digest = lambda c: hashlib.sha256(
            serialize_corpus(c).encode()).hexdigest()
        assert {seed: digest(generate_corpus(50, seed)) for seed in (0, 7, 13)} == {
            0: "4bcc561044fff2a35eebb14ef0853e584e445e5ea5a2c6bf6ab0c7fe8863cdad",
            7: "4dc8380f06ec950822b926ea4891a4f6a312f5a57a3fd7dc9ac98ed47a850a6e",
            13: "663b8f2862b72a3c63105fe8bb819c96ab7694795899808b6e338bb6db934596",
        }
        assert [digest(c) for c in generate_splits(seed=0)] == [
            "ff5ef672df4fbb29746e9c679537ffde82ab4cf4a241d58fd4fe55e681030a4d",
            "cebe26d7ca5260f74d4d1c5f0c8dbccea14939a742cf540fe6df90c0ac3edcdb",
            "9193fd40d240efa4ca21845081d0101bdc2c6740bf50dcd3971508bb617914b3",
        ]

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            generate_corpus(0, seed=1)
