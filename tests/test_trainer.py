"""Optimizer, training loop, checkpoint, and tree randomization tests."""

import hashlib
import io
import json
import os
import stat
import tracemalloc
import warnings
import zipfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syntag import autodiff as ad
from syntag.autodiff import Tensor
from syntag.data import (build_vocab, convert_label_scheme, parse_corpus,
                         serialize_corpus, validate_tree)
from syntag.errors import (ContractError, DataIntegrityError, FormatError,
                           NumericalError)
from syntag.gradcheck import random_instances
from syntag.model import ModelConfig, SequenceTagger
from syntag.synthetic import generate_splits
from syntag.training import (Checkpoint, build_model, clip_gradients,
                             epoch_lr, load_checkpoint, prepare_corpus,
                             random_tree_heads, save_checkpoint, sgd_step,
                             snapshot_params, train)


def small_config(**overrides):
    base = dict(variant="syn-lstm-crf", hidden=6, gcn_layers=2, word_dim=5,
                char_dim=3, char_hidden=2, deprel_dim=3, pos_dim=3,
                dropout=0.1, lr=0.2, decay=0.1, l2=1e-8, batch_size=4,
                epochs=2, seed=0, clip_norm=5.0)
    base.update(overrides)
    return ModelConfig(**base)


class TestEpochLr:
    def test_schedule_values(self):
        assert epoch_lr(1, 0.2, 0.1) == 0.2
        assert epoch_lr(2, 0.2, 0.1) == pytest.approx(0.2 / 1.1)
        assert epoch_lr(3, 0.2, 0.1) == pytest.approx(0.2 / 1.2)
        assert epoch_lr(11, 0.2, 0.1) == pytest.approx(0.1)

    def test_zero_decay(self):
        for epoch in (1, 5, 40):
            assert epoch_lr(epoch, 0.3, 0.0) == 0.3

    def test_rejects_epoch_zero(self):
        with pytest.raises(ContractError):
            epoch_lr(0, 0.2, 0.1)


class TestSgdStep:
    def test_update_rule(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, 0.25])
        sgd_step({"p": p}, rate=0.1, l2=0.01)
        expected = np.array([1.0, -2.0]) - 0.1 * (
            np.array([0.5, 0.25]) + 0.01 * np.array([1.0, -2.0]))
        assert np.allclose(p.data, expected)
        assert p.grad is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from([(1,), (7,), (3, 5), (2, 3, 4)]),
           rate=st.floats(1e-4, 2.0), l2=st.sampled_from([0.0, 1e-8, 1e-3, 0.5]))
    def test_update_is_bitwise_the_one_line_rule(self, seed, shape, rate, l2):
        rng = np.random.default_rng(seed)
        data, grad = rng.normal(size=shape) * 3, rng.normal(size=shape)
        grad.flat[0] = -0.0
        p = Tensor(data.copy(), requires_grad=True)
        p.grad = grad.copy()
        sgd_step({"p": p}, rate=rate, l2=l2)
        np.testing.assert_array_equal(p.data.view(np.uint64),
                                      (data - rate * (grad + l2 * data)).view(np.uint64))

    def test_missing_gradient_is_an_error(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.1])
        with pytest.raises(ContractError, match="q"):
            sgd_step({"p": p, "q": q}, rate=0.1)
        # nothing was touched before the error
        assert np.array_equal(p.data, [1.0])


class TestClipGradients:
    def test_clips_to_max_norm(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.array([3.0, 4.0, 0.0])
        norm = clip_gradients({"p": p}, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)
        assert np.allclose(p.grad, np.array([0.6, 0.8, 0.0]))

    def test_small_gradients_untouched(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.3, 0.4])
        norm = clip_gradients({"p": p}, max_norm=1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_zero_max_norm_disables(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([30.0, 40.0])
        clip_gradients({"p": p}, max_norm=0.0)
        assert np.allclose(p.grad, [30.0, 40.0])

    def test_global_norm_across_parameters(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        q = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.array([3.0])
        q.grad = np.array([4.0])
        clip_gradients({"p": p, "q": q}, max_norm=1.0)
        total = np.sqrt(p.grad[0] ** 2 + q.grad[0] ** 2)
        assert total == pytest.approx(1.0)

    def test_non_finite_gradient_raises_before_scaling(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 4.0])
        q.grad = np.array([np.inf, 1.0])
        with pytest.raises(NumericalError, match="'q'") as info:
            clip_gradients({"p": p, "q": q}, max_norm=1.0)
        assert info.value.parameter == "q"
        assert np.array_equal(p.grad, [3.0, 4.0])
        # clipping switched off still refuses a non-finite norm
        with pytest.raises(NumericalError):
            clip_gradients({"p": p, "q": q}, max_norm=0.0)

    def test_overflowing_norm_names_the_largest_gradient(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        q = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.array([1.2e154])
        q.grad = np.array([1.3e154])
        with pytest.raises(NumericalError) as info:
            clip_gradients({"p": p, "q": q}, max_norm=1.0)
        assert info.value.parameter == "q"


class TestRandomTrees:
    def test_always_valid(self):
        rng = np.random.default_rng(3)
        for n in range(1, 61):
            for _ in range(8):
                heads = random_tree_heads(n, rng)
                validate_tree(heads, 0)
                assert len(heads) == n

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_always_valid_property(self, n, seed):
        heads = random_tree_heads(n, np.random.default_rng(seed))
        validate_tree(heads)
        assert len(heads) == n and heads.count(0) == 1

    def test_tiny_sizes(self):
        rng = np.random.default_rng(0)
        assert random_tree_heads(1, rng) == [0]
        heads = random_tree_heads(2, rng)
        assert heads in ([0, 1], [2, 0])

    def test_uniform_over_rooted_trees(self):
        # 9 rooted labeled trees on 3 nodes; chi-square against uniform
        rng = np.random.default_rng(11)
        counts = Counter()
        total = 18000
        for _ in range(total):
            counts[tuple(random_tree_heads(3, rng))] += 1
        assert len(counts) == 9
        expected = total / 9
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 20.1  # 99th percentile of chi-square with 8 dof

    def test_randomize_trees_keeps_text(self):
        corpus = random_instances(6, 7, num_labels=2, seed=1)
        out = prepare_corpus(corpus, small_config(tree_source="random", seed=5))
        for s, c in zip(out, corpus, strict=True):
            assert (s.tokens, s.pos_tags, s.labels) == (c.tokens, c.pos_tags, c.labels)
        observed = {r for s in corpus for r in s.deprels}
        for s in out:
            validate_tree(s.heads, 0)
            assert set(s.deprels) <= observed
        assert any(a.heads != b.heads for a, b in zip(out, corpus))

    def test_randomize_trees_does_not_mutate_input(self):
        corpus = random_instances(5, 30, num_labels=3, seed=1)
        before = serialize_corpus(corpus)
        prepare_corpus(corpus, small_config(tree_source="random", seed=2))
        assert serialize_corpus(corpus) == before

    def test_randomize_trees_deterministic(self):
        corpus = random_instances(4, 6, num_labels=2, seed=1)
        a = prepare_corpus(corpus, small_config(tree_source="random", seed=9))
        b = prepare_corpus(corpus, small_config(tree_source="random", seed=9))
        assert [s.heads for s in a] == [s.heads for s in b]
        assert [s.deprels for s in a] == [s.deprels for s in b]

    def test_random_tree_draw_order_is_pinned(self):
        # Pins the draw order: one generator per corpus, and for each sentence
        # its heads, then its relations. Changing it changes every
        # random-tree result.
        corpus = random_instances(6, 9, num_labels=2, seed=3)
        out = prepare_corpus(corpus, small_config(tree_source="random", seed=11))
        blob = json.dumps([[s.heads, s.deprels] for s in out]).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "2abfa8b91b772925ac6542690267aaa7150a64be77f8b1619fb9b8c9e6600f27")

    @pytest.mark.parametrize("bound", [1, 2, 3, 50, 2**31 + 5])
    @pytest.mark.parametrize("n", [0, 1, 14, 50])
    def test_bulk_integer_draws_equal_scalar_draws(self, bound, n):
        # prepare_corpus draws a sentence's relations in one call. Its stream
        # depends on numpy filling the array with the draws that as many
        # scalar calls would make, and leaving the generator where they would.
        bulk, scalar = np.random.default_rng(23), np.random.default_rng(23)
        assert bulk.integers(0, 7) == scalar.integers(0, 7)  # odd 32-bit offset
        assert bulk.integers(0, bound, size=n).tolist() == [
            int(scalar.integers(0, bound)) for _ in range(n)]
        assert bulk.bit_generator.state == scalar.bit_generator.state
        assert bulk.integers(0, bound) == scalar.integers(0, bound)

    def test_prepared_stream_is_pinned(self):
        # The random source and the original-dependency ablation draw the same
        # trees from the same seed; a change to either draw order shows here.
        digest = lambda c: hashlib.sha256(serialize_corpus(c).encode()).hexdigest()
        want = {
            0: ["1e1c611d25b2ac643a9048a57305e9d9a4a6f6ac81bf7fd7d34efe213c91d8fa",
                "ff660c9cc428a37f7a04cdbe4007126d84089a3e4f030d33c440f4a6011b79b6",
                "0881b1bca851858fb6c4cc3812e000bd6e92badc53111f5ff1082ceeaf464b6a"],
            7: ["209f3f98167a7504d113bb7da79867ccbbf8c3c479aa4b0a70e447991e404f9b",
                "2445a744208baf89838927cb4f5c249c0fd2510ff8d68e58e248b3ee389f0e7a",
                "6688dcf3d6938448dde4428196e1a82b683b0114a48d18c935a178c949ade377"],
            13: ["d670677de02959d779736c7e280012a8d34bb6e113e9ce8dfab91f22bcb13a7b",
                 "896ef3feeeea0dfcfe39117ac3b77b76955ef114978167aac28f1afdb9c7d9ad",
                 "e97ee98b304e3e2920326dc1043cc13c797facc7dbf4a708d1656618f2f518a7"],
        }
        for overrides in (dict(tree_source="random"), dict(drop="original-dependency")):
            got = {seed: [digest(prepare_corpus(split, small_config(seed=seed, **overrides)))
                          for split in generate_splits(seed=seed)]
                   for seed in want}
            assert got == want, overrides


class TestTreeSource:
    def test_given_keeps_trees(self):
        corpus = random_instances(4, 5, num_labels=2, seed=2)
        cfg = small_config(tree_source="given")
        out = prepare_corpus(corpus, cfg)
        assert [s.heads for s in out] == [s.heads for s in corpus]

    def test_random_replaces_trees(self):
        corpus = random_instances(6, 8, num_labels=2, seed=2)
        cfg = small_config(tree_source="random")
        out = prepare_corpus(corpus, cfg)
        assert any(a.heads != b.heads for a, b in zip(out, corpus))

    def test_original_dependency_drop_randomizes(self):
        corpus = random_instances(6, 8, num_labels=2, seed=2)
        cfg = small_config(drop="original-dependency")
        out = prepare_corpus(corpus, cfg)
        assert any(a.heads != b.heads for a, b in zip(out, corpus))

    def test_predicted_grafts_from_file(self, tmp_path):
        corpus = random_instances(4, 5, num_labels=2, seed=2)
        trees = prepare_corpus(corpus, small_config(tree_source="random", seed=7))
        tree_path = tmp_path / "trees.tsv"
        tree_path.write_text(serialize_corpus(trees))
        cfg = small_config(tree_source="predicted", tree_file=str(tree_path))
        out = prepare_corpus(parse_corpus_roundtrip(corpus, tmp_path), cfg)
        assert [s.heads for s in out] == [s.heads for s in trees]
        assert [s.deprels for s in out] == [s.deprels for s in trees]

    def test_predicted_misaligned_file(self, tmp_path):
        corpus = random_instances(4, 5, num_labels=2, seed=2)
        trees = prepare_corpus(corpus, small_config(tree_source="random", seed=7))[:3]
        tree_path = tmp_path / "trees.tsv"
        tree_path.write_text(serialize_corpus(trees))
        cfg = small_config(tree_source="predicted", tree_file=str(tree_path))
        with pytest.raises(DataIntegrityError):
            prepare_corpus(corpus, cfg)

    def test_predicted_sentence_length_mismatch_names_the_sentence(self, tmp_path):
        corpus = random_instances(4, 6, num_labels=2, seed=2)
        trees = prepare_corpus(corpus, small_config(tree_source="random", seed=7))
        trees[2] = random_instances(1, 7, num_labels=2, seed=9)[0]
        trees[2].tokens[:6] = corpus[2].tokens
        tree_path = tmp_path / "trees.tsv"
        tree_path.write_text(serialize_corpus(trees))
        cfg = small_config(tree_source="predicted", tree_file=str(tree_path))
        start = " ".join(corpus[2].tokens[:5])
        with pytest.raises(DataIntegrityError, match=(
                f"sentence 2 \\({start} ...\\) has no tree in {tree_path}")):
            prepare_corpus(corpus, cfg)

    def test_predicted_tree_file_may_cover_more_in_any_order(self, tmp_path):
        corpus = random_instances(6, 5, num_labels=2, seed=2)
        trees = prepare_corpus(corpus, small_config(tree_source="random", seed=7))
        tree_path = tmp_path / "trees.tsv"
        tree_path.write_text(serialize_corpus(trees[::-1]))
        cfg = small_config(tree_source="predicted", tree_file=str(tree_path))
        for part, want in ((corpus[:4], trees[:4]), (corpus[4:], trees[4:])):
            out = prepare_corpus(part, cfg)
            assert [(s.heads, s.deprels) for s in out] == [
                (s.heads, s.deprels) for s in want]

    def test_predicted_conflicting_trees_name_both_sentences(self, tmp_path):
        corpus = random_instances(4, 5, num_labels=2, seed=2)
        trees = prepare_corpus(corpus, small_config(tree_source="random", seed=7))
        twin = trees[1].copy()
        twin.deprels = ["other"] * len(twin)
        tree_path = tmp_path / "trees.tsv"
        tree_path.write_text(serialize_corpus(trees + [trees[0], twin]))
        cfg = small_config(tree_source="predicted", tree_file=str(tree_path))
        with pytest.raises(DataIntegrityError,
                           match="sentences 1 and 5 have the same tokens but "
                                 "different trees"):
            prepare_corpus(corpus, cfg)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), length=st.integers(1, 6))
    def test_predicted_ignores_tree_file_order(self, tmp_path_factory, seed,
                                               length):
        corpus = random_instances(5, length, num_labels=2, seed=seed)
        trees = _one_tree_per_token_tuple(corpus, seed)
        shuffled = list(trees)
        np.random.default_rng(seed).shuffle(shuffled)
        outs = []
        for name, order in (("trees.tsv", trees), ("shuffled.tsv", shuffled)):
            path = tmp_path_factory.mktemp("trees") / name
            path.write_text(serialize_corpus(order))
            cfg = small_config(tree_source="predicted", tree_file=str(path))
            outs.append(serialize_corpus(prepare_corpus(corpus, cfg)))
        assert outs[0] == outs[1]

    @settings(max_examples=40, deadline=None)
    @given(source=st.sampled_from(["given", "random", "original-dependency",
                                   "predicted"]),
           scheme=st.sampled_from(["bioes", "bio"]),
           count=st.integers(1, 4), length=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    def test_prepare_keeps_text_and_never_mutates(self, tmp_path_factory, source,
                                                  scheme, count, length, seed):
        corpus = random_instances(count, length, num_labels=2, seed=seed)
        for s in corpus:
            s.labels = convert_label_scheme(s.labels, "bioes", scheme)
        overrides = dict(label_scheme=scheme, seed=seed)
        if source == "original-dependency":
            overrides["drop"] = source
        else:
            overrides["tree_source"] = source
        if source == "predicted":
            path = tmp_path_factory.mktemp("trees") / "trees.tsv"
            path.write_text(serialize_corpus(
                _one_tree_per_token_tuple(corpus, seed + 1)))
            overrides["tree_file"] = str(path)
        before = serialize_corpus(corpus)
        out = prepare_corpus(corpus, small_config(**overrides))
        assert serialize_corpus(corpus) == before
        assert [s.tokens for s in out] == [s.tokens for s in corpus]
        assert [s.pos_tags for s in out] == [s.pos_tags for s in corpus]
        assert [len(s) for s in out] == [len(s) for s in corpus]
        for s, c in zip(out, corpus):
            assert len(s.heads) == len(s.deprels) == len(s.labels) == len(s)
            validate_tree(s.heads)
            assert s.labels == convert_label_scheme(c.labels, scheme, "bioes")

    def test_prepare_converts_bio_labels(self):
        corpus = random_instances(3, 4, num_labels=2, seed=4)
        for s in corpus:
            s.labels = ["B-T0", "I-T0", "O", "B-T1"]
        cfg = small_config(label_scheme="bio")
        out = prepare_corpus(corpus, cfg)
        assert out[0].labels == ["B-T0", "E-T0", "O", "S-T1"]


def _one_tree_per_token_tuple(corpus, seed):
    """The corpus's tokens with random trees, equal sentences getting equal
    ones. The POS tags and labels differ from the corpus's, so a graft that
    took them from the tree file shows."""
    rng = np.random.default_rng(seed)
    trees = {}
    for s in corpus:
        if tuple(s.tokens) not in trees:
            t = s.copy()
            t.pos_tags = [f"TREE-{tag}" for tag in s.pos_tags]
            t.labels = ["O"] * len(s)
            t.heads = random_tree_heads(len(s), rng)
            t.deprels = [("nsubj", "obj", "nmod")[k]
                         for k in rng.integers(0, 3, size=len(s))]
            trees[tuple(s.tokens)] = t
    return [trees[tuple(s.tokens)] for s in corpus]


def parse_corpus_roundtrip(corpus, tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(serialize_corpus(corpus))
    return parse_corpus(path)


class TestTrainLoop:
    def make_corpus(self):
        train_c = random_instances(12, 5, num_labels=2, seed=6)
        dev_c = random_instances(4, 5, num_labels=2, seed=7)
        return train_c, dev_c

    def test_deterministic_runs(self):
        train_c, dev_c = self.make_corpus()
        a = train(small_config(), train_c, dev_c)
        b = train(small_config(), train_c, dev_c)
        assert a.epoch_losses == b.epoch_losses
        assert a.dev_f1s == b.dev_f1s
        for name, arr in a.checkpoint.params.items():
            assert np.array_equal(arr, b.checkpoint.params[name]), name

    def test_loss_decreases(self):
        train_c, dev_c = self.make_corpus()
        result = train(small_config(epochs=5, dropout=0.0), train_c, dev_c)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_epoch_zero_model_participates(self):
        train_c, dev_c = self.make_corpus()
        result = train(small_config(epochs=0), train_c, dev_c)
        assert result.checkpoint.best_epoch == 0
        assert result.epoch_losses == []
        assert len(result.dev_f1s) == 1
        cfg = small_config(epochs=0)
        prepared = prepare_corpus(train_c, cfg)
        vocab = build_vocab(prepared, cfg.min_count)
        init_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(3)[0])
        fresh = SequenceTagger(cfg, vocab, rng=init_rng)
        for name, t in fresh.named_tensors().items():
            assert np.array_equal(t.data, result.checkpoint.params[name])

    def test_best_epoch_tracks_dev_f1(self):
        train_c, dev_c = self.make_corpus()
        result = train(small_config(epochs=3), train_c, dev_c)
        f1s = result.dev_f1s
        best = result.checkpoint.best_epoch
        assert f1s[best] == max(f1s)
        assert all(f1s[e] < f1s[best] for e in range(best))

    def test_non_finite_loss_raises_with_location(self, monkeypatch):
        train_c, dev_c = self.make_corpus()
        calls = {"count": 0}
        orig = SequenceTagger.loss_batch

        def poisoned(self, sentences, train=False, rng=None):
            loss = orig(self, sentences, train=train, rng=rng)
            if train:
                calls["count"] += 1
                if calls["count"] == 3:
                    loss.data = np.array(float("nan"))
            return loss

        monkeypatch.setattr(SequenceTagger, "loss_batch", poisoned)
        # 12 sentences, batch_size 4: the third training batch is epoch 1,
        # batch index 2
        with pytest.raises(NumericalError) as info:
            train(small_config(epochs=2), train_c, dev_c)
        assert info.value.epoch == 1
        assert info.value.batch == 2

    def test_transitions_beyond_float64_range_stop_training(self, monkeypatch):
        """A START transition 800 above every other one leaves the CRF's
        scaled forward no path in float64: the loss is not finite, and
        training stops where a finite, wrong loss would have gone on."""
        train_c, dev_c = self.make_corpus()
        calls = {"count": 0}
        orig = SequenceTagger.loss_batch

        def lifted(self, sentences, train=False, rng=None):
            if train:
                calls["count"] += 1
                if calls["count"] == 3:
                    self.crf.transitions.data[self.crf.start, 0] = 800.0
            return orig(self, sentences, train=train, rng=rng)

        monkeypatch.setattr(SequenceTagger, "loss_batch", lifted)
        with pytest.raises(NumericalError, match="non-finite loss -inf") as info:
            train(small_config(epochs=2), train_c, dev_c)
        assert (info.value.epoch, info.value.batch) == (1, 2)

    def test_non_finite_gradient_raises_with_location(self, monkeypatch):
        train_c, dev_c = self.make_corpus()
        seen = {"count": 0}
        orig = SequenceTagger.loss_batch

        def poisoned(self, sentences, train=False, rng=None):
            loss = orig(self, sentences, train=train, rng=rng)
            if train:
                seen["count"] += 1
                if seen["count"] == 3:
                    seen["before"] = snapshot_params(self)
                    seen["model"] = self
                    target = self.cell_fwd.W_h
                    # adds 0 to the loss, but sends an inf gradient to W_h
                    zero = ad.record(Tensor(0.0), (target,), lambda g: (
                        np.full(target.data.shape, np.inf),))
                    loss = loss + zero
            return loss

        monkeypatch.setattr(SequenceTagger, "loss_batch", poisoned)
        with pytest.raises(NumericalError) as info:
            train(small_config(epochs=2), train_c, dev_c)
        assert (info.value.epoch, info.value.batch) == (1, 2)
        assert info.value.parameter == "cell_fwd.W_h"
        assert "epoch 1, batch 2, parameter 'cell_fwd.W_h'" in str(info.value)
        after = snapshot_params(seen["model"])
        assert all(np.array_equal(after[k], v) for k, v in seen["before"].items())

    def test_empty_corpus_rejected(self):
        train_c, dev_c = self.make_corpus()
        with pytest.raises(ContractError):
            train(small_config(), [], dev_c)
        with pytest.raises(ContractError):
            train(small_config(), train_c, [])

    def test_frozen_word_table_stays_fixed(self):
        train_c, dev_c = self.make_corpus()
        cfg = small_config(fine_tune_words=False, epochs=2)
        result = train(cfg, train_c, dev_c)
        prepared = prepare_corpus(train_c, cfg)
        vocab = build_vocab(prepared, cfg.min_count)
        init_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(3)[0])
        fresh = SequenceTagger(cfg, vocab, rng=init_rng)
        model = build_model(result.checkpoint)
        assert np.array_equal(model.tables.word.data, fresh.tables.word.data)
        changed = sum(
            not np.array_equal(t.data, fresh.named_tensors()[n].data)
            for n, t in model.named_tensors().items())
        assert changed > 0

    def test_pretrained_embeddings_are_used(self, tmp_path):
        train_c, dev_c = self.make_corpus()
        vocab_words = sorted({t for s in train_c for t in s.tokens})
        dim = 4
        lines = [f"{len(vocab_words)} {dim}"]
        rng = np.random.default_rng(0)
        vectors = {}
        for w in vocab_words:
            vec = rng.normal(size=dim)
            vectors[w] = vec
            lines.append(w + " " + " ".join(f"{v:.6f}" for v in vec))
        emb_path = tmp_path / "vectors.txt"
        emb_path.write_text("\n".join(lines) + "\n")
        cfg = small_config(embeddings=str(emb_path), word_dim=99, epochs=0)
        result = train(cfg, train_c, dev_c)
        assert result.checkpoint.config.word_dim == dim
        model = build_model(result.checkpoint)
        for w, vec in vectors.items():
            row = model.tables.word.data[model.vocab.word_id(w)]
            assert np.allclose(row, vec, atol=1e-6)


class TestCheckpoint:
    def run_small(self):
        train_c = random_instances(8, 4, num_labels=2, seed=8)
        dev_c = random_instances(3, 4, num_labels=2, seed=9)
        return train(small_config(epochs=1), train_c, dev_c), dev_c

    def test_round_trip_exact(self, tmp_path):
        result, dev_c = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.config == result.checkpoint.config
        assert loaded.vocab == result.checkpoint.vocab
        assert loaded.best_dev_f1 == result.checkpoint.best_dev_f1
        assert loaded.best_epoch == result.checkpoint.best_epoch
        assert set(loaded.params) == set(result.checkpoint.params)
        for name, arr in result.checkpoint.params.items():
            assert np.array_equal(arr, loaded.params[name]), name

    def test_round_trip_predictions_identical(self, tmp_path):
        result, dev_c = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        before = build_model(result.checkpoint).predict(dev_c)
        after = build_model(load_checkpoint(path)).predict(dev_c)
        assert before == after

    def test_build_model_draws_no_initial_weights(self, monkeypatch):
        result, _ = self.run_small()
        want = result.checkpoint.params

        def no_generator(*args, **kwargs):
            raise AssertionError("build_model drew initial weights")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        named = build_model(result.checkpoint).named_tensors()
        assert set(named) == set(want)
        for name, arr in want.items():
            assert np.array_equal(named[name].data, arr), name

    def saved(self, tmp_path):
        """A saved checkpoint's path and its (name, bytes) members in file order."""
        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        with zipfile.ZipFile(path) as zf:
            return path, [(info.filename, zf.read(info)) for info in zf.infolist()]

    @staticmethod
    def write_zip(path, members):
        """Write (name, bytes) members as a stored zip with valid CRC-32s."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zipfile warns on a repeated name
            with zipfile.ZipFile(path, "w") as zf:
                for name, data in members:
                    zf.writestr(name, data)

    @staticmethod
    def patch_in_place(path, member, offset, new):
        """Overwrite bytes of one member's stored data, leaving its CRC-32 stale."""
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(member)
            start = raw.index(zf.read(info), info.header_offset) + offset % info.file_size
        raw[start: start + len(new)] = new
        path.write_bytes(bytes(raw))

    @staticmethod
    def npy_header(shape):
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
        return buf.getvalue()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError,
                           match="bad checkpoint zip directory: File is not a zip file"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path, members = self.saved(tmp_path)
        assert members[0][0] == "meta.json"
        meta = json.loads(members[0][1])
        meta["version"] = 99
        self.write_zip(path, [("meta.json", json.dumps(meta))] + members[1:])
        with pytest.raises(FormatError, match="unsupported checkpoint version 99"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"SYNL" + (1).to_bytes(2, "little") + b"\x00" * 64)
        with pytest.raises(FormatError, match="unsupported checkpoint version 1 "):
            load_checkpoint(path)

    def test_version_2_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"SYNL" + (2).to_bytes(2, "little") + b"\x00" * 64)
        with pytest.raises(FormatError, match=r"unsupported checkpoint version 2 "
                                              r"\(there is no converter"):
            load_checkpoint(path)

    def test_flipped_payload_bit_rejected(self, tmp_path):
        path, members = self.saved(tmp_path)
        name, data = members[-1]
        # the lowest mantissa bit of the last float: the .npy still parses
        self.patch_in_place(path, name, -8, bytes([data[-8] ^ 1]))
        with pytest.raises(FormatError,
                           match=f"bad checkpoint member '{name}': Bad CRC-32"):
            load_checkpoint(path)

    def test_flipped_metadata_byte_rejected_by_checksum(self, tmp_path):
        path, members = self.saved(tmp_path)
        assert members[0][1][:1] == b"{"
        # the metadata's opening brace: the JSON no longer parses
        self.patch_in_place(path, "meta.json", 0, bytes([ord("{") ^ 0xFF]))
        with pytest.raises(FormatError,
                           match="bad checkpoint member 'meta.json': Bad CRC-32"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fix_crc", [False, True], ids=["raw", "crc-fixed"])
    def test_huge_size_fields_are_rejected_before_allocating(self, tmp_path, fix_crc):
        path, members = self.saved(tmp_path)
        name, data = members[1]
        forged = self.npy_header((2**40,))  # 8 TiB of float64
        assert data[:len(forged)] != forged
        assert len(forged) == len(self.npy_header(np.load(io.BytesIO(data)).shape))
        if fix_crc:
            self.write_zip(path, [(n, forged + d[len(forged):] if n == name else d)
                                  for n, d in members])
            match = rf"member '{name}': header says <f8, C order, shape \(1099511627776,\)"
        else:
            self.patch_in_place(path, name, 0, forged)
            match = f"member '{name}': Bad CRC-32"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=match):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_non_utf8_tensor_name_is_a_format_error(self, tmp_path):
        path, members = self.saved(tmp_path)
        name, data = members[1]
        self.write_zip(path, members[:1] + [("\u00e9" + name, data)] + members[2:])
        # zipfile marks a non-ASCII name as UTF-8; make its bytes invalid UTF-8
        raw = path.read_bytes()
        assert raw.count("\u00e9".encode()) == 2  # the local and the central header
        path.write_bytes(raw.replace("\u00e9".encode(), b"\xff\xff"))
        with pytest.raises(FormatError,
                           match="bad checkpoint zip directory: 'utf-8' codec can't decode"):
            load_checkpoint(path)

    def test_unknown_member_is_a_format_error(self, tmp_path):
        path, members = self.saved(tmp_path)
        self.write_zip(path, members + [("notes.txt", b"hello")])
        with pytest.raises(FormatError, match="bad checkpoint member 'notes.txt': "
                                              "neither meta.json nor a .npy tensor"):
            load_checkpoint(path)
        self.write_zip(path, members + [("cell_fwd.W_q.npy", members[1][1])])
        ckpt = load_checkpoint(path)
        with pytest.raises(FormatError, match=r"unexpected \['cell_fwd.W_q'\]"):
            build_model(ckpt)

    def test_repeated_tensor_record_is_a_format_error(self, tmp_path):
        path, members = self.saved(tmp_path)
        name, data = members[1]
        self.write_zip(path, members + [(name, data)])
        with pytest.raises(FormatError,
                           match=f"bad checkpoint member '{name}': the name is repeated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layout", ["int64", "fortran"])
    def test_tensor_member_must_be_c_order_float64(self, tmp_path, layout):
        path, members = self.saved(tmp_path)
        at, name, arr = next((k, n, np.load(io.BytesIO(d)))
                             for k, (n, d) in enumerate(members)
                             if n.endswith(".npy") and np.load(io.BytesIO(d)).ndim == 2)
        buf = io.BytesIO()
        if layout == "int64":  # the same byte count, so only the dtype check sees it
            np.save(buf, arr.astype("<i8"))
            said = "<i8, C order"
        else:
            np.save(buf, np.asfortranarray(arr))
            said = "<f8, Fortran order"
        self.write_zip(path, members[:at] + [(name, buf.getvalue())] + members[at + 1:])
        with pytest.raises(FormatError,
                           match=f"bad checkpoint member '{name}': header says {said}"):
            load_checkpoint(path)

    def test_compressed_member_is_a_format_error(self, tmp_path):
        path, members = self.saved(tmp_path)
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, data in members:
                zf.writestr(name, data)
        with pytest.raises(FormatError, match="bad checkpoint member 'meta.json': "
                                              "the member is compressed"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        raw = path.read_bytes()
        for cut in (3, 5, 10, len(raw) // 2, len(raw) - 3):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        class Unreadable:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("interrupted")

        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        before = path.read_bytes()
        ckpt = result.checkpoint
        params = dict(ckpt.params, unreadable=Unreadable())  # written last
        broken = Checkpoint(ckpt.config, ckpt.vocab, params, 0.9, 7)
        with pytest.raises(RuntimeError, match="interrupted"):
            save_checkpoint(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_save_replaces_previous_checkpoint(self, tmp_path):
        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"old contents")
        save_checkpoint(result.checkpoint, path)
        assert load_checkpoint(path).best_epoch == result.checkpoint.best_epoch
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_save_syncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        synced, fsync = [], os.fsync

        def record(fd):
            st = os.fstat(fd)
            synced.append((stat.S_ISDIR(st.st_mode), st.st_ino, path.exists()))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", record)
        save_checkpoint(result.checkpoint, path)
        # the finished temporary file before the rename, its directory after it
        assert synced == [(False, path.stat().st_ino, False),
                          (True, tmp_path.stat().st_ino, True)]

    def test_saved_bytes_depend_only_on_the_checkpoint(self, tmp_path):
        result, _ = self.run_small()
        save_checkpoint(result.checkpoint, tmp_path / "a.ckpt")
        save_checkpoint(result.checkpoint, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        with np.load(tmp_path / "a.ckpt") as npz:  # numpy reads the tensors directly
            assert np.array_equal(npz["crf.emit_b"], result.checkpoint.params["crf.emit_b"])

    def test_shape_mismatch_rejected(self, tmp_path):
        result, _ = self.run_small()
        ckpt = result.checkpoint
        ckpt.params["crf.emit_b"] = np.zeros(99)
        with pytest.raises(FormatError, match="emit_b"):
            build_model(ckpt)

    def test_missing_tensor_rejected(self):
        result, _ = self.run_small()
        ckpt = result.checkpoint
        del ckpt.params["crf.emit_b"]
        with pytest.raises(FormatError, match="missing"):
            build_model(ckpt)

    def test_handmade_checkpoint_fields(self, tmp_path):
        cfg = small_config()
        corpus = random_instances(3, 4, num_labels=2, seed=0)
        vocab = build_vocab(corpus)
        model = SequenceTagger(cfg, vocab, rng=np.random.default_rng(0))
        ckpt = Checkpoint(cfg, vocab, snapshot_params(model), 0.5, 3)
        path = tmp_path / "hand.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.best_dev_f1 == 0.5
        assert loaded.best_epoch == 3
