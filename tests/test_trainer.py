"""Optimizer, training loop, checkpoint, and tree randomization tests."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syntag import autodiff as ad
from syntag.autodiff import Tensor
from syntag.data import (build_vocab, parse_corpus, serialize_corpus,
                         validate_tree)
from syntag.errors import (ContractError, DataIntegrityError, FormatError,
                           NumericalError)
from syntag.gradcheck import random_instances
from syntag.model import ModelConfig, SequenceTagger
from syntag.training import (Checkpoint, apply_tree_source, build_model,
                             clip_gradients, epoch_lr, load_checkpoint,
                             prepare_corpus, random_tree_heads,
                             randomize_trees, save_checkpoint, sgd_step,
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
        for _ in range(500):
            n = int(rng.integers(1, 15))
            validate_tree(random_tree_heads(n, rng), 0)

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
        out = randomize_trees(corpus, seed=5)
        assert [s.tokens for s in out] == [s.tokens for s in corpus]
        assert [s.labels for s in out] == [s.labels for s in corpus]
        observed = {r for s in corpus for r in s.deprels}
        for s in out:
            validate_tree(s.heads, 0)
            assert set(s.deprels) <= observed
        assert any(a.heads != b.heads for a, b in zip(out, corpus))

    def test_randomize_trees_does_not_mutate_input(self):
        corpus = random_instances(3, 6, num_labels=2, seed=1)
        before = [list(s.heads) for s in corpus]
        randomize_trees(corpus, seed=2)
        assert [list(s.heads) for s in corpus] == before

    def test_randomize_trees_deterministic(self):
        corpus = random_instances(4, 6, num_labels=2, seed=1)
        a = randomize_trees(corpus, seed=9)
        b = randomize_trees(corpus, seed=9)
        assert [s.heads for s in a] == [s.heads for s in b]
        assert [s.deprels for s in a] == [s.deprels for s in b]


class TestTreeSource:
    def test_given_keeps_trees(self):
        corpus = random_instances(4, 5, num_labels=2, seed=2)
        cfg = small_config(tree_source="given")
        out = apply_tree_source(corpus, cfg)
        assert [s.heads for s in out] == [s.heads for s in corpus]

    def test_random_replaces_trees(self):
        corpus = random_instances(6, 8, num_labels=2, seed=2)
        cfg = small_config(tree_source="random")
        out = apply_tree_source(corpus, cfg)
        assert any(a.heads != b.heads for a, b in zip(out, corpus))

    def test_original_dependency_drop_randomizes(self):
        corpus = random_instances(6, 8, num_labels=2, seed=2)
        cfg = small_config(drop="original-dependency")
        out = apply_tree_source(corpus, cfg)
        assert any(a.heads != b.heads for a, b in zip(out, corpus))

    def test_predicted_grafts_from_file(self, tmp_path):
        corpus = random_instances(4, 5, num_labels=2, seed=2)
        trees = randomize_trees(corpus, seed=7)
        tree_path = tmp_path / "trees.tsv"
        tree_path.write_text(serialize_corpus(trees))
        cfg = small_config(tree_source="predicted", tree_file=str(tree_path))
        out = apply_tree_source(parse_corpus_roundtrip(corpus, tmp_path), cfg)
        assert [s.heads for s in out] == [s.heads for s in trees]
        assert [s.deprels for s in out] == [s.deprels for s in trees]

    def test_predicted_misaligned_file(self, tmp_path):
        corpus = random_instances(4, 5, num_labels=2, seed=2)
        trees = randomize_trees(corpus, seed=7)[:3]
        tree_path = tmp_path / "trees.tsv"
        tree_path.write_text(serialize_corpus(trees))
        cfg = small_config(tree_source="predicted", tree_file=str(tree_path))
        with pytest.raises(DataIntegrityError):
            apply_tree_source(corpus, cfg)

    def test_prepare_converts_bio_labels(self):
        corpus = random_instances(3, 4, num_labels=2, seed=4)
        for s in corpus:
            s.labels = ["B-T0", "I-T0", "O", "B-T1"]
        cfg = small_config(label_scheme="bio")
        out = prepare_corpus(corpus, cfg)
        assert out[0].labels == ["B-T0", "E-T0", "O", "S-T1"]


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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_flipped_payload_bit_rejected(self, tmp_path):
        result, _ = self.run_small()
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        raw = bytearray(path.read_bytes())
        # the lowest mantissa bit of the last float: the record still parses
        raw[-8] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum"):
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
