"""Model assembly tests: variants, invariances, dropout, configuration."""

import ctypes
import dataclasses
import functools
import os
import platform
import subprocess
import sys
import threading
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import syntag
from syntag import crf as crf_mod
from syntag import model as model_mod
from syntag import recurrent
from syntag.autodiff import Tape, Tensor, backward, constant
from syntag.data import build_vocab
from syntag.embeddings import CharEncoder
from syntag.errors import ContractError, FormatError
from syntag.evaluation import gate_histogram, gate_mean
from syntag.gradcheck import random_instances
from syntag.model import ModelConfig, SequenceTagger, VARIANTS
from syntag.synthetic import generate_corpus
from syntag.training import random_tree_heads


def tiny_config(**overrides):
    base = dict(variant="syn-lstm-crf", hidden=6, gcn_layers=2, word_dim=5,
                char_dim=3, char_hidden=2, deprel_dim=3, pos_dim=3,
                dropout=0.0, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def make_model(count=6, length=5, seed=0, **overrides):
    sentences = random_instances(count, length, num_labels=3, seed=seed)
    vocab = build_vocab(sentences)
    config = tiny_config(**overrides)
    model = SequenceTagger(config, vocab, rng=np.random.default_rng(seed))
    return model, sentences


class TestConfig:
    def test_defaults(self):
        c = ModelConfig()
        assert c.hidden == 200
        assert c.gcn_layers == 2
        assert c.word_dim == 100
        assert c.char_dim == 30
        assert c.char_hidden == 50
        assert c.dropout == 0.5
        assert c.lr == 0.2
        assert c.decay == 0.1
        assert c.l2 == 1e-8
        assert c.batch_size == 100
        assert c.clip_norm == 5.0
        c.validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ContractError):
            ModelConfig(variant="transformer").validate()
        with pytest.raises(ContractError):
            ModelConfig(dropout=1.0).validate()
        with pytest.raises(ContractError):
            ModelConfig(hidden=0).validate()
        with pytest.raises(ContractError):
            ModelConfig(tree_source="predicted").validate()
        with pytest.raises(ContractError):
            ModelConfig(drop="everything").validate()
        with pytest.raises(ContractError):
            ModelConfig(lr=0.0).validate()
        with pytest.raises(ContractError, match="seed"):
            ModelConfig(seed=-1).validate()
        for name in ("lr", "decay", "l2", "clip_norm"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ContractError, match=f"{name} must be finite"):
                    ModelConfig(**{name: value}).validate()

    def test_text_round_trip(self, tmp_path):
        c = ModelConfig(variant="bilstm-crf", hidden=17, dropout=0.25,
                        drop=None, embeddings=None, crf_constraints=True)
        path = tmp_path / "model.conf"
        path.write_text(reference.config_text(c))
        assert ModelConfig.from_file(path) == c
        # every field off its default, so each one's parsing is exercised
        c = ModelConfig(
            variant="gcn-concat-bilstm-crf", hidden=17, gcn_layers=3,
            word_dim=11, char_dim=7, char_hidden=9, deprel_dim=13, pos_dim=5,
            dropout=0.25, lr=0.05, decay=0.2, l2=1e-6, batch_size=8,
            epochs=3, seed=7, label_scheme="bio", tree_source="predicted",
            tree_file="trees.tsv", min_count=2, clip_norm=1.5,
            crf_constraints=True, fine_tune_words=False, self_only_gcn=True,
            drop="gcn-1-layer", embeddings="vectors.txt")
        for f in dataclasses.fields(ModelConfig):
            assert getattr(c, f.name) != f.default, f.name
        path.write_text(reference.config_text(c))
        assert ModelConfig.from_file(path) == c

    def test_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("# comment\n\nhidden = 12  # trailing\nvariant = bilstm-crf\n")
        c = ModelConfig.from_file(path)
        assert c.hidden == 12
        assert c.variant == "bilstm-crf"

    def test_file_unknown_key(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("hiden = 12\n")
        with pytest.raises(FormatError, match="hiden"):
            ModelConfig.from_file(path)

    def test_file_bad_value(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("hidden = twelve\n")
        with pytest.raises(FormatError, match="twelve"):
            ModelConfig.from_file(path)

    def test_file_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("hidden = 12\n# comment\nhidden = 13\n")
        with pytest.raises(FormatError, match=r":3: option 'hidden' repeats line 1"):
            ModelConfig.from_file(path)

    def test_file_missing_equals(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("hidden 12\n")
        with pytest.raises(FormatError):
            ModelConfig.from_file(path)


class TestForward:
    def test_emission_shapes(self):
        model, sentences = make_model()
        fw = model.forward_batch(sentences)
        n_max = max(len(s) for s in sentences)
        num_labels = len(model.vocab.labels)
        assert fw.emissions.data.shape == (len(sentences) * n_max, num_labels)

    def test_zero_parameters_give_uniform_lattice(self):
        model, sentences = make_model()
        for t in model.named_tensors().values():
            t.data[...] = 0.0
        fw = model.forward_batch(sentences)
        assert np.all(fw.emissions.data == 0.0)

    def test_variant_parameter_sets(self):
        model, _ = make_model()
        names = set(model.parameters())
        assert "gcn.0.w" in names and "gcn.1.w" in names
        assert "cell_fwd.W_g" in names
        plain, _ = make_model(variant="bilstm-crf")
        plain_names = set(plain.parameters())
        assert not any(n.startswith("gcn.") for n in plain_names)
        assert "deprel_table" not in plain_names
        assert "cell_fwd.W_x" in plain_names
        assert "cell_fwd.W_g" not in plain_names

    def test_drop_wiring(self):
        no_rel, _ = make_model(drop="deprel-embedding")
        assert "deprel_table" not in no_rel.parameters()
        no_pos, _ = make_model(drop="pos-embedding")
        assert "pos_table" not in no_pos.parameters()
        no_gcn, _ = make_model(drop="gcn-all")
        assert not any(n.startswith("gcn.") for n in no_gcn.parameters())
        one_layer, _ = make_model(drop="gcn-1-layer")
        gcn_names = [n for n in one_layer.parameters() if n.startswith("gcn.")]
        assert sorted(gcn_names) == ["gcn.0.b", "gcn.0.w"]

    def test_frozen_word_table(self):
        model, _ = make_model(fine_tune_words=False)
        assert "word_table" not in model.parameters()
        assert "word_table" in model.named_tensors()
        assert model.tables.word.requires_grad is False


class TestInvariances:
    def test_plain_variant_ignores_trees(self):
        rng = np.random.default_rng(5)
        model, sentences = make_model(variant="bilstm-crf", count=4, length=6)
        fw = model.forward_batch(sentences)
        rewired = []
        for s in sentences:
            c = s.copy()
            c.heads = random_tree_heads(len(s), rng)
            c.deprels = [s.deprels[int(rng.integers(len(s)))]
                         for _ in range(len(s))]
            rewired.append(c)
        fw2 = model.forward_batch(rewired)
        assert np.array_equal(fw.emissions.data, fw2.emissions.data)

    @pytest.mark.parametrize("variant",
                             ["syn-lstm-crf", "gcn-concat-bilstm-crf"])
    def test_graph_variants_see_trees(self, variant):
        model, sentences = make_model(variant=variant, count=3, length=6)
        s = sentences[0]
        fw = model.forward_batch([s])
        moved = s.copy()
        # reattach the last token somewhere else
        old = moved.heads[-1]
        moved.heads[-1] = 1 if old != 1 else 2
        fw2 = model.forward_batch([moved])
        assert not np.allclose(fw.emissions.data, fw2.emissions.data)

    def test_padding_neutral_for_loss(self):
        model, sentences = make_model(count=5, length=4, seed=2)
        short = sentences[0].copy()
        short.tokens = short.tokens[:2]
        short.pos_tags = short.pos_tags[:2]
        short.heads = [0, 1]
        short.deprels = short.deprels[:2]
        short.labels = ["O", "O"]
        batch = [short] + sentences[1:3]
        together = model.loss_batch(batch).item()
        alone = [model.loss_batch([s]).item() for s in batch]
        assert together == pytest.approx(np.mean(alone), abs=1e-12)

    def test_padding_rows_get_no_gradient(self):
        model, sentences = make_model(count=4, length=5, seed=3)
        short = sentences[0].copy()
        short.tokens = short.tokens[:3]
        short.pos_tags = short.pos_tags[:3]
        short.heads = [0, 1, 1]
        short.deprels = short.deprels[:3]
        short.labels = ["O", "O", "O"]
        batch = [short, sentences[1]]
        with Tape():
            loss = model.loss_batch(batch)
            backward(loss)
        pad_grad = model.tables.word.grad[0]
        assert np.all(pad_grad == 0.0)

    def test_batch_matches_single(self):
        model, sentences = make_model(count=4, length=5, seed=9)
        fw = model.forward_batch(sentences)
        n_max = fw.n_max
        for b, s in enumerate(sentences):
            single = model.forward_batch([s])
            got = fw.emissions.data[b * n_max: b * n_max + len(s)]
            assert np.allclose(single.emissions.data, got, atol=1e-12)


@functools.lru_cache(maxsize=None)
def _partner_model(variant):
    corpus = generate_corpus(12, seed=8)
    cfg = tiny_config(variant=variant)
    model = SequenceTagger(cfg, build_vocab(corpus),
                           rng=np.random.default_rng(1))
    return model, corpus


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_emissions_do_not_depend_on_batch_partners(variant, data):
    model, corpus = _partner_model(variant)
    pick = st.integers(0, len(corpus) - 1)
    target = data.draw(pick, label="target")
    partners = data.draw(st.lists(pick, max_size=4), label="partners")
    slot = data.draw(st.integers(0, len(partners)), label="slot")
    batch = [corpus[i] for i in partners[:slot] + [target] + partners[slot:]]
    fw = model.forward_batch(batch)
    n = len(corpus[target])
    alone = model.forward_batch([corpus[target]]).emissions.data
    got = fw.emissions.data[slot * fw.n_max: slot * fw.n_max + n]
    np.testing.assert_allclose(got, alone, rtol=0, atol=1e-12)


class TestDropout:
    def test_train_mode_needs_rng(self):
        model, sentences = make_model(dropout=0.5)
        with pytest.raises(ContractError):
            model.loss_batch(sentences, train=True)

    def test_dropout_perturbs_training_loss(self):
        model, sentences = make_model(dropout=0.5)
        rng = np.random.default_rng(0)
        a = model.loss_batch(sentences, train=True, rng=rng).item()
        b = model.loss_batch(sentences, train=True, rng=rng).item()
        assert a != b

    def test_inference_is_deterministic(self):
        model, sentences = make_model(dropout=0.5)
        a = model.loss_batch(sentences).item()
        b = model.loss_batch(sentences).item()
        assert a == b

    def test_zero_dropout_train_matches_eval(self):
        model, sentences = make_model(dropout=0.0)
        rng = np.random.default_rng(0)
        a = model.loss_batch(sentences, train=True, rng=rng).item()
        b = model.loss_batch(sentences).item()
        assert a == b

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_node_matches_a_float_mask_bit_for_bit(self, p):
        model, _ = make_model(dropout=p)
        data = np.random.default_rng(1).normal(size=(7, 5))
        dropped = np.random.default_rng(2).random(data.shape) < p
        data[np.unravel_index(np.argmax(dropped), data.shape)] = np.nan
        weights = Tensor(np.random.default_rng(3).normal(size=data.shape))
        runs = []
        for node in (True, False):
            rng = np.random.default_rng(2)
            x = Tensor(data.copy(), requires_grad=True)
            with Tape():
                if node:
                    y = model._dropout(x, rng)
                else:
                    mask = (rng.random(data.shape) >= p).astype(np.float64) / (1.0 - p)
                    y = x * constant(mask)
                loss = reference.total(y * weights)
            backward(loss)
            runs.append([y.data, x.grad, rng.random(4)])
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()
        assert np.isnan(runs[0][0][dropped]).sum() == 1

    def test_zero_dropout_is_the_input_itself(self):
        model, _ = make_model(dropout=0.0)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        rng = np.random.default_rng(0)
        with Tape() as tape:
            assert model._dropout(x, rng) is x
        assert tape._nodes == []
        assert rng.random() == np.random.default_rng(0).random()


def _tensors_held(obj, seen):
    """Every Tensor reachable from ``obj`` through function closures (nested
    functions included), lists, tuples and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        yield obj
    elif isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            yield from _tensors_held(cell.cell_contents, seen)
    elif isinstance(obj, (list, tuple, dict)):
        for item in (obj.values() if isinstance(obj, dict) else obj):
            yield from _tensors_held(item, seen)


class TestTapeHoldsNoActivation:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_nodes_hold_only_leaves_and_constants(self, variant):
        # Padded batch, dropout on: every kind of node a training step records.
        sentences = random_instances(6, [5, 2, 4, 1, 3, 5], num_labels=3, seed=4)
        model = SequenceTagger(tiny_config(variant=variant, dropout=0.5),
                               build_vocab(sentences), rng=np.random.default_rng(4))
        leaves = {id(t) for t in model.named_tensors().values()}
        with Tape() as tape:
            model.loss_batch(sentences, train=True, rng=np.random.default_rng(5))
            held = [t for node in tape._nodes for t in _tensors_held(node, set())]
        recorded = [t.data.shape for t in held
                    if t.requires_grad and id(t) not in leaves]
        assert recorded == []
        assert any(id(t) in leaves for t in held)

    @pytest.mark.parametrize("variant, nodes", [
        ("syn-lstm-crf", 18), ("bilstm-crf", 14), ("gcn-concat-bilstm-crf", 19)])
    def test_a_training_step_records_a_fixed_number_of_nodes(self, variant, nodes):
        # The GCN, the recurrent layer and the CRF loss are one node each.
        sentences = random_instances(6, [5, 2, 4, 1, 3, 5], num_labels=3, seed=4)
        model = SequenceTagger(tiny_config(variant=variant, dropout=0.5),
                               build_vocab(sentences), rng=np.random.default_rng(4))
        with Tape() as tape:
            model.loss_batch(sentences, train=True, rng=np.random.default_rng(5))
        assert len(tape._nodes) == nodes


class TestDecoding:
    def test_predict_returns_known_labels(self):
        model, sentences = make_model()
        preds = model.predict(sentences)
        assert len(preds) == len(sentences)
        names = set(model.vocab.label_names)
        for s, p in zip(sentences, preds):
            assert len(p) == len(s)
            assert set(p) <= names

    def test_predict_restores_input_order(self):
        model, corpus = _partner_model("syn-lstm-crf")
        corpus = corpus + corpus[:3]
        np.random.default_rng(0).shuffle(corpus)
        assert len({len(s) for s in corpus}) > 3
        one, three = {}, {}
        single = model.predict(corpus, batch_size=1, gates=one)
        assert len({tuple(p) for p in single}) > 3
        assert model.predict(corpus, batch_size=3) == single
        assert model.predict(corpus, batch_size=3, gates=three) == single
        assert [len(p) for p in single] == [len(s) for s in corpus]
        # The gate statistics do not depend on how predict batches.
        tokens = sum(len(s) for s in corpus)
        assert sorted(one) == sorted(three) == ["f", "i", "m", "o"]
        for gate in one:
            for gates in (one, three):
                assert sum(len(arr) for arr in gates[gate]) == tokens
            assert abs(gate_mean(one, gate) - gate_mean(three, gate)) <= 1e-12
            assert np.array_equal(gate_histogram(one, gate),
                                  gate_histogram(three, gate))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_predict_rejects_batch_size_below_one(self, batch_size):
        model, sentences = make_model()
        with pytest.raises(ContractError, match="batch_size"):
            model.predict(sentences, batch_size=batch_size)

    def test_forward_sentence_trace(self):
        model, sentences = make_model()
        s = sentences[0]
        gates = {}
        model.forward_batch([s], gates=gates)
        assert set(gates) == {"f", "i", "m", "o"}
        n = len(s)
        assert [arr.shape for arr in gates["m"]] == [(n, 2, model.config.hidden)]
        for (arr,) in gates.values():
            assert np.all(arr > 0.0) and np.all(arr < 1.0)

    def test_plain_trace_has_no_graph_gate(self):
        model, sentences = make_model(variant="bilstm-crf")
        gates = {}
        model.predict(sentences, gates=gates)
        assert "m" not in gates
        assert set(gates) == {"f", "i", "o"}
        with pytest.raises(ContractError):
            gate_histogram(gates, "m")

    def test_mean_gate(self):
        model, sentences = make_model()
        gates = {}
        model.predict(sentences, gates=gates)
        value = gate_mean(gates, "m")
        assert 0.0 < value < 1.0
        plain, _ = make_model(variant="bilstm-crf")
        plain_gates = {}
        plain.predict(sentences, gates=plain_gates)
        with pytest.raises(ContractError):
            gate_mean(plain_gates, "m")


def _many_forms_model(variant):
    """A model over a corpus of many word forms, one of them longer than 16
    chars; the vocabulary comes from the first half, so some are unknown."""
    rng = np.random.default_rng(5)
    forms = ["".join(rng.choice(list("abcdefgh"), size=n))
             for n in rng.integers(1, 10, size=60)] + ["x" * 20]
    corpus = generate_corpus(40, seed=3)
    for s in corpus:
        s.tokens = [forms[rng.integers(len(forms))] for _ in s.tokens]
    model = SequenceTagger(tiny_config(variant=variant),
                           build_vocab(corpus[:20]),
                           rng=np.random.default_rng(2))
    return model, corpus


class TestPredictEncodesEachFormOnce:
    @pytest.mark.parametrize("block", [model_mod._CHAR_BLOCK, 16])
    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_the_per_batch_path(self, monkeypatch, variant,
                                        batch_size, block):
        model, corpus = _many_forms_model(variant)
        monkeypatch.setattr(model_mod, "_CHAR_BLOCK", block)
        encoded, decoded = [], []
        encode, viterbi = CharEncoder.encode_batch, crf_mod.viterbi_batch

        def spy_encode(self, table, char_id_rows):
            encoded.append([tuple(ids) for ids in char_id_rows])
            return encode(self, table, char_id_rows)

        def spy_viterbi(em, lengths, trans):
            decoded.append(em.copy())
            return viterbi(em, lengths, trans)

        monkeypatch.setattr(CharEncoder, "encode_batch", spy_encode)
        monkeypatch.setattr(crf_mod, "viterbi_batch", spy_viterbi)
        labels = model.predict(corpus, batch_size=batch_size)
        monkeypatch.undo()

        forms = {tok for s in corpus for tok in s.tokens}
        vocab = model.vocab
        assert sorted(ids for call in encoded for ids in call) == sorted(
            tuple(vocab.char_id(c) for c in tok) for tok in forms)
        for call in encoded:
            assert len(call) == 1 or len(call) * max(map(len, call)) <= block
        assert (len(encoded) > 1) == (block == 16)

        order = sorted(range(len(corpus)), key=lambda i: len(corpus[i]))
        trans = model.crf.effective_transitions()
        want = [None] * len(corpus)
        for k, lo in enumerate(range(0, len(order), batch_size)):
            chunk = order[lo: lo + batch_size]
            fw = model.forward_batch([corpus[i] for i in chunk])
            em = fw.emissions.data.reshape(len(chunk), fw.n_max, -1)
            # Not bitwise: the char GEMMs run over other row counts, and
            # BLAS may round a row differently in a matrix of another size.
            np.testing.assert_allclose(decoded[k], em, rtol=0, atol=1e-12)
            paths, _ = crf_mod.viterbi_batch(em, fw.lengths, trans)
            for i, ids in zip(chunk, paths):
                want[i] = [vocab.label_names[j] for j in ids]
        assert labels == want

    def test_empty_call_encodes_nothing(self, monkeypatch):
        model, _ = make_model()
        monkeypatch.setattr(CharEncoder, "encode_batch", mock.Mock(
            side_effect=AssertionError("char encoder called")))
        assert model.predict([]) == []

    def test_char_encoder_rejects_no_tokens(self):
        model, _ = make_model()
        with pytest.raises(ContractError, match="no tokens"):
            model.char_encoder.encode_batch(model.tables.char, [])


class TestConcurrentCallers:
    def test_threads_predicting_on_one_model_get_the_sequential_labels(self):
        model, corpus = make_model(count=12, length=7)
        results = {}

        def work(k):
            results[k] = [model.predict(corpus, batch_size=4) for _ in range(4)]

        # Every call runs its directions on two threads, so three callers
        # share the one reverse thread; a short switch interval interleaves
        # them often.
        with mock.patch.object(recurrent, "_CONCURRENT_WORK", 0), \
                mock.patch.object(recurrent, "_spare_core", lambda: True):
            want = model.predict(corpus, batch_size=4)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=work, args=(k,), daemon=True)
                           for k in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads), "deadlocked"
        assert results == {k: [want] * 4 for k in range(3)}


class TestDeterminism:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_same_seed_same_parameters(self, variant):
        a, _ = make_model(variant=variant, seed=4)
        b, _ = make_model(variant=variant, seed=4)
        for name, t in a.named_tensors().items():
            assert np.array_equal(t.data, b.named_tensors()[name].data), name

    def test_different_seed_differs(self):
        a, _ = make_model(seed=4)
        b, _ = make_model(seed=5)
        assert not np.array_equal(a.tables.word.data, b.tables.word.data)


GLIBC = platform.libc_ver()[0] == "glibc"

# Steady-state minor page faults of three paper-size (H = 200) training steps
# on one padded 16-sentence batch, after two warm-up steps.
FAULT_PROBE = """
import resource
import numpy as np
from syntag import autodiff as ad
from syntag.data import build_vocab
from syntag.model import ModelConfig, SequenceTagger
from syntag.synthetic import generate_corpus

corpus = generate_corpus(16, seed=0)
model = SequenceTagger(ModelConfig(seed=0), build_vocab(corpus))
rng = np.random.default_rng(0)

def step():
    ad.clear_grads(model.parameters())
    with ad.Tape():
        ad.backward(model.loss_batch(corpus, train=True, rng=rng))

for _ in range(2):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorSettings:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        model_mod._keep_freed_memory.cache_clear()
        yield
        model_mod._keep_freed_memory.cache_clear()

    @staticmethod
    def fake_libc(monkeypatch, libc):
        calls = []

        class FakeLibc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: (libc, "1.2"))
        monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: FakeLibc())
        return calls

    def test_no_calls_off_glibc(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, "musl")
        make_model()
        assert model_mod._keep_freed_memory() == ()
        assert calls == []

    def test_three_mallopt_calls_once_per_process(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, "glibc")
        make_model()
        make_model(variant="bilstm-crf")
        assert calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]

    @pytest.mark.skipif(not GLIBC, reason="needs glibc")
    def test_glibc_accepts_all_three_settings(self):
        assert model_mod._keep_freed_memory() == (1, 1, 1)

    @pytest.mark.skipif(not GLIBC, reason="needs glibc")
    def test_steady_state_train_steps_fault_few_pages(self):
        src = str(Path(syntag.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert int(out.stdout) < 1000
