"""Model assembly tests: variants, invariances, dropout, configuration."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syntag.autodiff import Tape, backward
from syntag.data import build_vocab
from syntag.errors import ContractError, FormatError
from syntag.gradcheck import check_model_variant, random_instances
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

    def test_text_round_trip(self, tmp_path):
        c = ModelConfig(variant="bilstm-crf", hidden=17, dropout=0.25,
                        drop=None, embeddings=None, crf_constraints=True)
        path = tmp_path / "model.conf"
        path.write_text(c.to_text())
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
        single = model.predict(corpus, batch_size=1)
        assert len({tuple(p) for p in single}) > 3
        assert model.predict(corpus, batch_size=3) == single
        assert [len(p) for p in single] == [len(s) for s in corpus]

    def test_forward_sentence_trace(self):
        model, sentences = make_model()
        s = sentences[0]
        trace = model.forward_batch([s], want_traces=True).traces[0]
        assert set(trace.arrays) == {"f", "i", "m", "o"}
        n = len(s)
        assert trace.arrays["m"].shape == (n, 2, model.config.hidden)
        for arr in trace.arrays.values():
            assert np.all(arr > 0.0) and np.all(arr < 1.0)

    def test_plain_trace_has_no_graph_gate(self):
        model, sentences = make_model(variant="bilstm-crf")
        trace = model.forward_batch([sentences[0]], want_traces=True).traces[0]
        assert "m" not in trace.arrays
        assert set(trace.arrays) == {"f", "i", "o"}

    def test_mean_gate(self):
        model, sentences = make_model()
        value = model.mean_gate(sentences)
        assert 0.0 < value < 1.0
        plain, _ = make_model(variant="bilstm-crf")
        with pytest.raises(ContractError):
            plain.mean_gate(sentences)


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


class TestGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_gradients(self, variant):
        report = check_model_variant(variant, seed=1, count=2, length=3,
                                     hidden=4)
        assert report.max_rel_err < 1e-4, report.per_param
